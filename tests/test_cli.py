"""End-to-end tests for the command line: curate, train, profile, run, eval.

The pipeline runs entirely against scripted mock backends inside a temp
directory, so every stage is deterministic and offline.
"""

import io
import json
import logging
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import sdag.cli
from sdag.cli import main
from sdag.curation import read_records
from sdag.profiling import load_pool, load_profiles
from sdag.router.checkpoint import load_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"

RAW_QUESTIONS = [
    ("q00", "A magnet falls through a copper tube; derive its terminal speed."),
    ("q01", "Estimate the flux change as the magnet passes each coil turn."),
    ("q02", "A breached supply contract shifts prices; who bears the loss?"),
    ("q03", "Does the franchise contract clause survive the merger?"),
    ("q04", "An enzyme doubles its turnover rate when the buffer changes; why?"),
    ("q05", "Which inhibitor slows the enzyme without denaturing it?"),
    ("q06", "Count the spanning trees of the hypercube graph Q3."),
    ("q07", "onlyhistory Which dynasty built the longest canal network?"),
]

ANNOTATOR_RULES = [
    {"match": {"substring": "magnet"}, "reply": "Keywords: <Physics 0.7>, <Math 0.3>"},
    {"match": {"substring": "contract"}, "reply": "Keywords: <Law 0.6>, <Economics 0.4>"},
    {"match": {"substring": "enzyme"}, "reply": "Keywords: <Biology 0.5>, <Chemistry 0.5>"},
    {"match": {"substring": "onlyhistory"}, "reply": "Keywords: <History 1.0>"},
    {"match": "default", "reply": "Keywords: <Math 0.6>, <Computer Science 0.4>"},
]

EXPERT_RULES = [
    {"match": "default", "reply": "I conclude <<A>> after reviewing the inputs."},
]

POOL_MODELS = [
    {"model_id": "expert-math", "backend": "mock-expert", "declared_subjects": ["Math"]},
    {"model_id": "expert-law", "backend": "mock-expert", "declared_subjects": ["Law"]},
    {"model_id": "expert-biology", "backend": "mock-expert", "declared_subjects": ["Biology"]},
]

TRAIN_FLAGS = [
    "--epochs", "2",
    "--embedding-dim", "64",
    "--subject-dim", "8",
    "--hidden-dim", "16",
    "--layers", "1",
]


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw.jsonl"
    raw.write_text(
        "\n".join(
            json.dumps(
                {
                    "id": qid,
                    "question": text,
                    "options": ["first", "second", "third", "fourth"],
                    "gold": "A",
                    "subjects": None,
                    "split": None,
                }
            )
            for qid, text in RAW_QUESTIONS
        )
        + "\n",
        encoding="utf-8",
    )
    backends = root / "backends.json"
    backends.write_text(
        json.dumps(
            {
                "backends": [
                    {"name": "annotator", "kind": "mock", "seed": 0, "script": ANNOTATOR_RULES},
                    {"name": "mock-expert", "kind": "mock", "seed": 0, "script": EXPERT_RULES},
                ]
            }
        ),
        encoding="utf-8",
    )
    pool = root / "pool.json"
    pool.write_text(json.dumps({"models": POOL_MODELS}), encoding="utf-8")
    return {"root": root, "raw": raw, "backends": backends, "pool": pool}


@pytest.fixture(scope="module")
def pipeline(workspace):
    """Runs curate, train, and profile once; later tests reuse the artifacts."""
    root = workspace["root"]
    paths = {
        **workspace,
        "curated": root / "curated.jsonl",
        "checkpoint": root / "router.ckpt.json",
        "profiles": root / "profiles.json",
    }
    code, _ = run_cli(
        [
            "curate",
            "--in", str(paths["raw"]),
            "--out", str(paths["curated"]),
            "--backends", str(paths["backends"]),
            "--profiling-size", "2",
            "--train-ratio", "0.7",
        ]
    )
    assert code == 0
    code, _ = run_cli(
        [
            "train",
            "--data", str(paths["curated"]),
            "--out", str(paths["checkpoint"]),
            *TRAIN_FLAGS,
        ]
    )
    assert code == 0
    code, _ = run_cli(
        [
            "profile",
            "--data", str(paths["curated"]),
            "--pool", str(paths["pool"]),
            "--out", str(paths["profiles"]),
            "--backends", str(paths["backends"]),
        ]
    )
    assert code == 0
    return paths


def eval_argv(pipeline, mode, extra=()):
    argv = [
        "eval",
        "--mode", mode,
        "--data", str(pipeline["curated"]),
        "--pool", str(pipeline["pool"]),
        "--backends", str(pipeline["backends"]),
    ]
    return argv + list(extra)


def test_curate_stats_and_splits(workspace, tmp_path):
    out_path = tmp_path / "again.jsonl"
    code, out = run_cli(
        [
            "curate",
            "--in", str(workspace["raw"]),
            "--out", str(out_path),
            "--backends", str(workspace["backends"]),
            "--profiling-size", "2",
            "--train-ratio", "0.7",
        ]
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["input"] == 8
    assert stats["kept"] == 7
    assert stats["skipped"] == 1
    assert stats["splits"] == {"train": 4, "test": 1, "profiling": 2}
    records = read_records(out_path)
    assert len(records) == 7
    assert all(r.subjects for r in records)
    assert "q07" not in {r.id for r in records}


def test_pipeline_checkpoint_loads(pipeline):
    params = load_checkpoint(pipeline["checkpoint"])
    assert params.dims.d_q == 64
    assert params.dims.L == 1
    assert params.embedder.startswith("hashed")


def test_pipeline_profiles_cover_pool(pipeline):
    store = load_profiles(pipeline["profiles"])
    pool = load_pool(pipeline["pool"])
    store.ensure_covers(pool)
    assert set(store.profiles) == {m["model_id"] for m in POOL_MODELS}
    assert store.provenance["calls"] == len(POOL_MODELS) * 2


def test_run_answers_question(pipeline, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code, out = run_cli(
        [
            "run",
            "--question", "How does the contract bind the two parties?",
            "--option", "It binds both",
            "--option", "It binds neither",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--profiles", str(pipeline["profiles"]),
            "--pool", str(pipeline["pool"]),
            "--backends", str(pipeline["backends"]),
            "--trace", str(trace_path),
        ]
    )
    assert code == 0
    assert out.strip() == "A"
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 2
    summary = json.loads(lines[-1])["summary"]
    assert summary["final_answer"] == "A"
    assert summary["simulated"] is True


def test_run_fcg_mode(pipeline, tmp_path):
    trace_path = tmp_path / "trace_fcg.jsonl"
    code, out = run_cli(
        [
            "run",
            "--question", "Why does the enzyme stall at low pH?",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--profiles", str(pipeline["profiles"]),
            "--pool", str(pipeline["pool"]),
            "--backends", str(pipeline["backends"]),
            "--mode", "fcg",
            "--trace", str(trace_path),
        ]
    )
    assert code == 0
    summary = json.loads(trace_path.read_text(encoding="utf-8").splitlines()[-1])["summary"]
    assert summary["mode"] == "fcg"
    assert out.strip() == "A"


@pytest.mark.parametrize("mode, edges", [("sdag", True), ("fcg", False)])
def test_run_scores_edges_only_for_sdag(pipeline, tmp_path, monkeypatch, mode, edges):
    calls = []
    real = sdag.cli.generate_sdag

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(sdag.cli, "generate_sdag", spy)
    code, _ = run_cli(
        [
            "run",
            "--question", "Why does the enzyme stall at low pH?",
            "--checkpoint", str(pipeline["checkpoint"]),
            "--profiles", str(pipeline["profiles"]),
            "--pool", str(pipeline["pool"]),
            "--backends", str(pipeline["backends"]),
            "--mode", mode,
            "--trace", str(tmp_path / "trace.jsonl"),
        ]
    )
    assert code == 0
    assert calls == [{"edges": edges}]


def test_eval_no_gnn_full_accuracy(pipeline, tmp_path):
    report_path = tmp_path / "report.json"
    code, out = run_cli(
        eval_argv(
            pipeline,
            "no_gnn",
            ["--profiles", str(pipeline["profiles"]), "--out", str(report_path),
             "--format", "json"],
        )
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["mode"] == "no_gnn"
    assert report["accuracy_mean"] == 1.0
    assert json.loads(out) == report


def test_eval_renders_json_report_once(pipeline, tmp_path, monkeypatch):
    formats = []
    real_render = sdag.cli.render_report

    def spy(report, format="text"):
        formats.append(format)
        return real_render(report, format)

    monkeypatch.setattr(sdag.cli, "render_report", spy)
    report_path = tmp_path / "report.json"
    code, out = run_cli(
        eval_argv(
            pipeline,
            "no_gnn",
            ["--profiles", str(pipeline["profiles"]), "--out", str(report_path),
             "--format", "json"],
        )
    )
    assert code == 0
    assert formats == ["json"]
    assert report_path.read_text(encoding="utf-8") == out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_eval_sdag_mode_runs(pipeline, tmp_path):
    report_path = tmp_path / "sdag_report.json"
    code, _ = run_cli(
        eval_argv(
            pipeline,
            "sdag",
            [
                "--checkpoint", str(pipeline["checkpoint"]),
                "--profiles", str(pipeline["profiles"]),
                "--out", str(report_path),
            ],
        )
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert 0.0 <= report["accuracy_mean"] <= 1.0
    assert report["questions"] == 1


def test_eval_reports_byte_identical(pipeline, tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        code, _ = run_cli(
            eval_argv(
                pipeline,
                "no_gnn",
                ["--profiles", str(pipeline["profiles"]), "--out", str(path)],
            )
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_bad_flag_exits_one(workspace):
    code, _ = run_cli(["train", "--no-such-flag", "x"])
    assert code == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["eval", "--mode", "sdag", "--seeds", "0"],
        ["eval", "--mode", "sdag", "--parallelism", "0"],
        ["eval", "--mode", "sdag", "--edge-threshold", "1"],
        ["train", "--epochs", "0"],
        ["train", "--lr", "-1e-3"],
        ["train", "--layers", "nan"],
        ["run", "--question", "q", "--node-threshold", "1.5"],
        ["run", "--question", "q", "--edge-threshold", "-0.1"],
        ["curate", "--in", "missing.jsonl", "--train-ratio", "1"],
    ],
)
def test_out_of_range_flag_is_usage_error_before_reading_files(tmp_path, capsys, flags):
    # Every path names a missing file: reading one would exit 2 instead.
    missing = [str(tmp_path / name) for name in ("a", "b", "c", "d", "e")]
    paths = {
        "eval": ["--data", missing[0], "--pool", missing[1], "--backends", missing[2],
                 "--checkpoint", missing[3], "--profiles", missing[4]],
        "train": ["--data", missing[0], "--out", missing[1]],
        "run": ["--checkpoint", missing[0], "--profiles", missing[1], "--pool", missing[2],
                "--backends", missing[3]],
        "curate": ["--out", missing[0], "--backends", missing[1]],
    }[flags[0]]
    assert main(flags + paths) == 1
    err = capsys.readouterr().err
    assert "expected" in err and "Traceback" not in err
    assert not any(Path(p).exists() for p in missing)


def test_missing_command_exits_one():
    code, _ = run_cli([])
    assert code == 1


def test_help_exits_zero():
    code, _ = run_cli(["--help"])
    assert code == 0


def test_eval_sdag_without_checkpoint_is_usage_error(pipeline, capsys):
    code, _ = run_cli(
        eval_argv(pipeline, "sdag", ["--profiles", str(pipeline["profiles"])])
    )
    assert code == 1
    assert "requires --checkpoint" in capsys.readouterr().err


def test_eval_sdag_without_profiles_is_usage_error(pipeline, capsys):
    code, _ = run_cli(
        eval_argv(pipeline, "sdag", ["--checkpoint", str(pipeline["checkpoint"])])
    )
    assert code == 1
    assert "requires --profiles" in capsys.readouterr().err


def test_unknown_split_is_usage_error(pipeline, capsys):
    code, _ = run_cli(
        [
            "train",
            "--data", str(pipeline["curated"]),
            "--out", "unused.json",
            "--split", "bogus",
            *TRAIN_FLAGS,
        ]
    )
    assert code == 1
    assert "split" in capsys.readouterr().err


def test_train_without_annotations_is_usage_error(pipeline, capsys):
    code, _ = run_cli(
        [
            "train",
            "--data", str(pipeline["raw"]),
            "--out", "unused.json",
            "--split", "all",
            *TRAIN_FLAGS,
        ]
    )
    assert code == 1
    assert "annotations" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_two(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _ = run_cli(
        eval_argv(
            pipeline,
            "sdag",
            ["--checkpoint", str(bad), "--profiles", str(pipeline["profiles"])],
        )
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_data_file_exits_two(pipeline):
    code, _ = run_cli(
        [
            "eval",
            "--mode", "no_gnn",
            "--data", str(pipeline["root"] / "does_not_exist.jsonl"),
            "--pool", str(pipeline["pool"]),
            "--backends", str(pipeline["backends"]),
            "--profiles", str(pipeline["profiles"]),
        ]
    )
    assert code == 2


def test_eval_with_unset_api_key_exits_two(pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SDAG_TEST_UNSET_KEY", raising=False)
    backends = tmp_path / "remote_backends.json"
    backends.write_text(json.dumps({"backends": [{
        "name": "mock-expert", "kind": "remote", "model": "m",
        "url": "http://127.0.0.1:9/v1/chat/completions", "key_env": "SDAG_TEST_UNSET_KEY",
    }]}), encoding="utf-8")
    code, out = run_cli([
        "eval",
        "--mode", "no_gnn",
        "--data", str(pipeline["curated"]),
        "--pool", str(pipeline["pool"]),
        "--backends", str(backends),
        "--profiles", str(pipeline["profiles"]),
    ])
    assert code == 2
    assert out == ""
    assert "SDAG_TEST_UNSET_KEY is not set" in capsys.readouterr().err


def test_profile_with_unknown_pool_backend_exits_two(pipeline, tmp_path, capsys):
    pool = tmp_path / "pool.json"
    models = [dict(POOL_MODELS[0], backend="nosuch"), *POOL_MODELS[1:]]
    pool.write_text(json.dumps({"models": models}), encoding="utf-8")
    out = tmp_path / "profiles.json"
    code, _ = run_cli([
        "profile",
        "--data", str(pipeline["curated"]),
        "--pool", str(pool),
        "--out", str(out),
        "--backends", str(pipeline["backends"]),
    ])
    assert code == 2
    assert "nosuch" in capsys.readouterr().err
    assert not out.exists()


def test_run_with_unknown_pool_backend_exits_two(pipeline, tmp_path, capsys):
    # Equal profiles route every subject to expert-biology (ties go to the
    # first model id), so the question never reaches the broken entry.
    pool = tmp_path / "pool.json"
    models = [dict(m, backend="nosuch") if m["model_id"] == "expert-math" else m
              for m in POOL_MODELS]
    pool.write_text(json.dumps({"models": models}), encoding="utf-8")
    trace_path = tmp_path / "trace.jsonl"
    code, out = run_cli([
        "run",
        "--question", "How does the contract bind the two parties?",
        "--checkpoint", str(pipeline["checkpoint"]),
        "--profiles", str(pipeline["profiles"]),
        "--pool", str(pool),
        "--backends", str(pipeline["backends"]),
        "--trace", str(trace_path),
    ])
    assert code == 2
    assert out == ""
    assert "nosuch" in capsys.readouterr().err
    assert not trace_path.exists()


@pytest.mark.parametrize("mode", ["sdag", "fcg"])
def test_eval_json_bytes_do_not_depend_on_hash_seed(pipeline, mode):
    argv = eval_argv(pipeline, mode, [
        "--checkpoint", str(pipeline["checkpoint"]),
        "--profiles", str(pipeline["profiles"]),
        "--split", "all",
        "--format", "json",
    ])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "sdag.cli", *argv],
            env=env, capture_output=True, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert json.loads(outputs[0])["mode"] == mode
    assert outputs[0] == outputs[1]


def test_verbose_flag_accepted(workspace, tmp_path):
    logging.getLogger().setLevel(logging.WARNING)
    code, _ = run_cli(
        [
            "--verbose",
            "curate",
            "--in", str(workspace["raw"]),
            "--out", str(tmp_path / "v.jsonl"),
            "--backends", str(workspace["backends"]),
            "--profiling-size", "2",
        ]
    )
    assert code == 0


# Each breakage of entry 1 of the pool (models) or backend file (entries),
# keyed by the error it must produce.
BREAKAGES = {
    "entry 1 lacks backend": lambda models, entries: models[1].pop("backend"),
    "entry 1 has unknown field(s) scirpt":
        lambda models, entries: entries[1].update(scirpt=entries[1].pop("script")),
    "entry 1: latency_ms must be a list of two numbers":
        lambda models, entries: entries[1].update(latency_ms=5),
    "entry 1: retries must be an integer":
        lambda models, entries: entries[1].update(retries="3"),
    "entry 1: declared_subjects must be a list of strings":
        lambda models, entries: models[1].update(declared_subjects=[3]),
}


@pytest.mark.parametrize(
    "broken, expect",
    [
        ("pool", "entry 1 lacks backend"),
        ("backends", "entry 1 has unknown field(s) scirpt"),
        ("backends", "entry 1: latency_ms must be a list of two numbers"),
        ("backends", "entry 1: retries must be an integer"),
        ("pool", "entry 1: declared_subjects must be a list of strings"),
    ],
)
def test_malformed_pool_or_backend_file_exits_two(pipeline, tmp_path, broken, expect):
    # A pool entry without `backend`, a backend entry with a misspelt field,
    # or a field of the wrong type is a misconfiguration: exit 2 with one
    # error line, no traceback.
    pool = tmp_path / "pool.json"
    backends = tmp_path / "backends.json"
    models = [dict(m) for m in POOL_MODELS]
    entries = json.loads(pipeline["backends"].read_text(encoding="utf-8"))["backends"]
    BREAKAGES[expect](models, entries)
    pool.write_text(json.dumps({"models": models}), encoding="utf-8")
    backends.write_text(json.dumps({"backends": entries}), encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "sdag.cli", "eval",
            "--mode", "single_cot",
            "--single-cot-model", "expert-math",
            "--data", str(pipeline["curated"]),
            "--pool", str(pool),
            "--backends", str(backends),
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert f"{tmp_path / broken}.json: {expect}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "rule, expect",
    [
        ({"match": {"metadata": {}}, "reply": "x"}, "a metadata matcher needs a string field"),
        ({"match": {"regex": "("}, "reply": "x"}, "bad regex '('"),
    ],
)
def test_malformed_mock_rule_exits_two(pipeline, tmp_path, capsys, rule, expect):
    # A mock rule is checked, and its regex compiled, when the backend file
    # loads: no KeyError at build time, no re.error on the first call.
    backends = tmp_path / "backends.json"
    entries = json.loads(pipeline["backends"].read_text(encoding="utf-8"))["backends"]
    entries[1]["script"] = [rule, *entries[1]["script"]]
    backends.write_text(json.dumps({"backends": entries}), encoding="utf-8")
    code, out = run_cli([
        "eval",
        "--mode", "single_cot",
        "--single-cot-model", "expert-math",
        "--data", str(pipeline["curated"]),
        "--pool", str(pipeline["pool"]),
        "--backends", str(backends),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "mock backend 'mock-expert': mock rule 0" in err
    assert expect in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "curate"])
def test_duplicate_question_id_exits_two(pipeline, tmp_path, capsys, command):
    # The second line repeats the first line's id; the blank line between
    # them still counts, so the duplicate is reported on line 3.
    line = json.loads(pipeline["curated"].read_text(encoding="utf-8").splitlines()[0])
    data = tmp_path / "dup.jsonl"
    data.write_text(
        json.dumps(line) + "\n\n" + json.dumps({**line, "question": "another"}) + "\n",
        encoding="utf-8",
    )
    argv = {
        "eval": ["eval", "--mode", "single_cot", "--data", str(data), "--split", "all",
                 "--pool", str(pipeline["pool"])],
        "curate": ["curate", "--in", str(data), "--out", str(tmp_path / "out.jsonl")],
    }[command]
    code, out = run_cli(argv + ["--backends", str(pipeline["backends"])])
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err == f"error: {data}:3: duplicate id {line['id']!r} (first on line 1)\n"
    assert not (tmp_path / "out.jsonl").exists()
