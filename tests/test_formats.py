"""Every file `sdag eval` reads, checked against its field table.

A malformed question dataset, router checkpoint, model pool, profile store,
backend config or mock script stops the CLI with exit 2 and one `error:`
line naming the file and the entry or line, never with a traceback or a
silently wrong value.
"""

import copy
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdag import fileio
from sdag.cli import main
from sdag.errors import CorruptCheckpoint, CorruptProfileStore
from sdag.profiling import ModelProfile, ProfileStore, load_profiles, save_profiles
from sdag.router.checkpoint import load_checkpoint, save_checkpoint
from sdag.router.model import RouterDims, init_params
from sdag.subjects import SUBJECTS, Subject

ROOT = Path(__file__).resolve().parents[1]
DIMS = RouterDims(d_s=2, d_q=8, h=3, L=1)
FILES = {
    "dataset": "data.jsonl",
    "checkpoint": "router.json",
    "pool": "pool.json",
    "profiles": "profiles.json",
    "backends": "backends.json",
    "rules": "rules.json",
}


def valid_documents() -> dict:
    """The parsed contents of one workspace on which `sdag eval` succeeds."""
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "router.json"
        save_checkpoint(init_params(DIMS, seed=1, embedder="hashed(d=8)"), checkpoint)
        profiles = Path(tmp) / "profiles.json"
        save_profiles(ProfileStore(profiles={
            "m1": ModelProfile.from_raw("m1", {Subject.MATH: 1.0}),
            "m2": ModelProfile.from_raw("m2", {Subject.PHYSICS: 0.5, Subject.LAW: 0.25}),
        }, provenance={"seed": 0}), profiles)
        return {
            "dataset": [
                {"id": f"q{i}", "question": f"question {i} on magnets", "options": ["a", "b"],
                 "gold": "A", "subjects": {"Math": 0.6, "Physics": 0.4}, "split": "test"}
                for i in range(2)
            ],
            "checkpoint": json.loads(checkpoint.read_text(encoding="utf-8")),
            "pool": {"models": [
                {"model_id": "m1", "backend": "mock", "declared_subjects": ["Math"]},
                {"model_id": "m2", "backend": "mock"},
            ]},
            "profiles": json.loads(profiles.read_text(encoding="utf-8")),
            "backends": {"backends": [
                {"name": "mock", "kind": "mock", "seed": 0, "latency_ms": [1, 2],
                 "script_path": "rules.json"},
            ]},
            "rules": [
                {"match": {"substring": "never"}, "reply": "<<B>>"},
                {"match": {"metadata": {"field": "role", "equals_field": "gold"}},
                 "reply": "<<C>>"},
                {"match": "default", "reply": "<<A>>"},
            ],
        }


DOCUMENTS = valid_documents()


def checked_objects(kind: str, doc) -> list[tuple[tuple, tuple[str, ...]]]:
    """(path to an object in `doc`, the fields it requires) for every object
    of a format that a field table, or the taxonomy, fixes the keys of."""
    if kind == "dataset":
        return [((i,), ("id", "question", "options", "gold")) for i in range(len(doc))] + [
            ((i, "subjects"), ()) for i in range(len(doc))
        ]
    if kind == "checkpoint":
        return [((), ("version", "dims", "tensors")), (("dims",), ("d_s", "d_q", "h", "L")),
                (("tensors",), tuple(doc["tensors"]))]
    if kind == "pool":
        return [((), ("models",))] + [
            (("models", i), ("model_id", "backend")) for i in range(len(doc["models"]))
        ]
    if kind == "profiles":
        objects = [((), ("version", "profiles"))]
        for model in doc["profiles"]:
            objects += [(("profiles", model), ("raw", "normalized", "uniform_fallback")),
                        (("profiles", model, "raw"), ()),
                        (("profiles", model, "normalized"), tuple(s.value for s in SUBJECTS))]
        return objects
    if kind == "backends":
        return [((), ("backends",))] + [
            (("backends", i), ("name", "kind")) for i in range(len(doc["backends"]))
        ]
    objects = []
    for i, rule in enumerate(doc):
        objects.append(((i,), ("reply",)))
        if isinstance(rule.get("match"), dict):
            # Dropping a matcher's one choice, or any metadata field, leaves too few.
            objects.append(((i, "match"), tuple(rule["match"])))
            if "metadata" in rule["match"]:
                objects.append(((i, "match", "metadata"), tuple(rule["match"]["metadata"])))
    return objects


def at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def mistyped(value):
    """A value of another JSON type than `value`'s."""
    if isinstance(value, bool) or value is None:
        return "no"
    if isinstance(value, (int, float)):
        return "1"
    if isinstance(value, str):
        return 5
    return [] if isinstance(value, dict) else {}


def render(kind: str, doc) -> str:
    if kind == "dataset":
        return "".join(json.dumps(record) + "\n" for record in doc)
    return json.dumps(doc)


def write_workspace(root: Path, documents: dict, damaged: tuple[str, str] | None = None):
    for kind, name in FILES.items():
        text = render(kind, documents[kind])
        if damaged is not None and damaged[0] == kind:
            text = damaged[1]
        (root / name).write_text(text, encoding="utf-8")


def run_eval(root: Path) -> tuple[int, str, str]:
    argv = ["eval", "--mode", "sdag", "--seeds", "1", "--format", "json"]
    for flag, kind in (("--data", "dataset"), ("--checkpoint", "checkpoint"),
                       ("--pool", "pool"), ("--profiles", "profiles"),
                       ("--backends", "backends")):
        argv += [flag, str(root / FILES[kind])]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_the_valid_workspace_evaluates(tmp_path):
    write_workspace(tmp_path, DOCUMENTS)
    code, out, err = run_eval(tmp_path)
    assert code == 0, err
    assert json.loads(out)["questions"] == 2


@st.composite
def damages(draw):
    """A format, and its text with one field mistyped, one required field
    dropped, one unknown field added, or the file truncated."""
    kind = draw(st.sampled_from(sorted(FILES)))
    doc = copy.deepcopy(DOCUMENTS[kind])
    how = draw(st.sampled_from(["mistype", "drop", "unknown", "truncate"]))
    if how == "truncate":
        lines = render(kind, doc).splitlines()
        if kind == "dataset":
            # Cut inside a line, so no shorter file of whole records is left.
            j = draw(st.integers(0, len(lines) - 1))
            cut = draw(st.integers(1, len(lines[j]) - 1))
            return kind, how, "\n".join(lines[:j] + [lines[j][:cut]])
        return kind, how, lines[0][: draw(st.integers(0, len(lines[0]) - 1))]
    objects = checked_objects(kind, doc)
    if how == "drop":
        objects = [(path, required) for path, required in objects if required]
    path, required = draw(st.sampled_from(objects))
    target = at(doc, path)
    if how == "mistype":
        field = draw(st.sampled_from(sorted(target)))
        target[field] = mistyped(target[field])
    elif how == "drop":
        del target[draw(st.sampled_from(required))]
    else:
        target["zz_unknown"] = 1
    return kind, how, render(kind, doc)


@settings(max_examples=150, deadline=None)
@given(damage=damages())
def test_every_damaged_format_exits_two_naming_its_file(damage):
    kind, how, text = damage
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_workspace(root, DOCUMENTS, (kind, text))
        code, out, err = run_eval(root)
    assert code == 2, (kind, how, err)
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    # A mock rule is reported under the backend file that loads its script.
    named = FILES["backends"] if kind == "rules" and how != "truncate" else FILES[kind]
    assert f"{root / named}" in err, (kind, how, err)


# -- the reproductions, one at a time ----------------------------------------


def eval_with(tmp_path, kind: str, text: str) -> str:
    write_workspace(tmp_path, DOCUMENTS, (kind, text))
    code, out, err = run_eval(tmp_path)
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err
    return err


def record_line(**changes) -> str:
    return json.dumps({**DOCUMENTS["dataset"][0], **changes})


@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param("[1]", " is not an object", id="list"),
        pytest.param(record_line(subjects=["Math"]),
                     ": subjects must be an object of numbers or null", id="subject-list"),
        pytest.param(record_line(subjects={"Math": "x", "Physics": 0.4}),
                     ": subjects must be an object of numbers or null", id="string-weight"),
        pytest.param(record_line(gold="Z"), ": record q0: gold 'Z' labels no option", id="gold"),
        pytest.param(record_line(subjects={"Math": 0.6, "Astrology": 0.4}),
                     ": unknown subject: 'Astrology'", id="unknown-subject"),
        pytest.param(record_line(subjects={"Math": -3, "Physics": 5}),
                     ": weight out of range for Math: -3.0", id="weight-range"),
        pytest.param(record_line(options="ab"), ": options must be a list of strings",
                     id="string-options"),
        pytest.param(record_line(id=5), ": id must be a string", id="integer-id"),
        pytest.param(record_line(sourse="x"), " has unknown field(s) sourse", id="unknown-field"),
        pytest.param('{"id": "q1"', ": not valid UTF-8 JSON", id="truncated"),
    ],
)
def test_bad_dataset_line_names_file_and_line(tmp_path, line, message):
    text = render("dataset", DOCUMENTS["dataset"][1:]) + line + "\n"
    err = eval_with(tmp_path, "dataset", text)
    assert err.startswith(f"error: {tmp_path / FILES['dataset']}:2{message}"), err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("embedder", 5, "embedder must be a string or null"),
        ("seed", "s", "seed must be an integer or null"),
        ("seed", True, "seed must be an integer or null"),
        ("version", True, "version must be an integer"),
    ],
)
def test_checkpoint_provenance_types(tmp_path, field, value, message):
    path = tmp_path / "router.json"
    path.write_text(json.dumps({**DOCUMENTS["checkpoint"], field: value}), encoding="utf-8")
    with pytest.raises(CorruptCheckpoint) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: {message}"
    err = eval_with(tmp_path, "checkpoint", path.read_text(encoding="utf-8"))
    assert err == f"error: {tmp_path / FILES['checkpoint']}: {message}\n"


def test_checkpoint_without_provenance_loads(tmp_path):
    path = tmp_path / "router.json"
    payload = dict(DOCUMENTS["checkpoint"])
    del payload["seed"], payload["embedder"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    params = load_checkpoint(path)
    assert (params.seed, params.embedder) == (None, None)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda p: p.update(version=True), "version must be an integer"),
        (lambda p: p["profiles"]["m1"].update(uniform_fallback="no"),
         "model 'm1': uniform_fallback must be a boolean"),
        (lambda p: p.update(provenance=["seed", 0]), "provenance must be an object"),
        (lambda p: p["profiles"]["m2"]["raw"].update(Law="0.25"),
         "model 'm2': raw must be an object of numbers"),
        (lambda p: p["profiles"]["m2"]["normalized"].update(Astrology=0.0),
         "model 'm2': unknown subject: 'Astrology'"),
    ],
)
def test_profile_store_type_holes(tmp_path, change, message):
    payload = copy.deepcopy(DOCUMENTS["profiles"])
    change(payload)
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptProfileStore) as info:
        load_profiles(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "kind, old, new, message",
    [
        ("profiles", '"Math": 1.0', '"Math": NaN',
         ": model 'm1': normalized must be an object of numbers"),
        ("dataset", '"Math": 0.6', '"Math": Infinity',
         ":1: subjects must be an object of numbers or null"),
        ("backends", '"latency_ms": [1, 2]', '"latency_ms": [-Infinity, 2]',
         ": entry 0: latency_ms must be a list of two numbers"),
        ("profiles", '"Law": 0.25', '"Law": 1e999', ": model 'm2': raw must be an object of numbers"),
        ("dataset", '"Physics": 0.4', '"Physics": 1' + "0" * 400,
         ":1: subjects must be an object of numbers or null"),
    ],
)
def test_non_finite_numbers_are_not_numbers(tmp_path, kind, old, new, message):
    # Python's json reads NaN, Infinity and 1e999 as floats, and 1 followed
    # by 400 zeros as an int that no float holds; no file here may hold them.
    text = render(kind, DOCUMENTS[kind])
    assert old in text
    err = eval_with(tmp_path, kind, text.replace(old, new, 1))
    assert err == f"error: {tmp_path / FILES[kind]}{message}\n"


def test_duplicate_backend_name_is_rejected_at_load(tmp_path):
    backends = copy.deepcopy(DOCUMENTS["backends"])
    backends["backends"].append(dict(backends["backends"][0], seed=1))
    err = eval_with(tmp_path, "backends", json.dumps(backends))
    assert err == f"error: {tmp_path / FILES['backends']}: entry 1: duplicate name 'mock'\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"model_id": "m3", "backend": "mock", "bakend": "mock"},
         "entry 2 has unknown field(s) bakend"),
        ({"model_id": "m3", "bakend": "mock"}, "entry 2 lacks backend"),
        ({"model_id": "m1", "backend": "mock"}, "entry 2: duplicate model_id 'm1'"),
        ({"model_id": "m3", "backend": "mock", "declared_subjects": ["Astrology"]},
         "entry 2: unknown subject: 'Astrology'"),
    ],
)
def test_pool_typos_are_rejected_at_load(tmp_path, entry, message):
    pool = copy.deepcopy(DOCUMENTS["pool"])
    pool["models"].append(entry)
    err = eval_with(tmp_path, "pool", json.dumps(pool))
    assert err == f"error: {tmp_path / FILES['pool']}: {message}\n"


@pytest.mark.parametrize(
    "match, message",
    [
        pytest.param({"substring": "x", "regex": "("},
                     "match needs exactly one of substring, regex, metadata", id="two-matchers"),
        pytest.param({"substring": "x", "typo": 1}, "match has unknown field(s) typo",
                     id="unknown-matcher-field"),
        pytest.param({"metadata": {"field": "a", "equals": "b", "extra": 1}},
                     "a metadata matcher needs a string field and exactly one of "
                     "equals/equals_field (metadata has unknown field(s) extra)",
                     id="unknown-metadata-field"),
        pytest.param({"metadata": {"field": "a", "equals": ["b"]}},
                     "a metadata matcher needs a string field and exactly one of "
                     "equals/equals_field (metadata: equals must be a string, number or boolean)",
                     id="list-equals"),
    ],
)
def test_malformed_matcher_names_backend_and_rule(tmp_path, match, message):
    rules = [{"match": "default", "reply": "<<A>>"}, {"match": match, "reply": "<<B>>"}]
    err = eval_with(tmp_path, "rules", json.dumps(rules))
    assert err == (
        f"error: {tmp_path / FILES['backends']}: entry 0: "
        f"mock backend 'mock': mock rule 1: {message}\n"
    )


def test_mock_rule_fields_are_checked_at_load(tmp_path):
    rules = [{"match": "default", "reply": "<<A>>", "defualt": True}]
    err = eval_with(tmp_path, "rules", json.dumps(rules))
    assert err == (
        f"error: {tmp_path / FILES['backends']}: entry 0: "
        "mock backend 'mock': mock rule 0 has unknown field(s) defualt\n"
    )


# -- the documented tables are the code's tables -----------------------------


def documented_tables() -> list[list[tuple[str, str]]]:
    """Every `| field | type | required |` table of docs/formats.md, in order,
    as (field name, the first word(s) of its required cell) in row order."""
    tables, rows = [], None
    for line in (ROOT / "docs" / "formats.md").read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells == ["field", "type", "required"]:
            rows = []
            tables.append(rows)
        elif rows is not None and line.startswith("|"):
            if set(cells[0]) <= set("-"):
                continue
            for name in re.findall(r"`([^`]+)`", cells[0]):
                rows.append((name, re.match(r"yes|no|one of", cells[2]).group()))
        else:
            rows = None
    return tables


def test_documented_tables_are_the_field_tables():
    # sdag.fileio defines its tables in the order docs/formats.md states them.
    tables = [table for name, table in vars(fileio).items() if name.endswith("_FIELDS")]
    assert documented_tables() == [
        [(name, required) for name, (_, required) in table.items()] for table in tables
    ]
