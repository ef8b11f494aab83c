"""tools/ab.py: its corpora, the trees it loads, its bit check and its summary."""

import json
import os
import platform
import re
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ab
from sdag.embedding import HashedEmbedder, embed_hashed
from sdag.synthetic import SyntheticConfig, dag_dataset, generate_synthetic_records

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("corpus", ab.CORPORA)
def test_every_chunk_hits_its_share_of_buckets_and_keeps_its_dags(corpus):
    data = dag_dataset(generate_synthetic_records(
        SyntheticConfig(n_questions=ab.CORPUS_SIZE, seed=ab.CORPUS_SEED)))
    for start in range(0, len(data), ab.CHUNK):
        chunk = data[start : start + ab.CHUNK]
        dealt = ab.deal(chunk, HashedEmbedder(d=256), ab.CORPORA[corpus])
        hit = np.any([embed_hashed(question) != 0 for question, _ in dealt], axis=0).sum()
        assert hit == 14 if corpus == "synthetic" else hit >= ab.CORPORA[corpus] * 256
        for (question, dag), (text, dealt_dag) in zip(chunk, dealt):
            assert dealt_dag is dag and re.fullmatch(r"( v\d+)*", text.removeprefix(question))


@pytest.mark.parametrize("corpus", ["synthetic", "dense"])
def test_a_tree_loaded_under_another_name_trains_the_bits_of_sdag(corpus):
    train, stats = ab.load(ROOT / "src" / "sdag", f"ab_test_{corpus}", corpus)
    result, reference = train(0), ab.workload("sdag", corpus)[0](0)
    assert type(result).__module__ == f"ab_test_{corpus}.router.training"
    assert ab.digest(result) == ab.digest(reference)
    assert stats["buckets_hit_per_chunk"] == [14 if corpus == "synthetic" else 256] * 20


def test_same_bits_tells_one_flipped_parameter_on_one_chunk():
    def trainer(flipped_chunk=None):
        return lambda i: SimpleNamespace(loss_curve=[0.5], params=SimpleNamespace(
            tensors={"w": np.array([-0.0 if i == flipped_chunk else 0.0, 1.0])}))

    assert ab.same_bits({"parent": trainer(), "change": trainer()})
    assert not ab.same_bits({"parent": trainer(), "change": trainer(flipped_chunk=19)})


def call(pair, side, ms, half):
    return {"pair": pair, "side": side, "half": half,
            "result": {"correct": True, "failed": 0, "metrics": {"call_ms": {"value": ms}}}}


def test_summary_gives_per_pair_ratios_by_half():
    runs = [call(1, "parent", 40.0, 0), call(1, "change", 36.0, 0),
            call(2, "change", 42.0, 0), call(2, "parent", 40.0, 0),
            call(3, "parent", 50.0, 1), call(3, "change", 45.0, 1),
            call(4, "change", 38.0, 1), call(4, "parent", 40.0, 1)]
    summary = ab.summarize_ab(runs)
    # Ratios 0.9, 1.05, 0.9 and 0.95, in pair order.
    assert summary["ratio_q1_median_q3"] == [0.9, 0.925, 0.975]
    assert summary["ratio_median_by_half"] == [0.975, 0.925]
    call_ms = summary["metrics"]["call_ms"]
    assert summary["pairs"] == 4 and call_ms["better"] == "lower"
    assert call_ms["change_wins"] == "3/4"
    assert call_ms["parent_q1_median_q3"] == [40.0, 40.0, 42.5]


def test_a_record_names_resolved_commits_and_its_environment(tmp_path, monkeypatch):
    def load(src, name, corpus):
        trainer = lambda i: SimpleNamespace(steps=1, loss_curve=[0.5],
                                            params=SimpleNamespace(tensors={"w": np.zeros(2)}))
        return trainer, {"buckets_hit_per_chunk": [14] * 20, "buckets_per_question": 3.0}

    monkeypatch.setattr(ab, "load", load)
    monkeypatch.setattr(ab, "PAIRS", 4)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    out = tmp_path / "BENCH_test.json"
    assert ab.main(["--parent", "HEAD", "--change", head[:7], "--out", str(out),
                    "--name", "test"]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))["ab"]["test"]
    assert record["parent"] == record["change"] == head
    assert record["env"] == {"python": platform.python_version(), "numpy": np.__version__,
                             "platform": platform.platform(), "cpu": record["env"]["cpu"],
                             "affinity": sorted(os.sched_getaffinity(0))}
    assert record["env"]["cpu"] and len(record["runs"]) == 8
    with pytest.raises(subprocess.CalledProcessError):
        ab.resolve("no-such-revision")
