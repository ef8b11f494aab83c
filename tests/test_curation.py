"""Annotation parsing, consensus filtering, split assignment, and JSONL IO."""

import itertools
import logging
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdag.backends import BackendConfig, build_client
from sdag.curation import (
    CurationConfig,
    assign_splits,
    consensus_merge,
    curate_dataset,
    parse_annotation_reply,
    read_records,
    render_annotation_prompt,
    write_records,
)
from sdag.errors import (
    InvalidWeight,
    NoConsensus,
    ParseFailure,
    SdagError,
    TransportError,
)
from sdag.subjects import SUBJECTS, QuestionRecord, Subject, renormalize

M, P, C, B = Subject.MATH, Subject.PHYSICS, Subject.CHEMISTRY, Subject.BIOLOGY


def make_record(rid, question="what is 2+2?"):
    return QuestionRecord(
        id=rid, question=question, options=["1", "2", "3", "4"], gold="A"
    )


def annotator_client(script):
    return build_client(
        [BackendConfig(name="annotator", kind="mock", script=script, seed=0)]
    )


# -- prompt -----------------------------------------------------------------


def test_prompt_contains_question_and_taxonomy():
    text = render_annotation_prompt(make_record("q1", "Why is the sky blue?"))
    assert "Question: Why is the sky blue?" in text
    assert "Candidate keywords:" in text
    assert "Computer Science" in text
    assert "Keywords: <Math 0.6>, <Physics 0.3>, <Chemistry 0.1>" in text


def test_prompt_does_not_escape():
    text = render_annotation_prompt('has "quotes" & <brackets>')
    assert 'has "quotes" & <brackets>' in text


def test_prompt_rejects_empty_question():
    with pytest.raises(ValueError):
        render_annotation_prompt("")


# -- reply parsing ----------------------------------------------------------


def test_parse_format_example():
    weights = parse_annotation_reply("Keywords: <Math 0.6>, <Physics 0.3>, <Chemistry 0.1>")
    assert set(weights) == {M, P, C}
    assert weights[M] == pytest.approx(0.6, rel=1e-12)
    assert weights[P] == pytest.approx(0.3, rel=1e-12)
    assert weights[C] == pytest.approx(0.1, rel=1e-12)


def test_parse_duplicate_subject_keeps_last_and_renormalizes():
    assert parse_annotation_reply("<Math 0.5>, <Math 0.5>") == {M: 1.0}


def test_parse_no_groups_fails():
    with pytest.raises(ParseFailure):
        parse_annotation_reply("The answer is 42")


def test_parse_uses_tail_after_last_marker():
    reply = "<Law 1.0> draft. Keywords: <Math 0.5>, <Physics 0.5>"
    weights = parse_annotation_reply(reply)
    assert set(weights) == {M, P}
    assert weights[M] == pytest.approx(0.5)


def test_parse_skips_unknown_subject_names():
    weights = parse_annotation_reply("Keywords: <Math 0.3>, <Astrology 0.4>, <Physics 0.3>")
    assert set(weights) == {M, P}
    assert weights[M] == pytest.approx(0.5)


def test_parse_case_insensitive_names():
    weights = parse_annotation_reply("Keywords: <math 0.6>, <PHYSICS 0.4>")
    assert set(weights) == {M, P}


def test_parse_renormalizes_bad_sum():
    weights = parse_annotation_reply("Keywords: <Math 0.6>, <Physics 0.6>")
    assert weights[M] == pytest.approx(0.5)
    assert weights[P] == pytest.approx(0.5)


def test_parse_rejects_weight_above_one():
    with pytest.raises(InvalidWeight):
        parse_annotation_reply("Keywords: <Math 1.5>")


def test_parse_rejects_all_zero_weights():
    with pytest.raises(ParseFailure):
        parse_annotation_reply("Keywords: <Math 0>, <Physics 0.0>")


REPLY_TOKENS = [s.value for s in SUBJECTS] + list("0123456789<>.e- ") + ["Keywords:"]


@settings(max_examples=500, deadline=None)
@given(reply=st.lists(st.sampled_from(REPLY_TOKENS), max_size=40).map("".join))
@example(reply="Keywords:<Math 1e999>")
@example(reply="<Law 0.5><Math 5e-324>")
def test_parse_raises_only_designated_errors(reply):
    try:
        weights = parse_annotation_reply(reply)
    except (ParseFailure, InvalidWeight):
        return
    assert weights and all(isinstance(s, Subject) for s in weights)
    assert all(0.0 <= w <= 1.0 for w in weights.values())
    assert math.isclose(sum(weights.values()), 1.0, rel_tol=1e-9)


# -- consensus --------------------------------------------------------------


def test_consensus_identical_rounds():
    runs = [{M: 0.5, P: 0.5}] * 3
    assert consensus_merge(runs) == {M: 0.5, P: 0.5}


def test_consensus_intersection_and_mean():
    runs = [{M: 0.5, P: 0.5}, {M: 0.6, P: 0.2, B: 0.2}, {M: 0.7, P: 0.3}]
    merged = consensus_merge(runs)
    assert set(merged) == {M, P}
    # means: M 0.6, P 1/3; renormalized to 9/14 and 5/14
    assert merged[M] == pytest.approx(9.0 / 14.0, rel=1e-12)
    assert merged[P] == pytest.approx(5.0 / 14.0, rel=1e-12)


def test_consensus_sums_in_canonical_order():
    # Set iteration order follows the members' hashes, which differ between
    # processes; a float sum in that order would make curated weights differ
    # in the last bit from run to run.
    rng = random.Random(0)
    for _ in range(300):
        subjects = rng.sample(SUBJECTS, 5)
        runs = []
        for _ in range(3):
            weights = [rng.random() for _ in subjects]
            runs.append({s: w / sum(weights) for s, w in zip(subjects, weights)})
        canonical = sorted(subjects, key=lambda s: s.index)
        means = [sum(run[s] for run in runs) / 3 for s in canonical]
        total = sum(means)
        expected = {s: m / total for s, m in zip(canonical, means)}
        assert list(consensus_merge(runs).items()) == list(expected.items())


@st.composite
def annotation_rounds(draw):
    """Three renormalized rounds over overlapping subject sets."""
    subjects = st.sets(st.sampled_from(SUBJECTS), min_size=1, max_size=6)
    weight = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    return [
        renormalize({s: draw(weight) for s in draw(subjects)}) for _ in range(3)
    ]


@settings(max_examples=300, deadline=None)
@given(runs=annotation_rounds())
def test_consensus_does_not_depend_on_round_order(runs):
    # The means are summed in round order (pinned above), so the weights may
    # differ between orders by a few units in the last place, never more.
    results = []
    for order in itertools.permutations(runs):
        try:
            results.append(consensus_merge(list(order)))
        except NoConsensus:
            results.append(None)
    first = results[0]
    for other in results[1:]:
        if first is None:
            assert other is None
            continue
        assert list(other) == list(first)
        for s, w in first.items():
            assert math.isclose(other[s], w, rel_tol=32 * sys.float_info.epsilon,
                                abs_tol=2 * math.ulp(0.0)), s


def test_consensus_requires_three_rounds():
    with pytest.raises(ValueError):
        consensus_merge([{M: 1.0}] * 2)


def test_consensus_disjoint_rounds_fails():
    with pytest.raises(NoConsensus):
        consensus_merge([{M: 1.0}, {P: 1.0}, {M: 1.0}])


def test_consensus_two_of_three_never_appears():
    import numpy as np

    rng = np.random.default_rng(7)
    subjects = list(Subject)
    for _ in range(50):
        runs = []
        for _ in range(3):
            picks = rng.choice(len(subjects), size=int(rng.integers(2, 6)), replace=False)
            raw = {subjects[i]: float(rng.uniform(0.1, 1.0)) for i in picks}
            total = sum(raw.values())
            runs.append({s: w / total for s, w in raw.items()})
        shared = set(runs[0]) & set(runs[1]) & set(runs[2])
        if not shared:
            with pytest.raises(NoConsensus):
                consensus_merge(runs)
            continue
        merged = consensus_merge(runs)
        assert set(merged) == shared
        for s in Subject:
            if any(s not in run for run in runs):
                assert s not in merged
        assert abs(sum(merged.values()) - 1.0) <= 1e-9


# -- curate_dataset ---------------------------------------------------------


def test_curate_retains_consistent_annotation():
    client = annotator_client(
        [{"reply": "Keywords: <Math 0.5>, <Physics 0.3>, <Biology 0.2>"}]
    )
    cfg = CurationConfig(seed=0, profiling_size=0)
    out = curate_dataset([make_record("q1")], client, cfg)
    assert len(out.records) == 1
    assert out.skipped == []
    rec = out.records[0]
    assert set(rec.subjects) == {M, P, B}
    assert rec.subjects[M] == pytest.approx(0.5, rel=1e-12)
    assert rec.split in ("train", "test", "profiling")
    # three annotation rounds for one question
    assert client.counter.total == 3


def test_curate_skips_single_subject():
    client = annotator_client([{"reply": "Keywords: <Math 1.0>"}])
    out = curate_dataset([make_record("q1")], client, CurationConfig(profiling_size=0))
    assert out.records == []
    assert out.skipped == [("q1", "single_subject")]


def test_curate_skips_unparseable():
    client = annotator_client([{"reply": "The answer is 42"}])
    out = curate_dataset([make_record("q1")], client, CurationConfig(profiling_size=0))
    assert out.records == []
    assert out.skipped == [("q1", "parse")]


def test_curate_skips_no_consensus():
    script = [
        {"match": {"metadata": {"field": "round", "equals": "1"}}, "reply": "Keywords: <Biology 0.6>, <Chemistry 0.4>"},
        {"reply": "Keywords: <Math 0.5>, <Physics 0.5>"},
    ]
    out = curate_dataset(
        [make_record("q1")], annotator_client(script), CurationConfig(profiling_size=0)
    )
    assert out.records == []
    assert out.skipped == [("q1", "no_consensus")]


class FlakyClient:
    """Wraps a real client; injects a transport failure for chosen ids."""

    def __init__(self, inner, fail_ids):
        self.inner = inner
        self.fail_ids = fail_ids

    def complete(self, req):
        if req.metadata.get("question_id") in self.fail_ids:
            raise TransportError("injected failure", attempts=3)
        return self.inner.complete(req)


def test_curate_skips_transport_failures():
    inner = annotator_client([{"reply": "Keywords: <Math 0.5>, <Physics 0.5>"}])
    client = FlakyClient(inner, {"q-fail"})
    out = curate_dataset(
        [make_record("q-fail"), make_record("q-ok")],
        client,
        CurationConfig(profiling_size=0),
    )
    assert [r.id for r in out.records] == ["q-ok"]
    assert out.skipped == [("q-fail", "transport")]


def test_curate_all_single_subject_keeps_nothing():
    client = annotator_client([{"reply": "Keywords: <History 1.0>"}])
    raw = [make_record(f"q{i:02d}") for i in range(10)]
    out = curate_dataset(raw, client, CurationConfig(profiling_size=0))
    assert out.records == []
    assert len(out.skipped) == 10
    assert out.stats["kept"] == 0
    assert out.stats["input"] == 10


def test_curate_truncation_warning(caplog):
    client = annotator_client([{"reply": "Keywords: <Math 0.5>, <Physics 0.5>"}])
    raw = [make_record(f"q{i:02d}") for i in range(5)]
    with caplog.at_level(logging.WARNING, logger="sdag.curation"):
        out = curate_dataset(raw, client, CurationConfig(profiling_size=200))
    assert any("truncated" in r.message for r in caplog.records)
    assert out.stats["splits"]["profiling"] == 5


def test_curate_is_deterministic(tmp_path):
    def run(path):
        client = annotator_client(
            [{"reply": "Keywords: <Math 0.5>, <Physics 0.3>, <Biology 0.2>"}]
        )
        raw = [make_record(f"q{i:02d}") for i in range(8)]
        out = curate_dataset(raw, client, CurationConfig(seed=4, profiling_size=2))
        write_records(out.records, path)
        return out

    a = run(tmp_path / "a.jsonl")
    b = run(tmp_path / "b.jsonl")
    assert [r.split for r in a.records] == [r.split for r in b.records]
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_curate_rejects_empty_and_duplicate_input():
    client = annotator_client([{"reply": "Keywords: <Math 0.5>, <Physics 0.5>"}])
    with pytest.raises(ValueError):
        curate_dataset([], client)
    with pytest.raises(ValueError):
        curate_dataset([make_record("dup"), make_record("dup")], client)


# -- split assignment -------------------------------------------------------


def annotated(rid):
    return QuestionRecord(
        id=rid, question="q", options=["a", "b"], gold="A", subjects={M: 0.6, P: 0.4}
    )


def test_assign_splits_default_sizes():
    records = [annotated(f"r{i:02d}") for i in range(10)]
    cfg = CurationConfig(seed=0, profiling_size=3, train_ratio=0.7)
    out = assign_splits(records, cfg)
    counts = {name: sum(1 for r in out if r.split == name) for name in ("train", "test", "profiling")}
    assert counts == {"profiling": 3, "train": 5, "test": 2}


def test_assign_splits_partition_is_disjoint_and_total():
    records = [annotated(f"r{i:02d}") for i in range(23)]
    out = assign_splits(records, CurationConfig(seed=1, profiling_size=5))
    assert sorted(r.id for r in out) == sorted(r.id for r in records)
    assert all(r.split in ("train", "test", "profiling") for r in out)


def test_assign_splits_profiling_from_test():
    records = [annotated(f"r{i:02d}") for i in range(10)]
    cfg = CurationConfig(seed=0, profiling_size=2, train_ratio=0.7, profiling_from_test=True)
    out = assign_splits(records, cfg)
    counts = {name: sum(1 for r in out if r.split == name) for name in ("train", "test", "profiling")}
    assert counts == {"train": 7, "profiling": 2, "test": 1}


@pytest.mark.parametrize(
    "from_test, size, splits, warning",
    [
        (False, 3, "TPTTTETTEPEP", None),
        (False, 20, "PPPPPPPPPPPP",
         "profiling split truncated to 12 (dataset has only 12 records)"),
        (True, 3, "PTTTTPTTETPT", None),
        (True, 20, "PTTTTPTTPTPT",
         "profiling split truncated to 4 (test portion has only 4 records)"),
    ],
)
def test_assign_splits_pins_each_id(caplog, from_test, size, splits, warning):
    # `splits` spells r00..r11's split: T(rain), E (test) or P(rofiling).
    records = [annotated(f"r{i:02d}") for i in range(12)]
    cfg = CurationConfig(seed=5, profiling_size=size, profiling_from_test=from_test)
    with caplog.at_level(logging.WARNING, logger="sdag.curation"):
        out = assign_splits(list(reversed(records)), cfg)
    letter = {"train": "T", "test": "E", "profiling": "P"}
    assert [r.id for r in out] == [r.id for r in records]
    assert "".join(letter[r.split] for r in out) == splits
    assert [r.message for r in caplog.records] == ([warning] if warning else [])
    assert all(r.subjects == {M: 0.6, P: 0.4} and r.options == ["a", "b"] for r in out)


def test_assign_splits_order_independent():
    records = [annotated(f"r{i:02d}") for i in range(12)]
    cfg = CurationConfig(seed=9, profiling_size=4)
    fwd = assign_splits(records, cfg)
    rev = assign_splits(list(reversed(records)), cfg)
    assert {r.id: r.split for r in fwd} == {r.id: r.split for r in rev}


# -- JSONL ------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    records = [
        annotated("r1"),
        QuestionRecord(id="r2", question="q2", options=["x", "y"], gold="B", split="test"),
    ]
    path = tmp_path / "data.jsonl"
    write_records(records, path)
    assert read_records(path) == records


def test_read_records_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "r1"\n', encoding="utf-8")
    with pytest.raises(SdagError):
        read_records(path)


def test_read_records_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "r1", "question": "q"}\n', encoding="utf-8")
    with pytest.raises(SdagError):
        read_records(path)
