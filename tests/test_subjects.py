"""Taxonomy, weight handling, and ground-truth graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdag.errors import EmptyAfterThreshold, UnknownSubject
from sdag.router.training import TrainSample
from sdag.subjects import (
    MAX_DAG_NODES,
    NUM_SUBJECTS,
    SUBJECTS,
    QuestionRecord,
    SDag,
    SDagEdge,
    SDagNode,
    Subject,
    build_ground_truth_dag,
    check_weights,
    dominant_subject,
    parse_subject,
    renormalize,
    validate_dag,
)

M, P, C, B, H = Subject.MATH, Subject.PHYSICS, Subject.CHEMISTRY, Subject.BIOLOGY, Subject.HISTORY


def test_taxonomy_is_closed_and_ordered():
    assert NUM_SUBJECTS == 15
    assert [s.value for s in SUBJECTS] == [
        "Math", "Physics", "Chemistry", "Law", "Engineering", "Economics",
        "Health", "Psychology", "Business", "Biology", "Philosophy",
        "Computer Science", "History", "Medicine", "Other",
    ]
    assert [s.index for s in SUBJECTS] == list(range(15))


def test_parse_subject_roundtrip_and_case():
    for s in SUBJECTS:
        assert parse_subject(s.value) is s
        assert parse_subject(s.value.upper()) is s
    assert parse_subject("math") is Subject.MATH
    assert parse_subject("  Computer Science ") is Subject.COMPUTER_SCIENCE


def test_parse_subject_rejects_unknown():
    with pytest.raises(UnknownSubject):
        parse_subject("Astrology")
    try:
        parse_subject("Astrology")
    except UnknownSubject as exc:
        assert exc.name == "Astrology"


def test_renormalize_sums_to_one_canonical_order():
    out = renormalize({P: 0.3, M: 0.1})
    assert list(out) == [M, P]
    assert out[M] == pytest.approx(0.25)
    assert out[P] == pytest.approx(0.75)
    assert sum(out.values()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        renormalize({M: 0.0})


def test_check_weights_bounds_and_finalized():
    check_weights({M: 0.5, P: 0.5})
    with pytest.raises(ValueError):
        check_weights({M: 1.5})
    with pytest.raises(ValueError):
        check_weights({M: -0.1})
    with pytest.raises(ValueError):
        check_weights({M: 0.4, P: 0.4}, finalized=True)  # sums to 0.8
    with pytest.raises(ValueError):
        check_weights({M: 1.0}, finalized=True)  # single entry
    check_weights({M: 0.6, P: 0.4}, finalized=True)


def test_ground_truth_example_plain_majority():
    g = build_ground_truth_dag({M: 0.5, P: 0.3, B: 0.2})
    assert [(n.subject, n.score) for n in g.nodes] == [(M, 0.5), (P, 0.3), (B, 0.2)]
    assert {(e.src, e.dst) for e in g.edges} == {(P, M), (B, M)}
    assert all(e.score == 1.0 for e in g.edges)


def test_ground_truth_example_threshold_drop():
    g = build_ground_truth_dag({C: 0.6, M: 0.25, B: 0.10, H: 0.05})
    scores = {n.subject: n.score for n in g.nodes}
    assert H not in scores
    assert scores[C] == pytest.approx(0.6 / 0.95)
    assert scores[M] == pytest.approx(0.25 / 0.95)
    assert scores[B] == pytest.approx(0.10 / 0.95)
    assert {(e.src, e.dst) for e in g.edges} == {(M, C), (B, C)}


def test_ground_truth_example_promotion_fallback():
    g = build_ground_truth_dag({P: 0.5, M: 0.5})
    assert {n.subject for n in g.nodes} == {M, P}
    assert g.edges == []


def test_ground_truth_at_threshold_is_kept():
    # The drop rule is strict: exactly-at-threshold weights survive.
    g = build_ground_truth_dag({M: 0.9, P: 0.1})
    assert {n.subject for n in g.nodes} == {M, P}


def test_ground_truth_drops_other_and_renormalizes():
    g = build_ground_truth_dag({M: 0.5, Subject.OTHER: 0.3, P: 0.2})
    scores = {n.subject: n.score for n in g.nodes}
    assert Subject.OTHER not in scores
    assert scores[M] == pytest.approx(0.5 / 0.7)
    assert scores[P] == pytest.approx(0.2 / 0.7)
    assert {(e.src, e.dst) for e in g.edges} == {(P, M)}


def test_ground_truth_rejects_bad_sum_and_all_below():
    with pytest.raises(ValueError):
        build_ground_truth_dag({M: 0.4, P: 0.3})
    with pytest.raises(EmptyAfterThreshold):
        build_ground_truth_dag({Subject.OTHER: 1.0})


def test_ground_truth_property_10000_random_vectors():
    # Finalized distributions hold 2-5 entries (curation truncates to the node
    # cap before graphs are built), so that is the input domain tested here.
    rng = np.random.default_rng(42)
    plantable = [s for s in SUBJECTS]
    for _ in range(10_000):
        k = int(rng.integers(2, 6))
        picks = rng.choice(len(plantable), size=k, replace=False)
        raw = rng.random(k) + 1e-3
        weights = {plantable[int(i)]: float(w / raw.sum()) for i, w in zip(picks, raw)}
        try:
            g = build_ground_truth_dag(weights)
        except EmptyAfterThreshold:
            continue  # all mass below threshold or on Other; valid refusal
        report = validate_dag(g)
        assert report.ok, report.violations
        assert len(g.nodes) <= MAX_DAG_NODES
        g.topological_order()  # acyclic
        # Bipartite supports->dominants: sources never receive, sinks never send.
        sources = {e.src for e in g.edges}
        sinks = {e.dst for e in g.edges}
        assert not (sources & sinks)
        # Node scores renormalized: sum to 1 tightly.
        assert abs(sum(n.score for n in g.nodes) - 1.0) < 1e-9
        # Every edge points from lower to higher weight.
        scores = {n.subject: n.score for n in g.nodes}
        for e in g.edges:
            assert scores[e.src] <= scores[e.dst]


def reference_ground_truth_dag(weights, threshold=0.1):
    """build_ground_truth_dag as it was written with its re-sorts, kept as the
    reference for the leaner version."""
    check_weights(weights)
    total = sum(weights.values())
    if not weights or abs(total - 1.0) > 1e-6:
        raise ValueError(f"weights must sum to 1 within {1e-6}, got {total}")
    survivors = {
        s: w
        for s, w in weights.items()
        if w >= threshold and s != Subject.OTHER
    }
    if not survivors:
        raise EmptyAfterThreshold(
            f"no subject at or above threshold {threshold} (excluding Other)"
        )
    norm = renormalize(survivors)
    k = len(norm)
    average = 1.0 / k
    dominants = [s for s, w in norm.items() if w > average]
    if not dominants:
        top = max(norm.values())
        dominants = [s for s, w in norm.items() if w == top]
    dominant_set = set(dominants)
    supporting = [s for s in norm if s not in dominant_set]
    nodes = [SDagNode(s, norm[s]) for s in sorted(norm, key=lambda s: s.index)]
    edges = [
        SDagEdge(src, dst, 1.0)
        for src in sorted(supporting, key=lambda s: s.index)
        for dst in sorted(dominants, key=lambda s: s.index)
    ]
    return SDag(nodes=nodes, edges=edges)


@st.composite
def weight_maps(draw):
    """1-6 subjects, Other among them at times, in any key order, with tied,
    sub-threshold or arbitrary raw weights, mostly normalized to sum to 1."""
    subjects = draw(st.permutations(SUBJECTS))[:draw(st.integers(1, 6))]
    raw = draw(st.lists(
        st.one_of(st.sampled_from([0.05, 0.1, 0.25, 0.25, 1.0]), st.floats(1e-3, 1.0)),
        min_size=len(subjects), max_size=len(subjects),
    ))
    total = sum(raw) if draw(st.sampled_from([True] * 5 + [False])) else 1.0
    return {s: w / total for s, w in zip(subjects, raw)}


@settings(max_examples=500, deadline=None)
@given(weights=weight_maps(), threshold=st.sampled_from([0.1, 0.0, 0.25, 0.5]))
def test_ground_truth_matches_the_reference_formula(weights, threshold):
    def outcome(build):
        try:
            return build(weights, threshold)
        except (ValueError, EmptyAfterThreshold) as exc:
            return type(exc), str(exc)

    assert outcome(build_ground_truth_dag) == outcome(reference_ground_truth_dag)


def test_validate_dag_reports():
    assert validate_dag(SDag(nodes=[SDagNode(M, 1.0)])).ok
    cyc = SDag(
        nodes=[SDagNode(M, 0.5), SDagNode(P, 0.5)],
        edges=[SDagEdge(M, P), SDagEdge(P, M)],
    )
    assert any("cycle" in v for v in validate_dag(cyc).violations)
    six = SDag(nodes=[SDagNode(s, 0.1) for s in SUBJECTS[:6]])
    assert any("nodes" in v for v in validate_dag(six).violations)
    self_loop = SDag(nodes=[SDagNode(M, 1.0)], edges=[SDagEdge(M, M)])
    assert any("self-loop" in v for v in validate_dag(self_loop).violations)
    dangling = SDag(nodes=[SDagNode(M, 1.0)], edges=[SDagEdge(P, M)])
    assert any("endpoint" in v for v in validate_dag(dangling).violations)
    dup_edge = SDag(
        nodes=[SDagNode(M, 0.5), SDagNode(P, 0.5)],
        edges=[SDagEdge(P, M), SDagEdge(P, M)],
    )
    assert any("duplicate edge" in v for v in validate_dag(dup_edge).violations)
    bad_score = SDag(nodes=[SDagNode(M, 1.5)])
    assert any("score" in v for v in validate_dag(bad_score).violations)
    assert not validate_dag(SDag()).ok


def test_topological_order_deterministic_ties():
    g = SDag(
        nodes=[SDagNode(B, 0.25), SDagNode(P, 0.25), SDagNode(M, 0.5)],
        edges=[SDagEdge(B, M), SDagEdge(P, M)],
    )
    assert g.topological_order() == [P, B, M]


def test_to_labels_shapes():
    g = build_ground_truth_dag({M: 0.5, P: 0.3, B: 0.2})
    sample = TrainSample.from_dag(np.zeros(1), g)
    s_vec, a_mat = sample.node_labels, sample.edge_labels
    assert s_vec.shape == (15,) and a_mat.shape == (15, 15)
    assert s_vec[M.index] == s_vec[P.index] == s_vec[B.index] == 1
    assert s_vec.sum() == 3
    assert a_mat[P.index, M.index] == 1
    assert a_mat[B.index, M.index] == 1
    assert a_mat.sum() == 2


def test_dominant_subject_tie_breaks_canonically():
    assert dominant_subject({M: 0.6, P: 0.4}) is M
    assert dominant_subject({P: 0.5, M: 0.5}) is M
    assert dominant_subject({H: 0.5, B: 0.5}) is B
    with pytest.raises(ValueError):
        dominant_subject({})


def test_question_record_validation():
    r = QuestionRecord(id="q1", question="What?", options=["a", "b"], gold="B")
    assert r.wrong_label() == "A"
    assert r.formatted_options() == "A. a\nB. b"
    with pytest.raises(ValueError):
        QuestionRecord(id="", question="x", options=["a"], gold="A")
    with pytest.raises(ValueError):
        QuestionRecord(id="q", question="", options=["a"], gold="A")
    with pytest.raises(ValueError):
        QuestionRecord(id="q", question="x", options=[], gold="A")
    with pytest.raises(ValueError):
        QuestionRecord(id="q", question="x", options=["a"], gold="B")
    with pytest.raises(ValueError):
        QuestionRecord(id="q", question="x", options=["a"], gold="A", split="validation")
