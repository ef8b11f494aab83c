"""DAG assembly from router probabilities: thresholds, cap, repair."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sdag.embedding import HashedEmbedder
from sdag.router.generation import GenerationConfig, assemble_dag, generate_sdag, kept_nodes
from sdag.router.model import RouterDims, RouterParams, init_params, route
from sdag.subjects import MAX_DAG_NODES, SUBJECTS, Subject, validate_dag

M, P, B = Subject.MATH, Subject.PHYSICS, Subject.BIOLOGY


def subject_probs(mapping) -> np.ndarray:
    probs = np.full(15, 0.1)
    for s, p in mapping.items():
        probs[s.index] = p
    return probs


def edge_matrix(mapping) -> np.ndarray:
    mat = np.zeros((15, 15))
    for (src, dst), p in mapping.items():
        mat[src.index, dst.index] = p
    return mat


def test_config_guards():
    with pytest.raises(ValueError):
        GenerationConfig(node_threshold=1.0)
    with pytest.raises(ValueError):
        GenerationConfig(edge_threshold=-0.1)


def test_threshold_and_repair_example():
    # Math 0.9 and Physics 0.7 survive; the repair keeps Physics->Math
    # (0.7 < 0.9) and drops Math->Physics (0.9 is not below 0.7).
    node_probs = subject_probs({M: 0.9, P: 0.7})
    edge_probs = edge_matrix({(P, M): 0.8, (M, P): 0.6})
    g = assemble_dag(node_probs, edge_probs, GenerationConfig())
    assert [(n.subject, n.score) for n in g.nodes] == [(M, 0.9), (P, 0.7)]
    assert [(e.src, e.dst) for e in g.edges] == [(P, M)]
    assert g.edges[0].score == pytest.approx(0.8)


def test_fallback_single_best_node():
    node_probs = subject_probs({B: 0.4})  # everything below threshold
    g = assemble_dag(node_probs, np.zeros((15, 15)), GenerationConfig())
    assert [n.subject for n in g.nodes] == [B]
    assert g.edges == []


def test_cap_keeps_top_five():
    seven = {s: 0.6 + 0.01 * i for i, s in enumerate(SUBJECTS[:7])}
    g = assemble_dag(subject_probs(seven), np.zeros((15, 15)), GenerationConfig())
    assert len(g.nodes) == MAX_DAG_NODES
    top5 = sorted(seven, key=lambda s: -seven[s])[:5]
    assert {n.subject for n in g.nodes} == set(top5)


def test_cap_tie_breaks_canonically():
    # Six equal probabilities: the five canonically-first subjects stay.
    six = {s: 0.8 for s in SUBJECTS[:6]}
    g = assemble_dag(subject_probs(six), np.zeros((15, 15)), GenerationConfig())
    assert [n.subject for n in g.nodes] == list(SUBJECTS[:5])


def test_other_is_dropped_after_cap():
    probs = subject_probs({M: 0.9, Subject.OTHER: 0.95})
    g = assemble_dag(probs, np.zeros((15, 15)), GenerationConfig())
    assert [n.subject for n in g.nodes] == [M]


def test_other_only_survivor_promotes_best_real_subject():
    probs = subject_probs({Subject.OTHER: 0.9})
    probs[Subject.OTHER.index] = 0.9  # only Other clears threshold
    g = assemble_dag(probs, np.zeros((15, 15)), GenerationConfig())
    assert len(g.nodes) == 1
    assert g.nodes[0].subject is not Subject.OTHER


def test_equal_prob_edge_repair_uses_canonical_order():
    node_probs = subject_probs({M: 0.8, P: 0.8})
    edge_probs = edge_matrix({(M, P): 0.9, (P, M): 0.9})
    g = assemble_dag(node_probs, edge_probs, GenerationConfig())
    # Equal scores: only the canonically-forward edge survives.
    assert [(e.src, e.dst) for e in g.edges] == [(M, P)]


def test_edges_only_among_kept_nodes():
    node_probs = subject_probs({M: 0.9, P: 0.7})
    edge_probs = edge_matrix({(B, M): 0.99, (P, M): 0.9})  # B not kept
    g = assemble_dag(node_probs, edge_probs, GenerationConfig())
    assert [(e.src, e.dst) for e in g.edges] == [(P, M)]


def test_edge_threshold_is_strict():
    node_probs = subject_probs({M: 0.9, P: 0.7})
    edge_probs = edge_matrix({(P, M): 0.5})
    g = assemble_dag(node_probs, edge_probs, GenerationConfig())
    assert g.edges == []


def test_generated_dag_always_valid_1000_draws():
    rng = np.random.default_rng(0)
    emb = HashedEmbedder(d=16)
    dims = RouterDims(d_s=4, d_q=16, h=4, L=1)
    texts = ["math physics", "law history biology", "x y z", ""]
    for trial in range(1000):
        params = init_params(dims, seed=trial, scale=float(rng.uniform(0.05, 2.0)))
        g = generate_sdag(texts[trial % len(texts)], params, emb)
        report = validate_dag(g)
        assert report.ok, report.violations
        assert 1 <= len(g.nodes) <= MAX_DAG_NODES
        assert all(n.subject is not Subject.OTHER for n in g.nodes)
        g.topological_order()


def near(threshold: float):
    """Probabilities exactly at a threshold, one ulp either side, or anywhere."""
    return st.one_of(
        st.sampled_from([
            threshold,
            float(np.nextafter(threshold, 0.0)),
            float(np.nextafter(threshold, 1.0)),
            0.0,
            1.0,
        ]),
        st.floats(min_value=0.0, max_value=1.0),
    )


THRESHOLDS = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), node_threshold=THRESHOLDS, edge_threshold=THRESHOLDS)
def test_assembled_dag_always_valid(data, node_threshold, edge_threshold):
    node_probs = data.draw(arrays(np.float64, 15, elements=near(node_threshold)))
    edge_probs = data.draw(arrays(np.float64, (15, 15), elements=near(edge_threshold)))
    config = GenerationConfig(node_threshold=node_threshold, edge_threshold=edge_threshold)
    g = assemble_dag(node_probs, edge_probs, config)
    report = validate_dag(g)
    assert report.ok, report.violations
    assert 1 <= len(g.nodes) <= MAX_DAG_NODES
    assert all(n.subject is not Subject.OTHER for n in g.nodes)
    assert all(e.score > edge_threshold for e in g.edges)
    g.topological_order()


def test_logit_ordering_invariant_under_head_scaling():
    # Scaling the node head's final linear layer (weights and bias jointly)
    # by a positive constant rescales logits monotonically: the argsort of
    # node logits never changes.
    dims = RouterDims(d_s=8, d_q=16, h=8, L=2)
    emb = HashedEmbedder(d=16)
    h_q = emb.embed("math physics chemistry")
    for seed in range(20):
        params = init_params(dims, seed=seed)
        base = route(params, h_q)
        for c in (0.5, 2.0, 10.0):
            scaled = RouterParams(dims, {
                **params.tensors,
                "node_head.w2": params.tensors["node_head.w2"] * c,
                "node_head.b2": params.tensors["node_head.b2"] * c,
            })
            out = route(scaled, h_q)
            assert np.array_equal(
                np.argsort(base.node_logits, kind="stable"),
                np.argsort(out.node_logits, kind="stable"),
            )


def test_generate_sdag_uses_embedder(monkeypatch):
    emb = HashedEmbedder(d=16)
    dims = RouterDims(d_s=4, d_q=16, h=4, L=1)
    params = init_params(dims, seed=0)
    calls = []
    original = emb.embed

    def spy(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(emb, "embed", spy)
    generate_sdag("math and physics", params, emb)
    assert calls == ["math and physics"]


BENCH_DIMS = RouterDims(d_s=32, d_q=256, h=64, L=2)
WORDS = [s.value.lower() for s in SUBJECTS] + ["tube", "contract", "cell", "proof"]


@functools.lru_cache(maxsize=None)
def bench_router(seed: int):
    return init_params(BENCH_DIMS, seed=seed)


# Untrained routers score nodes and edges near 0.5, so thresholds there split
# them; 0.99 leaves a single fallback node.
NEAR_HALF = st.floats(0.47, 0.53) | st.sampled_from([0.0, 0.5, 0.99])


@settings(max_examples=150, deadline=None)
@given(
    words=st.lists(st.sampled_from(WORDS), max_size=12),
    seed=st.integers(0, 7),
    node_threshold=NEAR_HALF,
    edge_threshold=NEAR_HALF,
)
def test_generate_sdag_matches_assembly_over_full_grid(words, seed, node_threshold, edge_threshold):
    # generate_sdag scores edge rows only for the kept subjects; the DAG must
    # be the one assembled from the full grid, scores included, bit for bit.
    question = " ".join(words)
    params = bench_router(seed)
    emb = HashedEmbedder(d=BENCH_DIMS.d_q)
    config = GenerationConfig(node_threshold=node_threshold, edge_threshold=edge_threshold)
    full = route(params, emb.embed(question))
    expected = assemble_dag(full.node_probs, full.edge_probs, config)
    assert generate_sdag(question, params, emb, config) == expected


@settings(max_examples=100, deadline=None)
@given(
    words=st.lists(st.sampled_from(WORDS), max_size=12),
    seed=st.integers(0, 7),
    node_threshold=NEAR_HALF,
    edge_threshold=NEAR_HALF,
)
def test_generate_sdag_without_edges_keeps_the_same_nodes(
    words, seed, node_threshold, edge_threshold
):
    question = " ".join(words)
    params = bench_router(seed)
    emb = HashedEmbedder(d=BENCH_DIMS.d_q)
    config = GenerationConfig(node_threshold=node_threshold, edge_threshold=edge_threshold)
    with_edges = generate_sdag(question, params, emb, config)
    nodes_only = generate_sdag(question, params, emb, config, edges=False)
    assert nodes_only.nodes == with_edges.nodes
    assert nodes_only.edges == []


@settings(max_examples=60, deadline=None)
@given(
    dims=st.builds(
        RouterDims, d_s=st.integers(1, 8), d_q=st.integers(2, 24), h=st.integers(1, 24),
        L=st.integers(1, 3), activation=st.sampled_from(["relu", "linear"]),
    ),
    questions=st.lists(st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
                       min_size=1, max_size=64),
    seed=st.integers(0, 2**16),
    # Untrained routers score near 0.5: these keep from 5 (the cap) down to 1.
    node_threshold=st.floats(0.4, 0.6) | st.sampled_from([0.0, 0.99]),
    edge_threshold=NEAR_HALF,
)
def test_stacked_routing_matches_per_question_bit_for_bit(
    dims, questions, seed, node_threshold, edge_threshold
):
    params = init_params(dims, seed=seed)
    emb = HashedEmbedder(d=dims.d_q)
    config = GenerationConfig(node_threshold=node_threshold, edge_threshold=edge_threshold)
    stacked = route(params, np.stack([emb.embed(q) for q in questions]))
    kept = [kept_nodes(p, config) for p in stacked.node_probs]
    grids = stacked.edge_rows(kept)
    expected = []
    for i, question in enumerate(questions):
        alone = route(params, emb.embed(question))
        for name in ("node_logits", "node_probs", "edge_logits", "edge_probs"):
            assert getattr(stacked, name)[i].tobytes() == getattr(alone, name).tobytes(), name
        rows = kept[i]
        assert 1 <= len(rows) <= MAX_DAG_NODES
        assert grids[i][rows].tobytes() == alone.edge_probs[rows].tobytes()
        expected.append(assemble_dag(alone.node_probs, alone.edge_probs, config))
    assert generate_sdag(questions, params, emb, config) == expected


def test_generate_sdag_of_no_questions_is_empty():
    params = init_params(RouterDims(d_s=2, d_q=4, h=2, L=1), seed=0)
    assert generate_sdag([], params, HashedEmbedder(d=4)) == []
