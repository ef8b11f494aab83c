"""Acceptance suite: ten checks covering gradients, masking, learnability,
ground-truth DAGs, call counts, profiling, routing value, consensus,
end-to-end determinism, and persistence. Each check prints one summary line.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from conftest import (
    N_TRAIN,
    SPECIALTIES,
    TRAIN_EPOCHS,
    make_profiling_records,
    oracle_backend_configs,
    oracle_client,
    oracle_pool,
)
from sdag.backends import BackendConfig, build_client
from sdag.cli import main as cli_main
from sdag.curation import consensus_merge, write_records
from sdag.errors import CorruptCheckpoint, CorruptProfileStore, VersionMismatch
from sdag.evaluation import EvalConfig, evaluate, render_report
from sdag.orchestrator import execute_dag, execute_fcg
from sdag.profiling import (
    ModelProfile,
    ProfileStore,
    load_profiles,
    run_profiling,
    save_profiles,
    select_model,
)
from sdag.router.checkpoint import load_checkpoint, save_checkpoint
from sdag.router.generation import generate_sdag
from sdag.router.loss import (
    logit_gradients,
    loss_and_gradients,
    loss_for_dag_output,
    masked_bce_loss,
)
from sdag.router.model import (
    PAIR_DST,
    PAIR_SRC,
    ForwardTape,
    RouterDims,
    init_params,
    route,
)
from sdag.subjects import (
    NUM_SUBJECTS,
    SUBJECTS,
    Subject,
    build_ground_truth_dag,
    validate_dag,
)

REL_TOL = 1e-4
FD_STEP = 1e-5
# Components smaller than this floor are dominated by float64 finite-difference
# noise (about 1e-9 absolute on a loss of size ~30); below it the comparison is
# effectively absolute at REL_TOL * GRAD_FLOOR = 1e-8.
GRAD_FLOOR = 1e-4

GRADCHECK_DIMS = RouterDims(d_s=8, d_q=8, h=8, L=2)
# Scale and seed keep every relu preactivation at least 5e-5 from zero across
# all 20 draws, so the 1e-5 finite-difference step never crosses a kink; the
# guard below fails loudly if a code change moves the forward pass.
GRADCHECK_SCALE = 0.3
GRADCHECK_SEED = 26
KINK_MARGIN = 5e-5

MEAN_OP = (np.ones((NUM_SUBJECTS, NUM_SUBJECTS)) - np.eye(NUM_SUBJECTS)) / (NUM_SUBJECTS - 1)


def criterion(num, ok, detail):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def gradcheck_draws():
    params = init_params(GRADCHECK_DIMS, seed=GRADCHECK_SEED, scale=GRADCHECK_SCALE)
    rng = np.random.default_rng(GRADCHECK_SEED + 1000)
    pairs = []
    for _ in range(20):
        h_q = rng.standard_normal(GRADCHECK_DIMS.d_q)
        node_labels = (rng.random(NUM_SUBJECTS) < 0.3).astype(float)
        edge_labels = (rng.random((NUM_SUBJECTS, NUM_SUBJECTS)) < 0.2).astype(float)
        np.fill_diagonal(edge_labels, 0.0)
        pairs.append((h_q, node_labels, edge_labels))
    return params, pairs


def min_relu_preactivation(params, h_q):
    p = params.tensors
    fused = np.concatenate(
        [p["subject_embeddings"], np.tile(h_q, (NUM_SUBJECTS, 1))], axis=1
    )
    pre = fused @ p["init.w"] + p["init.b"]
    mins = [np.abs(pre).min()]
    x = np.maximum(pre, 0.0)
    for layer in range(params.dims.L):
        nm = MEAN_OP @ x
        pre = (
            x @ p[f"mp{layer}.w_self"]
            + nm @ p[f"mp{layer}.w_in"]
            + nm @ p[f"mp{layer}.w_out"]
            + p[f"mp{layer}.b"]
        )
        mins.append(np.abs(pre).min())
        x = np.maximum(pre, 0.0)
    mins.append(np.abs(x @ p["node_head.w1"] + p["node_head.b1"]).min())
    pair_in = np.concatenate(
        [x[PAIR_SRC], x[PAIR_DST], np.tile(h_q, (len(PAIR_SRC), 1))], axis=1
    )
    mins.append(np.abs(pair_in @ p["edge_head.w1"] + p["edge_head.b1"]).min())
    return min(mins)


def test_criterion_01_gradient_check():
    params, pairs = gradcheck_draws()
    margin = min(min_relu_preactivation(params, h_q) for h_q, _, _ in pairs)
    assert margin > KINK_MARGIN, f"draws too close to a relu kink: {margin:.2e}"

    started = time.monotonic()
    worst = 0.0
    for h_q, node_labels, edge_labels in pairs:
        _, grads = loss_and_gradients(params, h_q, node_labels, edge_labels)
        for name, tensor in params.tensors.items():
            flat = tensor.reshape(-1)
            gflat = grads[name].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + FD_STEP
                hi = loss_for_dag_output(params, h_q, node_labels, edge_labels)
                flat[idx] = orig - FD_STEP
                lo = loss_for_dag_output(params, h_q, node_labels, edge_labels)
                flat[idx] = orig
                numeric = (hi - lo) / (2.0 * FD_STEP)
                analytic = gflat[idx]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), GRAD_FLOOR)
                worst = max(worst, rel)
    elapsed = time.monotonic() - started
    criterion(
        1,
        worst <= REL_TOL and elapsed < 30.0,
        f"max rel err {worst:.2e} (tol {REL_TOL:.0e}), {elapsed:.1f}s (cap 30s)",
    )


def test_criterion_02_masked_pairs_are_inert():
    params = init_params(GRADCHECK_DIMS, seed=3)
    rng = np.random.default_rng(7)
    h_q = rng.standard_normal(GRADCHECK_DIMS.d_q)
    node_labels = np.zeros(NUM_SUBJECTS)
    node_labels[[0, 1, 2]] = 1.0
    edge_labels = np.zeros((NUM_SUBJECTS, NUM_SUBJECTS))
    edge_labels[1, 0] = edge_labels[2, 0] = 1.0

    masked = [
        (i, j)
        for i in range(NUM_SUBJECTS)
        for j in range(NUM_SUBJECTS)
        if i != j and node_labels[i] == 0 and node_labels[j] == 0
    ]
    assert len(masked) == 12 * 11

    output = route(params, h_q)
    base = masked_bce_loss(output, node_labels, edge_labels)
    loss_shift = 0.0
    for i, j in masked:
        kept = output.edge_probs[i, j]
        for prob in (0.01, 0.99):
            output.edge_probs[i, j] = prob
            loss_shift = max(loss_shift, abs(masked_bce_loss(output, node_labels, edge_labels) - base))
        output.edge_probs[i, j] = kept

    _, _, d_edge = logit_gradients(ForwardTape(params, h_q), node_labels, edge_labels)
    pair_grads = d_edge[PAIR_SRC, PAIR_DST]
    masked_pair_rows = [
        k for k in range(len(PAIR_SRC)) if (int(PAIR_SRC[k]), int(PAIR_DST[k])) in set(masked)
    ]
    max_masked_grad = max(abs(pair_grads[k]) for k in masked_pair_rows)

    value, grads = loss_and_gradients(params, h_q, node_labels, edge_labels)
    flipped = edge_labels.copy()
    for i, j in masked:
        flipped[i, j] = 1.0
    value_flipped, grads_flipped = loss_and_gradients(params, h_q, node_labels, flipped)
    grads_equal = all(np.array_equal(grads[k], grads_flipped[k]) for k in grads)

    ok = loss_shift == 0.0 and max_masked_grad == 0.0 and value == value_flipped and grads_equal
    criterion(
        2,
        ok,
        f"masked prob perturbation shifts loss by {loss_shift}, masked logit grad "
        f"{max_masked_grad}, label flip shifts loss by {abs(value - value_flipped)}",
    )


def assembled_micro_f1(records, params, embedder):
    node_tp = node_fp = node_fn = 0
    edge_tp = edge_fp = edge_fn = 0
    for record in records:
        truth = build_ground_truth_dag(record.subjects)
        pred = generate_sdag(record.question, params, embedder)
        truth_nodes, pred_nodes = set(truth.subjects()), set(pred.subjects())
        node_tp += len(truth_nodes & pred_nodes)
        node_fp += len(pred_nodes - truth_nodes)
        node_fn += len(truth_nodes - pred_nodes)
        truth_edges = {(e.src, e.dst) for e in truth.edges}
        pred_edges = {(e.src, e.dst) for e in pred.edges}
        edge_tp += len(truth_edges & pred_edges)
        edge_fp += len(pred_edges - truth_edges)
        edge_fn += len(truth_edges - pred_edges)

    def f1(tp, fp, fn):
        denom = 2 * tp + fp + fn
        return 2 * tp / denom if denom else 1.0

    return f1(node_tp, node_fp, node_fn), f1(edge_tp, edge_fp, edge_fn)


def test_criterion_03_synthetic_learnability(trained_router):
    node_f1, edge_f1 = assembled_micro_f1(
        trained_router.held_records, trained_router.params, trained_router.embedder
    )
    curve = trained_router.result.loss_curve
    ratio = curve[-1] / curve[0]
    budget_ok = (
        len(trained_router.train_records) == N_TRAIN
        and TRAIN_EPOCHS <= 50
        and trained_router.train_seconds < 300.0
    )
    ok = budget_ok and node_f1 >= 0.90 and edge_f1 >= 0.80 and ratio < 0.25
    criterion(
        3,
        ok,
        f"node F1 {node_f1:.4f} (>=0.90), edge F1 {edge_f1:.4f} (>=0.80), "
        f"loss ratio {ratio:.3f} (<0.25), {TRAIN_EPOCHS} epochs over "
        f"{len(trained_router.train_records)} samples in {trained_router.train_seconds:.0f}s",
    )


def test_criterion_04_ground_truth_dag_suite():
    M, P, B = Subject.MATH, Subject.PHYSICS, Subject.BIOLOGY
    C, H = Subject.CHEMISTRY, Subject.HISTORY

    g1 = build_ground_truth_dag({M: 0.5, P: 0.3, B: 0.2})
    ex1 = (
        {n.subject for n in g1.nodes} == {M, P, B}
        and {(e.src, e.dst) for e in g1.edges} == {(P, M), (B, M)}
        and g1.score_of(M) == pytest.approx(0.5)
    )

    g2 = build_ground_truth_dag({C: 0.6, M: 0.25, B: 0.10, H: 0.05})
    ex2 = (
        {n.subject for n in g2.nodes} == {C, M, B}
        and {(e.src, e.dst) for e in g2.edges} == {(M, C), (B, C)}
        and g2.score_of(C) == pytest.approx(0.6 / 0.95)
        and g2.score_of(M) == pytest.approx(0.25 / 0.95)
        and g2.score_of(B) == pytest.approx(0.10 / 0.95)
    )

    g3 = build_ground_truth_dag({P: 0.5, M: 0.5})
    ex3 = (
        {n.subject for n in g3.nodes} == {P, M}
        and g3.edges == []
        and g3.score_of(P) == pytest.approx(0.5)
    )

    rng = np.random.default_rng(42)
    checked = 0
    failures = 0
    while checked < 10_000:
        k = int(rng.integers(2, 6))
        picks = rng.choice(NUM_SUBJECTS, size=k, replace=False)
        raw = rng.dirichlet(np.ones(k))
        weights = {SUBJECTS[int(i)]: float(w) for i, w in zip(picks, raw)}
        if max(
            (w for s, w in weights.items() if s is not Subject.OTHER), default=0.0
        ) < 0.11:
            continue
        checked += 1
        g = build_ground_truth_dag(weights)
        report = validate_dag(g)
        k_out = len(g.nodes)
        sinks = {e.dst for e in g.edges}
        sources = {e.src for e in g.edges}
        bipartite = not (sinks & sources) and all(
            g.score_of(e.src) < g.score_of(e.dst) for e in g.edges
        )
        try:
            g.topological_order()
            acyclic = True
        except ValueError:
            acyclic = False
        if not (report.violations == [] and k_out <= 5 and bipartite and acyclic):
            failures += 1
    ok = ex1 and ex2 and ex3 and failures == 0
    criterion(
        4,
        ok,
        f"3 worked examples exact, {checked} random vectors with {failures} "
        "structural failures",
    )


def test_criterion_05_call_count_mirror():
    client = build_client(
        [
            BackendConfig(
                name="echo",
                kind="mock",
                script=[{"reply": "I conclude <<A>>."}],
                seed=0,
            )
        ]
    )
    groups = [tuple(SPECIALTIES[(3 * i + j) % len(SPECIALTIES)] for j in range(4)) for i in range(9)]
    dags = [
        build_ground_truth_dag(dict(zip(g, (0.4, 0.3, 0.2, 0.1)))) for g in groups
    ]
    five = tuple(SPECIALTIES[i] for i in (0, 3, 6, 9, 12))
    dags.append(build_ground_truth_dag(dict(zip(five, (0.3, 0.25, 0.15, 0.15, 0.15)))))
    node_counts = [len(g.nodes) for g in dags]
    assert sorted(node_counts) == [4] * 9 + [5]
    assert float(np.mean(node_counts)) == 4.1

    def run_all(executor):
        calls = []
        for i, g in enumerate(dags):
            selection = {s: "m" for s in g.subjects()}
            trace = executor(g, f"question {i}", selection, {"m": "echo"}, client)
            calls.append(trace.llm_calls)
        return calls

    sdag_calls = run_all(execute_dag)
    fcg_calls = run_all(lambda g, q, sel, b, c: execute_fcg(g.nodes, q, sel, b, c))
    four_node_exact = sdag_calls[0] == 4 and fcg_calls[0] == 8
    sdag_mean = float(np.mean(sdag_calls))
    fcg_mean = float(np.mean(fcg_calls))
    counted = client.counter.total == sum(sdag_calls) + sum(fcg_calls)
    ok = four_node_exact and sdag_mean == 4.1 and fcg_mean == 8.2 and counted
    criterion(
        5,
        ok,
        f"4-node graph: {sdag_calls[0]} calls, fully connected {fcg_calls[0]}; "
        f"means {sdag_mean} vs {fcg_mean} over avg {np.mean(node_counts):.1f} active nodes",
    )


def test_criterion_06_profile_normalization_and_scale_invariance():
    store = run_profiling(oracle_pool(), make_profiling_records(), oracle_client(), seed=0)
    sums_ok = True
    non_fallback = 0
    for profile in store.profiles.values():
        if profile.uniform_fallback:
            continue
        non_fallback += 1
        if abs(sum(profile.normalized.values()) - 1.0) > 1e-9:
            sums_ok = False
    assert non_fallback == len(SPECIALTIES)

    rng = np.random.default_rng(5)
    invariant_trials = 0
    for _ in range(100):
        raws = {}
        for m in range(6):
            picks = rng.choice(len(SPECIALTIES), size=int(rng.integers(1, 6)), replace=False)
            raws[f"m{m}"] = {
                SPECIALTIES[int(i)]: float(rng.uniform(0.1, 3.0)) for i in picks
            }
        base = ProfileStore(
            profiles={m: ModelProfile.from_raw(m, r) for m, r in raws.items()}
        )
        before = {s: select_model(s, base) for s in SUBJECTS}
        target = f"m{int(rng.integers(0, 6))}"
        c = float(10.0 ** rng.uniform(-3, 3))
        scaled_raws = dict(raws)
        scaled_raws[target] = {s: c * w for s, w in raws[target].items()}
        scaled = ProfileStore(
            profiles={m: ModelProfile.from_raw(m, r) for m, r in scaled_raws.items()}
        )
        after = {s: select_model(s, scaled) for s in SUBJECTS}
        if before == after:
            invariant_trials += 1
    ok = sums_ok and invariant_trials == 100
    criterion(
        6,
        ok,
        f"{non_fallback} profile rows sum to 1 +/- 1e-9; selection unchanged in "
        f"{invariant_trials}/100 scaling trials",
    )


def test_criterion_07_routing_value_over_random(trained_router):
    questions = trained_router.held_records[:100]
    assert len(questions) == 100
    pool = oracle_pool()
    store = run_profiling(pool, make_profiling_records(), oracle_client(), seed=0)

    def run(mode, with_router):
        cfg = EvalConfig(mode=mode, seeds=1)
        kwargs = {}
        if with_router:
            kwargs = dict(
                params=trained_router.params,
                embedder=trained_router.embedder,
                store=store,
            )
        return evaluate(questions, oracle_client(), pool, cfg, **kwargs)

    sdag_a = run("sdag", True)
    sdag_b = run("sdag", True)
    rand_a = run("random_model", False)
    rand_b = run("random_model", False)
    deterministic = render_report(sdag_a, "json") == render_report(sdag_b, "json") and (
        render_report(rand_a, "json") == render_report(rand_b, "json")
    )
    gap = sdag_a.accuracy_mean - rand_a.accuracy_mean
    ok = deterministic and gap >= 0.30
    criterion(
        7,
        ok,
        f"profiled accuracy {sdag_a.accuracy_mean:.2f} vs random {rand_a.accuracy_mean:.2f} "
        f"(gap {100 * gap:.0f}pp, need >=30), repeat runs byte-identical: {deterministic}",
    )


def test_criterion_08_consensus_filtering():
    rng = np.random.default_rng(18)
    leaked = 0
    bad_sums = 0
    trials = 200
    for _ in range(trials):
        everywhere = [
            SUBJECTS[int(i)]
            for i in rng.choice(NUM_SUBJECTS, size=int(rng.integers(1, 5)), replace=False)
        ]
        others = [s for s in SUBJECTS if s not in everywhere]
        victim = others[int(rng.integers(0, len(others)))]
        skip_round = int(rng.integers(0, 3))
        rounds = []
        for round_index in range(3):
            members = list(everywhere)
            if round_index != skip_round:
                members.append(victim)
            noise = [s for s in others if s != victim]
            if len(noise) > 0 and rng.random() < 0.5:
                members.append(noise[int(rng.integers(0, len(noise)))])
            weights = rng.dirichlet(np.ones(len(members)))
            rounds.append({s: float(w) for s, w in zip(members, weights)})
        merged = consensus_merge(rounds)
        if victim in merged:
            leaked += 1
        if set(merged) != set(everywhere):
            leaked += 1
        if abs(sum(merged.values()) - 1.0) > 1e-6:
            bad_sums += 1
    ok = leaked == 0 and bad_sums == 0
    criterion(
        8,
        ok,
        f"{trials} randomized trials: 2-of-3 subjects leaked {leaked} times, "
        f"{bad_sums} weight sums off by more than 1e-6",
    )


def test_criterion_09_cli_eval_byte_identical(trained_router, tmp_path):
    backends_path = tmp_path / "backends.json"
    backends_path.write_text(
        json.dumps(
            {
                "backends": [
                    {"name": c.name, "kind": c.kind, "script": c.script, "seed": c.seed}
                    for c in oracle_backend_configs()
                ]
            }
        ),
        encoding="utf-8",
    )
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(
        json.dumps(
            {
                "models": [
                    {
                        "model_id": e.model_id,
                        "backend": e.backend,
                        "declared_subjects": [s.value for s in e.declared_subjects],
                    }
                    for e in oracle_pool()
                ]
            }
        ),
        encoding="utf-8",
    )
    data_path = tmp_path / "questions.jsonl"
    write_records(trained_router.held_records[:12], data_path)
    ckpt_path = tmp_path / "router.json"
    save_checkpoint(trained_router.params, ckpt_path)
    profiles_path = tmp_path / "profiles.json"
    store = run_profiling(
        oracle_pool(), make_profiling_records(), oracle_client(), seed=0
    )
    save_profiles(store, profiles_path)

    reports = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(
                [
                    "eval",
                    "--mode", "sdag",
                    "--data", str(data_path),
                    "--split", "all",
                    "--pool", str(pool_path),
                    "--backends", str(backends_path),
                    "--checkpoint", str(ckpt_path),
                    "--profiles", str(profiles_path),
                    "--seeds", "2",
                    "--out", str(out),
                    "--format", "json",
                ]
            )
        assert code == 0
        reports.append(out.read_bytes())
    payload = json.loads(reports[0])
    traces_present = payload["outcomes"] and all(o["trace"] for o in payload["outcomes"])
    ok = reports[0] == reports[1] and bool(traces_present)
    criterion(
        9,
        ok,
        f"two cli eval runs produced {len(reports[0])}-byte reports, identical: "
        f"{reports[0] == reports[1]}, traces embedded: {bool(traces_present)}",
    )


def test_criterion_10_persistence_round_trips(trained_router, tmp_path):
    ckpt_path = tmp_path / "router.json"
    save_checkpoint(trained_router.params, ckpt_path)
    loaded = load_checkpoint(ckpt_path)
    ckpt_exact = (
        loaded.dims == trained_router.params.dims
        and loaded.seed == trained_router.params.seed
        and loaded.embedder == trained_router.params.embedder
        and set(loaded.tensors) == set(trained_router.params.tensors)
        and all(
            np.array_equal(loaded.tensors[k], trained_router.params.tensors[k])
            and loaded.tensors[k].dtype == np.float64
            for k in loaded.tensors
        )
    )

    store = run_profiling(
        oracle_pool(), make_profiling_records(), oracle_client(), seed=0
    )
    profiles_path = tmp_path / "profiles.json"
    save_profiles(store, profiles_path)
    restored = load_profiles(profiles_path)
    profile_exact = restored.provenance == store.provenance and all(
        restored.profiles[m].raw == p.raw
        and restored.profiles[m].normalized == p.normalized
        and restored.profiles[m].uniform_fallback == p.uniform_fallback
        for m, p in store.profiles.items()
    )

    wrong_version = tmp_path / "wrong_version.json"
    payload = json.loads(ckpt_path.read_text(encoding="utf-8"))
    payload["version"] = 99
    wrong_version.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(VersionMismatch):
        load_checkpoint(wrong_version)

    payload = json.loads(profiles_path.read_text(encoding="utf-8"))
    payload["version"] = 99
    wrong_profile = tmp_path / "wrong_profile.json"
    wrong_profile.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(VersionMismatch):
        load_profiles(wrong_profile)

    truncated = tmp_path / "truncated.json"
    truncated.write_text(ckpt_path.read_text(encoding="utf-8")[:200], encoding="utf-8")
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(truncated)

    mangled = tmp_path / "mangled_profiles.json"
    mangled.write_text(profiles_path.read_text(encoding="utf-8")[:150], encoding="utf-8")
    with pytest.raises(CorruptProfileStore):
        load_profiles(mangled)

    ok = ckpt_exact and profile_exact
    criterion(
        10,
        ok,
        f"checkpoint bit-exact: {ckpt_exact}, profiles bit-exact: {profile_exact}, "
        "version and corruption paths raise the designated errors",
    )
