"""Evaluation harness: mode wiring, determinism, aggregation, rendering."""

import dataclasses
import functools
import json
import json.encoder
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdag.evaluation
import sdag.orchestrator
import sdag.router.model as model
from conftest import (
    LiveMock,
    live,
    make_profiling_records,
    oracle_backend_configs,
    oracle_client,
    oracle_pool,
)
from sdag.backends import BackendConfig, ChatClient, ChatResponse
from sdag.embedding import HashedEmbedder
from sdag.errors import AuthError, EmptySplit
from sdag.evaluation import (
    MODES,
    ROUTE_CHUNK,
    EvalConfig,
    EvalReport,
    QuestionOutcome,
    _dispatch,
    evaluate,
    render_report,
)
from sdag.profiling import run_profiling
from sdag.subjects import MAX_DAG_NODES, QuestionRecord, Subject
from sdag.synthetic import SyntheticConfig, generate_synthetic_records


def eval_records():
    records = make_profiling_records()
    half = records[: len(records) // 2]
    return [
        type(r)(
            id=r.id.replace("prof-", "eval-"), question=r.question,
            options=list(r.options), gold=r.gold, subjects=r.subjects, split="test",
        )
        for r in half
    ]


@pytest.fixture()
def oracle_store():
    return run_profiling(oracle_pool(), make_profiling_records(), oracle_client())


# -- config and requirements ------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(mode="nope")
    with pytest.raises(ValueError):
        EvalConfig(mode="sdag", seeds=0)
    with pytest.raises(ValueError):
        EvalConfig(mode="sdag", parallelism=0)
    assert set(MODES) == {"sdag", "no_gnn", "fcg", "random_model", "single_cot"}


def test_mode_requirements(oracle_store):
    records = eval_records()
    pool = oracle_pool()
    client = oracle_client()
    with pytest.raises(ValueError, match="router checkpoint"):
        evaluate(records, client, pool, EvalConfig(mode="sdag"))
    with pytest.raises(ValueError, match="profiles"):
        evaluate(records, client, pool, EvalConfig(mode="no_gnn"))
    with pytest.raises(ValueError, match="profiles"):
        evaluate(records, client, pool, EvalConfig(mode="fcg"))
    bare = [
        type(r)(id=r.id, question=r.question, options=list(r.options), gold=r.gold)
        for r in records
    ]
    with pytest.raises(ValueError, match="annotations"):
        evaluate(bare, client, pool, EvalConfig(mode="no_gnn"), store=oracle_store)
    with pytest.raises(ValueError, match="annotations"):
        evaluate(bare, client, pool, EvalConfig(mode="random_model"))
    with pytest.raises(ValueError, match="not in the pool"):
        evaluate(
            records, client, pool,
            EvalConfig(mode="single_cot", single_cot_model="missing-model"),
        )
    params = model.init_params(model.RouterDims(d_s=8, d_q=16, h=8, L=1), seed=0)
    for mode in ("fcg", "random_model"):
        with pytest.raises(ValueError, match="embedder"):
            evaluate(records, client, pool, EvalConfig(mode=mode), params=params,
                     store=oracle_store)


def test_empty_inputs(oracle_store):
    with pytest.raises(EmptySplit):
        evaluate([], oracle_client(), oracle_pool(), EvalConfig(mode="single_cot"))
    with pytest.raises(ValueError):
        evaluate(eval_records(), oracle_client(), [], EvalConfig(mode="single_cot"))


@pytest.mark.parametrize("mode", MODES)
def test_unknown_pool_backend_fails_before_any_call(mode, trained_router, oracle_store):
    pool = oracle_pool()
    pool[-1] = dataclasses.replace(pool[-1], backend="nosuch")
    client = oracle_client()
    with pytest.raises(ValueError, match="nosuch"):
        evaluate(
            eval_records(), client, pool, EvalConfig(mode=mode, seeds=1),
            params=trained_router.params, embedder=trained_router.embedder,
            store=oracle_store,
        )
    assert client.counter.total == 0


@pytest.mark.parametrize(
    "mode, builds",
    [("sdag", 1), ("no_gnn", 1), ("fcg", 1), ("random_model", 0), ("single_cot", 0)],
)
def test_selection_table_built_once_per_evaluate(
    mode, builds, trained_router, oracle_store, monkeypatch
):
    calls = []
    real = sdag.evaluation.selection_map

    def counting(subjects, store):
        calls.append(subjects)
        return real(subjects, store)

    monkeypatch.setattr(sdag.evaluation, "selection_map", counting)
    records = trained_router.held_records[:4] if mode == "sdag" else eval_records()
    report = evaluate(
        records, oracle_client(), oracle_pool(), EvalConfig(mode=mode, seeds=2),
        params=trained_router.params if mode == "sdag" else None,
        embedder=trained_router.embedder, store=oracle_store,
    )
    assert len(report.outcomes) == 2 * len(records)
    assert len(calls) == builds


# -- no_gnn -----------------------------------------------------------------


class Boom:
    """Raises on any attribute access: proves a path never touches it."""

    def __getattr__(self, name):
        raise AssertionError(f"router artifact was consulted: {name}")


def test_no_gnn_never_touches_router(oracle_store):
    report = evaluate(
        eval_records(), oracle_client(), oracle_pool(),
        EvalConfig(mode="no_gnn", seeds=1),
        params=Boom(), embedder=Boom(), store=oracle_store,
    )
    assert report.accuracy_mean == 1.0


def test_no_gnn_oracle_accuracy_and_calls(oracle_store):
    records = eval_records()
    client = oracle_client()
    report = evaluate(
        records, client, oracle_pool(), EvalConfig(mode="no_gnn", seeds=2),
        store=oracle_store,
    )
    assert report.accuracy_mean == 1.0
    assert report.accuracy_std == 0.0
    # two-subject ground truth graphs: one support, one dominant
    assert report.avg_calls == 2.0
    assert report.total_llm_calls == 2 * 2 * len(records)
    # Under mocks the second seed repeats the first without calling again.
    assert client.counter.total == report.total_llm_calls // 2
    assert report.questions == len(records)
    assert len(report.outcomes) == 2 * len(records)


# -- fcg --------------------------------------------------------------------


def test_fcg_from_annotations_doubles_calls(oracle_store):
    report = evaluate(
        eval_records(), oracle_client(), oracle_pool(),
        EvalConfig(mode="fcg", seeds=1), store=oracle_store,
    )
    assert report.mode == "fcg"
    assert report.avg_calls == 4.0  # 2n for two-subject graphs


# -- random_model -----------------------------------------------------------


def test_random_model_deterministic():
    records = eval_records()
    runs = [
        evaluate(
            records, oracle_client(), oracle_pool(),
            EvalConfig(mode="random_model", seeds=2),
        )
        for _ in range(2)
    ]
    assert render_report(runs[0], "json") == render_report(runs[1], "json")


def test_random_model_accuracy_is_low():
    report = evaluate(
        eval_records(), oracle_client(), oracle_pool(),
        EvalConfig(mode="random_model", seeds=3),
    )
    # 14 models, one correct per question: random assignment rarely hits
    assert report.accuracy_mean < 0.5


# -- single_cot -------------------------------------------------------------


def test_single_cot_one_call_per_question():
    records = eval_records()
    client = oracle_client()
    report = evaluate(
        records, client, oracle_pool(), EvalConfig(mode="single_cot", seeds=2)
    )
    assert report.avg_calls == 1.0
    assert report.total_llm_calls == 2 * len(records)
    # Under mocks the second seed repeats the first without calling again.
    assert client.counter.total == report.total_llm_calls // 2
    model_ids = {r["model_id"] for o in report.outcomes for r in o.trace}
    # default model: lexicographically first pool id
    assert model_ids == {"expert-biology"}


def test_single_cot_explicit_model():
    report = evaluate(
        eval_records(), oracle_client(), oracle_pool(),
        EvalConfig(mode="single_cot", seeds=1, single_cot_model="expert-math"),
    )
    model_ids = {r["model_id"] for o in report.outcomes for r in o.trace}
    assert model_ids == {"expert-math"}


# -- sdag (trained router smoke) --------------------------------------------


def test_sdag_mode_runs_with_trained_router(trained_router, oracle_store):
    records = trained_router.held_records[:5]
    report = evaluate(
        records, oracle_client(), oracle_pool(),
        EvalConfig(mode="sdag", seeds=1),
        params=trained_router.params, embedder=trained_router.embedder,
        store=oracle_store,
    )
    assert report.questions == 5
    assert 0.0 <= report.accuracy_mean <= 1.0
    assert report.avg_calls >= 1.0


@pytest.mark.parametrize("mode", ["sdag", "random_model", "fcg"])
def test_only_modes_that_execute_edges_score_edge_rows(mode, oracle_store, monkeypatch):
    # The seeded untrained router at the benchmark dims keeps several
    # subjects per question, so sdag and random_model score their kept rows;
    # fcg reads only the nodes and must request no row at all. Questions are
    # routed in chunks, each scoring its (question, row) pairs in one call.
    dims = model.RouterDims(d_s=32, d_q=256, h=64, L=2)
    params, embedder = model.init_params(dims, seed=0), HashedEmbedder(d=dims.d_q)
    requested, routed, chunks = [], [], []
    real_stage, real_generate = model._edge_stage, sdag.evaluation.generate_sdag

    def spy_stage(params, x, h_q, at):
        questions, rows = at
        # Number each pair by its question's place in the evaluate() order.
        requested.extend(zip((len(routed) + questions).tolist(), rows.tolist()))
        return real_stage(params, x, h_q, at)

    def spy_generate(questions, *args, **kwargs):
        dags = real_generate(questions, *args, **kwargs)
        chunks.append(len(questions))
        routed.extend(dags)
        return dags

    monkeypatch.setattr(model, "_edge_stage", spy_stage)
    monkeypatch.setattr(sdag.evaluation, "generate_sdag", spy_generate)
    records = generate_synthetic_records(
        SyntheticConfig(n_questions=ROUTE_CHUNK + 8, seed=0)
    )
    evaluate(
        records, oracle_client(), oracle_pool(), EvalConfig(mode=mode, seeds=2),
        params=params, embedder=embedder, store=oracle_store,
    )
    assert chunks == [ROUTE_CHUNK, 8]
    assert len(routed) == len(records)
    kept_rows = [
        (i, s.index) for i, dag in enumerate(routed) if len(dag.nodes) > 1
        for s in dag.subjects()
    ]
    assert kept_rows
    if mode == "fcg":
        assert requested == []
        assert all(dag.edges == [] for dag in routed)
    else:
        assert requested == kept_rows


# -- seeds ------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def untrained_routing():
    """The seeded untrained router at the benchmark dims (it keeps edges), the
    oracle profiles and 12 synthetic questions."""
    dims = model.RouterDims(d_s=32, d_q=256, h=64, L=2)
    store = run_profiling(oracle_pool(), make_profiling_records(), oracle_client())
    records = generate_synthetic_records(SyntheticConfig(n_questions=12, seed=3))
    return records, model.init_params(dims, seed=0), HashedEmbedder(d=dims.d_q), store


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(["sdag", "no_gnn", "fcg", "single_cot"]),
    seeds=st.integers(1, 4),
    parallelism=st.sampled_from([1, 3]),
)
def test_simulated_seeds_repeat_seed_zero(mode, seeds, parallelism):
    records, params, embedder, store = untrained_routing()

    def run(n):
        return evaluate(
            records, oracle_client(), oracle_pool(),
            EvalConfig(mode=mode, seeds=n, parallelism=parallelism),
            params=params, embedder=embedder, store=store,
        )

    first, report = run(1), run(seeds)
    assert report.outcomes == [
        dataclasses.replace(o, seed=seed) for seed in range(seeds) for o in first.outcomes
    ]
    assert report.accuracy_mean == first.accuracy_mean
    assert report.accuracy_std == float(np.std([first.accuracy_mean] * seeds))
    assert report.total_llm_calls == seeds * first.total_llm_calls


def count_executions(monkeypatch) -> list:
    calls = []
    real = sdag.evaluation.execute_dag

    def counting(dag, record, *args, **kwargs):
        calls.append(record.id)
        return real(dag, record, *args, **kwargs)

    monkeypatch.setattr(sdag.evaluation, "execute_dag", counting)
    return calls


def test_simulated_seeds_execute_each_record_once(monkeypatch):
    records, params, embedder, store = untrained_routing()
    calls = count_executions(monkeypatch)
    client = oracle_client()
    report = evaluate(
        records, client, oracle_pool(), EvalConfig(mode="sdag", seeds=3),
        params=params, embedder=embedder, store=store,
    )
    assert sorted(calls) == sorted(r.id for r in records)
    assert len(report.outcomes) == 3 * len(records)
    assert 3 * client.counter.total == report.total_llm_calls


@pytest.mark.parametrize("mode, live_client", [("random_model", False), ("sdag", True)])
def test_random_model_and_live_clients_run_every_seed(mode, live_client, monkeypatch):
    records, params, embedder, store = untrained_routing()
    calls = count_executions(monkeypatch)
    client = live(oracle_client()) if live_client else oracle_client()
    report = evaluate(
        records, client, oracle_pool(), EvalConfig(mode=mode, seeds=3),
        params=params, embedder=embedder, store=store,
    )
    assert sorted(calls) == sorted([r.id for r in records] * 3)
    assert client.counter.total == report.total_llm_calls


# -- parallel dispatch ------------------------------------------------------


def test_parallel_matches_serial_in_every_mode():
    # random_model is the mode whose models are drawn per seed, so it runs
    # two seeds: each question must get the same draw however it is run.
    records, params, embedder, store = untrained_routing()
    for mode in MODES:
        reports = [
            render_report(evaluate(
                records, oracle_client(), oracle_pool(),
                EvalConfig(mode=mode, seeds=2 if mode == "random_model" else 1,
                           parallelism=parallelism),
                params=params, embedder=embedder, store=store,
            ), "json")
            for parallelism in (1, 4)
        ]
        assert reports[0] == reports[1], mode


class HookedBackend:
    """A live backend with `max_in_flight` slots; each call first runs
    `on_call` with its question id, then answers "<<A>>"."""

    simulated = False

    def __init__(self, name, on_call, max_in_flight):
        self.config = BackendConfig(name=name, kind="mock", max_in_flight=max_in_flight)
        self.on_call = on_call

    def complete(self, req):
        self.on_call(req.metadata["question_id"])
        return ChatResponse("<<A>>", 0.0, 1, req.backend)


def hooked_client(on_call, max_in_flight=1) -> ChatClient:
    return ChatClient({
        c.name: HookedBackend(c.name, on_call, max_in_flight) for c in oracle_backend_configs()
    })


def one_subject_record(question_id, subject):
    return QuestionRecord(id=question_id, question=f"{subject.value} question",
                          options=["yes", "no"], gold="A", subjects={subject: 1.0})


def test_parallel_dispatch_starts_the_question_whose_backends_are_free(
    oracle_store, monkeypatch
):
    # q0 and q1 call the math expert and q2 the biology expert, each with one
    # slot. q0's call returns only once q2 has called, and q2's only once q0
    # has finished, so the test hangs (until the timeouts fail it) unless a
    # worker starts q2 while q0 holds the math expert.
    records = [one_subject_record("q0", Subject.MATH), one_subject_record("q1", Subject.MATH),
               one_subject_record("q2", Subject.BIOLOGY)]
    events, lock = [], threading.Lock()
    q2_called, q0_finished = threading.Event(), threading.Event()
    real_execute = sdag.evaluation.execute_dag

    def log(event):
        with lock:
            events.append(event)

    def execute(dag, record, *args, **kwargs):
        log(("start", record.id))
        trace = real_execute(dag, record, *args, **kwargs)
        log(("end", record.id))
        if record.id == "q0":
            q0_finished.set()
        return trace

    def on_call(question_id):
        if question_id == "q0":
            assert q2_called.wait(timeout=10), "q2 did not start while q0 held its expert"
        elif question_id == "q2":
            q2_called.set()
            assert q0_finished.wait(timeout=10)

    monkeypatch.setattr(sdag.evaluation, "execute_dag", execute)
    report = evaluate(records, hooked_client(on_call), oracle_pool(),
                      EvalConfig(mode="no_gnn", seeds=1, parallelism=2), store=oracle_store)
    assert [o.question_id for o in report.outcomes] == ["q0", "q1", "q2"]
    assert [r["backend"] for o in report.outcomes for r in o.trace] == [
        "mock-math", "mock-math", "mock-biology"]
    assert events.index(("start", "q2")) < events.index(("end", "q0"))
    assert events.index(("start", "q1")) > events.index(("end", "q0"))


def test_parallel_dispatch_stops_at_the_first_error(monkeypatch):
    # Question 1 fails with a configuration error. The other questions' calls
    # return only once it has raised, so the workers that are busy when it
    # fails start at most one more question each, and no question starts
    # after the failure is seen.
    parallelism = 2
    records = eval_records()
    started, lock = [], threading.Lock()
    failed = threading.Event()
    error = AuthError("bad credentials")
    real_metadata = sdag.evaluation._extra_metadata

    def starting(record):
        with lock:
            started.append(record.id)
        return real_metadata(record)

    def on_call(question_id):
        if question_id == records[1].id:
            failed.set()
            raise error
        assert failed.wait(timeout=10)

    monkeypatch.setattr(sdag.evaluation, "_extra_metadata", starting)
    with pytest.raises(AuthError) as raised:
        evaluate(records, hooked_client(on_call, max_in_flight=8), oracle_pool(),
                 EvalConfig(mode="single_cot", seeds=1, parallelism=parallelism))
    assert raised.value is error
    assert records[1].id in started
    assert len(started) - 1 - started.index(records[1].id) <= parallelism
    assert len(started) < len(records)


def test_dispatch_runs_every_question_once_under_contention():
    # More workers than cores, one-slot backends shared unevenly, and a short
    # switch interval: a lost update to the pending queue or the reservations
    # would run a question twice, skip one or stall.
    needs = [tuple({f"b{i % 3}", f"b{(7 * i) % 5}"}) for i in range(300)]
    limits = {f"b{k}": 1 for k in range(5)}
    runs, lock, results = Counter(), threading.Lock(), []

    def run(i):
        with lock:
            runs[i] += 1
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=7) as pool:
            worker = threading.Thread(
                target=lambda: results.append(_dispatch(run, needs, limits, 8, pool)))
            worker.start()
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert results == [[i * i for i in range(300)]]
    assert runs == Counter(range(300))


# -- thread pool ------------------------------------------------------------


def count_pools(monkeypatch) -> list:
    """(module name, max_workers) of each pool built through the
    ThreadPoolExecutor of sdag.evaluation or sdag.orchestrator."""
    built = []
    for module in (sdag.evaluation, sdag.orchestrator):

        class CountedPool(ThreadPoolExecutor):
            owner = module.__name__

            def __init__(self, *args, **kwargs):
                built.append((self.owner, kwargs.get("max_workers")))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(module, "ThreadPoolExecutor", CountedPool)
    return built


@pytest.mark.parametrize("mode", ["sdag", "fcg"])
@pytest.mark.parametrize("parallelism", [1, 2])
def test_live_evaluate_builds_one_node_pool_per_call(mode, parallelism, monkeypatch):
    records, params, embedder, store = untrained_routing()
    built = count_pools(monkeypatch)
    for seeds, n in ((1, 1), (1, len(records)), (3, 1), (3, len(records))):
        built.clear()
        report = evaluate(
            records[:n], live(oracle_client()), oracle_pool(),
            EvalConfig(mode=mode, seeds=seeds, parallelism=parallelism),
            params=params, embedder=embedder, store=store,
        )
        assert len(report.outcomes) == seeds * n
        assert built == [("sdag.evaluation", parallelism * (MAX_DAG_NODES + 1) - 1)]
    built.clear()
    evaluate(records, oracle_client(), oracle_pool(),
             EvalConfig(mode=mode, seeds=3, parallelism=1),
             params=params, embedder=embedder, store=store)
    assert built == []


def test_dispatch_submits_no_more_loops_than_questions():
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    with CountingPool(max_workers=7) as pool:
        assert _dispatch(lambda i: -i, [("b",)] * 3, {"b": 1}, 8, pool) == [0, -1, -2]
    assert len(submitted) == 2


class CountingLive(LiveMock):
    """A live backend over a mock that counts each (question id, prompt)."""

    def __init__(self, mock, calls, lock):
        super().__init__(mock)
        self.calls, self.lock = calls, lock

    def complete(self, req):
        with self.lock:
            self.calls[req.metadata["question_id"], req.user] += 1
        return super().complete(req)


def test_live_plans_call_every_node_once_under_contention(oracle_store):
    # 200 fully connected plans on 8 dispatch workers and one shared node
    # pool, with a short switch interval: a lost update to a plan's
    # dependency counts would call a node twice, skip one or stall.
    records = generate_synthetic_records(SyntheticConfig(n_questions=200, seed=5))
    cfg = EvalConfig(mode="fcg", seeds=1, parallelism=8)
    expected = evaluate(records, oracle_client(), oracle_pool(), cfg, store=oracle_store)
    calls, lock, reports = Counter(), threading.Lock(), []
    client = ChatClient({name: CountingLive(b, calls, lock)
                         for name, b in oracle_client().backends.items()})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: reports.append(
            evaluate(records, client, oracle_pool(), cfg, store=oracle_store)))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    [report] = reports
    assert calls == Counter(
        (o.question_id, r["prompt"]) for o in expected.outcomes for r in o.trace)
    assert [(o.question_id, o.answer, [(r["subject"], r["prompt"]) for r in o.trace])
            for o in report.outcomes] == [
        (o.question_id, o.answer, [(r["subject"], r["prompt"]) for r in o.trace])
        for o in expected.outcomes]


# -- rendering --------------------------------------------------------------


def sample_report():
    return EvalReport(
        mode="sdag", seeds=3, questions=100, accuracy_mean=0.5973,
        accuracy_std=0.0123, avg_seconds=1.5, avg_calls=4.1,
        total_llm_calls=1230, outcomes=[],
    )


def test_render_text_shows_percent():
    text = render_report(sample_report(), "text")
    assert "59.73 ± 1.23" in text
    assert "Variant" in text and "Accuracy" in text
    assert "4.1" in text
    assert "1.50" in text


def test_render_json_round_trip():
    report = sample_report()
    blob = render_report(report, "json")
    assert json.loads(blob) == report.to_dict()
    assert render_report(report, "json") == blob  # byte stable
    assert blob.endswith("\n")


# Keys and strings the renderer must escape exactly as the stdlib does,
# including text that looks like the separators between outcomes, between
# trace records (at 8 and 10 spaces) and around an outcome's trace.
JSON_STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["é", "\u2028", "\ud800", "\x00\x1f\x7f", '"q"', "back\\slash",
                     "},\n    {", "},\n        {", "},\n          {", "\n        },\n        {",
                     ',\n      "trace": 0,\n      ', '"outcomes": 0', "\n", ""]),
)
# Scalars of the types the report writer encodes itself, then with NumPy floats.
PLAIN_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e308]),
    JSON_STRINGS,
)
JSON_SCALARS = st.one_of(PLAIN_SCALARS, st.floats().map(np.float64))


def json_trees(depth: int):
    """Scalars, lists and string-keyed dicts nested up to `depth` levels."""
    if depth == 0:
        return JSON_SCALARS
    children = json_trees(depth - 1)
    return st.one_of(
        JSON_SCALARS,
        st.lists(children, max_size=4),
        st.dictionaries(JSON_STRINGS, children, max_size=4),
    )


TRACE_KEYS = ("subject", "role", "model_id", "backend", "prompt", "reply", "latency",
              "attempts", "failed", "round", "start", "finish")
# Non-empty containers, and values that may be one or a NumPy float: the
# writer hands reports holding either to json.dumps.
NESTED = st.one_of(st.lists(json_trees(1), min_size=1, max_size=3),
                   st.dictionaries(JSON_STRINGS, json_trees(1), min_size=1, max_size=3))
ANY = st.one_of(JSON_SCALARS, NESTED)
SOMETIMES = st.sampled_from([False, False, False, True])


@st.composite
def eval_reports(draw):
    """Reports of plain scalars and trace-shaped records, except that each of
    three parts may go astray, which the writer must hand to json.dumps: the
    scalar fields, one trace record (empty, or with arbitrary keys and values)
    and one trace list (a tuple)."""
    value = ANY if draw(SOMETIMES) else PLAIN_SCALARS
    record = st.fixed_dictionaries({k: PLAIN_SCALARS for k in TRACE_KEYS})
    outcome = st.builds(
        QuestionOutcome, seed=value, question_id=value, answer=st.one_of(st.none(), value),
        gold=value, correct=value, llm_calls=value, wall_time=value,
        trace=st.one_of(st.lists(record, min_size=1, max_size=2), st.just([])),
    )
    outcomes = draw(st.one_of(st.lists(outcome, min_size=1, max_size=3), st.just([])))
    traces = [o.trace for o in outcomes if o.trace]
    if traces and draw(st.booleans()):
        trace = draw(st.sampled_from(traces))
        trace[draw(st.integers(0, len(trace) - 1))] = draw(st.one_of(
            st.builds(lambda r, key, nested: {**r, key: nested}, record, JSON_STRINGS, NESTED),
            st.dictionaries(JSON_STRINGS, ANY, min_size=1, max_size=4),
            st.just({}),
        ))
    if outcomes and draw(SOMETIMES):
        astray = draw(st.sampled_from(outcomes))
        astray.trace = tuple(astray.trace)
    if outcomes and draw(st.booleans()):  # a later seed shares the first one's trace
        outcomes.append(dataclasses.replace(outcomes[0], seed=1))
    return EvalReport(
        mode=draw(value), seeds=draw(value), questions=draw(value),
        accuracy_mean=draw(value), accuracy_std=draw(value), avg_seconds=draw(value),
        avg_calls=draw(value), total_llm_calls=draw(value), outcomes=outcomes,
    )


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
@settings(max_examples=400, deadline=None)
@given(report=eval_reports())
def test_render_json_matches_stdlib_for_any_report(c_encoder, report):
    available = json.encoder.c_make_encoder if c_encoder else None
    with mock.patch.object(json.encoder, "c_make_encoder", available):
        expected = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        assert render_report(report, "json") == expected


@pytest.mark.parametrize("mode", MODES)
def test_render_json_matches_stdlib_in_every_mode(mode, trained_router, oracle_store):
    report = evaluate(
        trained_router.held_records[:6], oracle_client(), oracle_pool(),
        EvalConfig(mode=mode, seeds=2),
        params=trained_router.params, embedder=trained_router.embedder,
        store=oracle_store,
    )
    expected = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert render_report(report, "json") == expected


def test_render_json_encodes_each_shared_trace_list_once(oracle_store, monkeypatch):
    report = evaluate(
        eval_records(), oracle_client(), oracle_pool(),
        EvalConfig(mode="no_gnn", seeds=3), store=oracle_store,
    )
    # Under all-mock clients, seeds 1 and 2 reuse seed 0's trace lists.
    distinct = {id(o.trace) for o in report.outcomes}
    assert len(report.outcomes) == 3 * len(distinct)
    encoded = []
    real = sdag.evaluation._trace_json
    monkeypatch.setattr(sdag.evaluation, "_trace_json",
                        lambda trace, encode: encoded.append(id(trace)) or real(trace, encode))
    expected = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert render_report(report, "json") == expected
    assert sorted(encoded) == sorted(distinct)


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render_report(sample_report(), "xml")


def test_accuracy_stored_as_fraction(oracle_store):
    report = evaluate(
        eval_records(), oracle_client(), oracle_pool(),
        EvalConfig(mode="no_gnn", seeds=1), store=oracle_store,
    )
    assert report.accuracy_mean == 1.0
    payload = json.loads(render_report(report, "json"))
    assert payload["accuracy_mean"] == 1.0
