"""Capability profiles: accumulation, normalization, selection, persistence."""

import datetime
import json

import pytest

from conftest import make_profiling_records, oracle_client, oracle_pool
from sdag.backends import BackendConfig, build_client
from sdag.errors import (
    CorruptProfileStore,
    EmptyPool,
    EmptySplit,
    TransportError,
    VersionMismatch,
)
from sdag.profiling import (
    GradedResult,
    ModelPoolEntry,
    ModelProfile,
    ProfileStore,
    accumulate_scores,
    load_pool,
    load_profiles,
    normalize_profile,
    run_profiling,
    save_profiles,
    select_model,
    selection_map,
)
from sdag.subjects import SUBJECTS, QuestionRecord, Subject

M, P, B, L = Subject.MATH, Subject.PHYSICS, Subject.BIOLOGY, Subject.LAW


# -- accumulation -----------------------------------------------------------


def test_accumulate_credits_correct_answers():
    results = [GradedResult("q1", {M: 0.5, P: 0.3, B: 0.2}, "m", correct=True)]
    assert accumulate_scores(results) == {"m": {M: 0.5, P: 0.3, B: 0.2}}


def test_accumulate_ignores_incorrect_answers():
    results = [GradedResult("q1", {M: 0.5, P: 0.5}, "m", correct=False)]
    assert accumulate_scores(results) == {"m": {}}


def test_accumulate_sums_across_questions():
    results = [
        GradedResult("q1", {M: 1.0}, "m", correct=True),
        GradedResult("q2", {M: 0.5, L: 0.5}, "m", correct=True),
    ]
    assert accumulate_scores(results) == {"m": {M: 1.5, L: 0.5}}


def test_accumulate_order_independent_bitwise():
    import random

    results = [
        GradedResult(f"q{i}", {M: 0.1 * i, P: 1.0 - 0.1 * i}, f"m{i % 3}", correct=True)
        for i in range(1, 10)
    ]
    base = accumulate_scores(results)
    shuffled = list(results)
    random.Random(3).shuffle(shuffled)
    other = accumulate_scores(shuffled)
    assert base == other  # dict equality here is exact float equality


# -- normalization ----------------------------------------------------------


def test_normalize_scales_to_distribution():
    normalized, fallback = normalize_profile({M: 2.0, P: 1.0, B: 1.0})
    assert not fallback
    assert normalized[M] == 0.5
    assert normalized[P] == 0.25
    assert normalized[B] == 0.25
    assert normalized[L] == 0.0
    assert set(normalized) == set(SUBJECTS)


def test_normalize_zero_credit_uniform_fallback():
    normalized, fallback = normalize_profile({})
    assert fallback
    assert all(v == 1.0 / 15.0 for v in normalized.values())


def test_normalize_single_subject():
    normalized, fallback = normalize_profile({M: 3.0})
    assert not fallback
    assert normalized[M] == 1.0


def test_normalize_rejects_negative_credit():
    with pytest.raises(ValueError):
        normalize_profile({M: -0.1})


def test_profile_rows_sum_to_one():
    normalized, _ = normalize_profile({M: 0.7, P: 0.21, B: 0.33})
    assert abs(sum(normalized.values()) - 1.0) <= 1e-9


# -- selection --------------------------------------------------------------


def store_from_raw(raw_by_model):
    return ProfileStore(
        profiles={
            model_id: ModelProfile.from_raw(model_id, raw)
            for model_id, raw in raw_by_model.items()
        }
    )


def test_select_argmax():
    store = store_from_raw({"a": {M: 0.5, P: 0.5}, "b": {M: 0.3, P: 0.7}})
    assert select_model(M, store) == "a"
    assert select_model(P, store) == "b"


def test_select_tie_breaks_lexicographically():
    store = store_from_raw({"beta": {M: 1.0}, "alpha": {M: 1.0}})
    assert select_model(M, store) == "alpha"


def test_select_scale_invariance():
    raw = {"a": {M: 0.5, P: 0.3, B: 0.2}, "b": {M: 0.2, P: 0.6, B: 0.2}}
    scaled = {"a": {s: 10.0 * v for s, v in raw["a"].items()}, "b": raw["b"]}
    before = {s: select_model(s, store_from_raw(raw)) for s in SUBJECTS}
    after = {s: select_model(s, store_from_raw(scaled)) for s in SUBJECTS}
    assert before == after


def test_select_empty_store():
    with pytest.raises(EmptyPool):
        select_model(M, ProfileStore(profiles={}))


def test_selection_map_covers_requested_subjects():
    store = store_from_raw({"a": {M: 1.0}, "b": {P: 1.0}})
    mapping = selection_map([M, P], store)
    assert mapping == {M: "a", P: "b"}


# -- run_profiling ----------------------------------------------------------


def two_model_pool():
    return [
        ModelPoolEntry(model_id="m-echo", backend="echo"),
        ModelPoolEntry(model_id="m-mute", backend="mute"),
    ]


def echo_mute_client():
    return build_client(
        [
            BackendConfig(name="echo", kind="mock", script=[{"reply": "<<{gold}>>"}]),
            BackendConfig(name="mute", kind="mock", script=[{"reply": "no answer here"}]),
        ]
    )


def three_records():
    return [
        QuestionRecord(
            id=f"p{i}", question="q", options=["1", "2"], gold="A",
            subjects={M: 0.6, P: 0.4}, split="profiling",
        )
        for i in range(3)
    ]


def test_run_profiling_call_count():
    client = echo_mute_client()
    store = run_profiling(two_model_pool(), three_records(), client)
    assert client.counter.total == 6
    assert store.provenance["calls"] == 6
    assert store.provenance["models"] == 2
    assert store.provenance["questions"] == 3


def test_run_profiling_credits_and_fallback():
    store = run_profiling(two_model_pool(), three_records(), echo_mute_client())
    echo = store.profiles["m-echo"]
    assert echo.raw[M] == pytest.approx(1.8, rel=1e-12)
    assert echo.raw[P] == pytest.approx(1.2, rel=1e-12)
    assert echo.normalized[M] == pytest.approx(0.6, rel=1e-12)
    assert not echo.uniform_fallback
    mute = store.profiles["m-mute"]
    assert mute.uniform_fallback
    assert mute.normalized[M] == 1.0 / 15.0


def test_run_profiling_oracle_peaks_on_specialty():
    pool = oracle_pool()
    store = run_profiling(pool, make_profiling_records(), oracle_client())
    math_profile = store.profiles["expert-math"]
    assert max(math_profile.normalized, key=lambda s: math_profile.normalized[s]) is M
    # every specialty resolves to its own expert
    for entry in pool:
        specialty = entry.declared_subjects[0]
        assert select_model(specialty, store) == entry.model_id


def test_run_profiling_empty_split():
    with pytest.raises(EmptySplit):
        run_profiling(two_model_pool(), [], echo_mute_client())


def test_run_profiling_empty_pool():
    with pytest.raises(EmptyPool):
        run_profiling([], three_records(), echo_mute_client())


def test_run_profiling_requires_subjects():
    record = QuestionRecord(id="p0", question="q", options=["1", "2"], gold="A")
    with pytest.raises(ValueError):
        run_profiling(two_model_pool(), [record], echo_mute_client())


class FailingClient:
    def complete(self, req):
        raise TransportError("down", attempts=3)


def test_run_profiling_transport_failure_grades_incorrect():
    store = run_profiling(two_model_pool(), three_records(), FailingClient())
    assert store.provenance["transport_failures"] == 6
    assert all(p.uniform_fallback for p in store.profiles.values())


# -- persistence ------------------------------------------------------------


def test_store_round_trip_bit_exact(tmp_path):
    store = run_profiling(two_model_pool(), three_records(), echo_mute_client())
    path = tmp_path / "profiles.json"
    save_profiles(store, path)
    loaded = load_profiles(path)
    assert set(loaded.profiles) == set(store.profiles)
    for model_id, profile in store.profiles.items():
        other = loaded.profiles[model_id]
        assert other.raw == profile.raw
        assert other.normalized == profile.normalized
        assert other.uniform_fallback == profile.uniform_fallback
    assert loaded.provenance == store.provenance


def test_store_save_deterministic_bytes(tmp_path):
    store = run_profiling(two_model_pool(), three_records(), echo_mute_client())
    save_profiles(store, tmp_path / "a.json")
    save_profiles(store, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_store_bytes_do_not_depend_on_the_date(tmp_path, monkeypatch):
    for day in (1, 2):

        class FixedDate(datetime.date):
            @classmethod
            def today(cls):
                return cls(2026, 1, day)

        monkeypatch.setattr(datetime, "date", FixedDate)
        store = run_profiling(two_model_pool(), three_records(), echo_mute_client())
        save_profiles(store, tmp_path / f"day{day}.json")
    assert (tmp_path / "day1.json").read_bytes() == (tmp_path / "day2.json").read_bytes()


def test_load_version_mismatch(tmp_path):
    store = store_from_raw({"m": {M: 1.0}})
    path = tmp_path / "profiles.json"
    save_profiles(store, path)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(VersionMismatch):
        load_profiles(path)


def test_load_corrupt_json(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text("{not json")
    with pytest.raises(CorruptProfileStore):
        load_profiles(path)


def test_load_missing_subject_coverage(tmp_path):
    store = store_from_raw({"m": {M: 1.0}})
    path = tmp_path / "profiles.json"
    save_profiles(store, path)
    payload = json.loads(path.read_text())
    del payload["profiles"]["m"]["normalized"]["Physics"]
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptProfileStore):
        load_profiles(path)


def test_ensure_covers_missing_model(tmp_path):
    store = store_from_raw({"m-echo": {M: 1.0}})
    with pytest.raises(CorruptProfileStore):
        store.ensure_covers(two_model_pool())
    store.ensure_covers([ModelPoolEntry(model_id="m-echo", backend="echo")])


# -- pool loading -----------------------------------------------------------


def test_load_pool_sample_file():
    from pathlib import Path

    sample = Path(__file__).resolve().parents[1] / "configs" / "pool.sample.json"
    pool = load_pool(sample)
    assert len(pool) == 14
    ids = {e.model_id for e in pool}
    assert "deepseek-math-7b-instruct" in ids


def test_load_pool_duplicate_ids(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps([
        {"model_id": "m", "backend": "b"},
        {"model_id": "m", "backend": "b2"},
    ]))
    with pytest.raises(ValueError):
        load_pool(path)


def test_load_pool_empty(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text("[]")
    with pytest.raises(EmptyPool):
        load_pool(path)
