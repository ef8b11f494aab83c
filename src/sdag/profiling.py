"""Per-model subject capability profiles and subject-to-model selection.

Each pooled model answers every profiling question once; a correct answer
credits the model with the question's subject weights. Credit is normalized
within each model to a distribution over subjects, and selection for a
subject is the argmax of that normalized score across models.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .backends import ChatClient
from .errors import CorruptProfileStore, EmptyPool, EmptySplit, UnknownSubject
from .fileio import (
    POOL_FIELDS,
    PROFILE_FIELDS,
    STORE_FIELDS,
    atomic_writer,
    check_fields,
    read_entry_list,
    read_versioned,
)
from .orchestrator import execute_single_cot
from .subjects import (
    NUM_SUBJECTS,
    SUBJECTS,
    QuestionRecord,
    Subject,
    SubjectWeights,
    answer_key,
    parse_subject,
)

PROFILE_STORE_VERSION = 1
# Recorded in a store's provenance; no draw of profiling depends on it.
PROFILE_SEED = 0


@dataclass(frozen=True)
class ModelPoolEntry:
    """One expert model: its id, the backend that serves it, and optional
    documentation of its intended specialties."""

    model_id: str
    backend: str
    declared_subjects: tuple[Subject, ...] = ()

    def __post_init__(self):
        if not self.model_id:
            raise ValueError("model_id is required")
        if not self.backend:
            raise ValueError(f"model {self.model_id!r}: backend ref is required")


def load_pool(path: str | Path) -> list[ModelPoolEntry]:
    """Read a pool file: a list, or {"models": [...]}."""
    entries = read_entry_list(Path(path), "models", POOL_FIELDS, unique="model_id")
    if not entries:
        raise EmptyPool(f"{path}: pool is empty")
    pool = []
    for i, e in enumerate(entries):
        try:
            subjects = tuple(parse_subject(s) for s in e.get("declared_subjects", []))
            pool.append(ModelPoolEntry(e["model_id"], e["backend"], subjects))
        except (ValueError, UnknownSubject) as exc:
            raise ValueError(f"{path}: entry {i}: {exc}") from None
    return pool


@dataclass(frozen=True)
class GradedResult:
    """One graded profiling answer."""

    question_id: str
    weights: SubjectWeights
    model_id: str
    correct: bool


def accumulate_scores(results: list[GradedResult]) -> dict[str, dict[Subject, float]]:
    """Sum subject weights of correctly answered questions per model.

    Summation runs in (model_id, question_id) sorted order, so any input
    permutation produces bit-identical totals.
    """
    raw: dict[str, dict[Subject, float]] = {}
    for result in sorted(results, key=lambda r: (r.model_id, r.question_id)):
        scores = raw.setdefault(result.model_id, {})
        if not result.correct:
            continue
        for subject in sorted(result.weights, key=lambda s: s.index):
            scores[subject] = scores.get(subject, 0.0) + result.weights[subject]
    return raw


def normalize_profile(raw: dict[Subject, float]) -> tuple[dict[Subject, float], bool]:
    """Scale raw credit to a distribution over all 15 subjects.

    A model with zero total credit gets the uniform distribution and a
    fallback flag instead of a division by zero.
    """
    for subject, value in raw.items():
        if value < 0:
            raise ValueError(f"negative raw score for {subject.value}: {value}")
    total = sum(raw.get(s, 0.0) for s in SUBJECTS)
    if total <= 0.0:
        uniform = 1.0 / NUM_SUBJECTS
        return {s: uniform for s in SUBJECTS}, True
    return {s: raw.get(s, 0.0) / total for s in SUBJECTS}, False


@dataclass
class ModelProfile:
    model_id: str
    raw: dict[Subject, float]
    normalized: dict[Subject, float]
    uniform_fallback: bool

    @classmethod
    def from_raw(cls, model_id: str, raw: dict[Subject, float]) -> "ModelProfile":
        normalized, fallback = normalize_profile(raw)
        return cls(model_id=model_id, raw=dict(raw), normalized=normalized,
                   uniform_fallback=fallback)


@dataclass
class ProfileStore:
    profiles: dict[str, ModelProfile]
    provenance: dict = field(default_factory=dict)

    def ensure_covers(self, pool: list[ModelPoolEntry]) -> None:
        missing = sorted(e.model_id for e in pool if e.model_id not in self.profiles)
        if missing:
            raise CorruptProfileStore(f"store lacks profiles for pool models: {missing}")


def select_model(subject: Subject, store: ProfileStore) -> str:
    """Best model for a subject: argmax normalized score, ties by model_id."""
    return selection_map([subject], store)[subject]


def selection_map(subjects: list[Subject], store: ProfileStore) -> dict[Subject, str]:
    """`select_model` for each subject, over the profiles sorted by model_id
    once: each subject takes the first model with its highest score."""
    if not subjects:
        return {}
    if not store.profiles:
        raise EmptyPool("no profiles to select from")
    profiles = sorted(store.profiles.values(), key=lambda p: p.model_id)
    rows = [p.normalized for p in profiles]
    selection = {}
    for s in subjects:
        column = [row[s] for row in rows]
        selection[s] = profiles[column.index(max(column))].model_id
    return selection


def check_pool_backends(pool: list[ModelPoolEntry], known: Iterable[str]) -> None:
    """Raise ValueError if a pool entry names a backend outside `known`."""
    unknown = sorted({e.backend for e in pool} - set(known))
    if unknown:
        raise ValueError(f"pool names unknown backends: {unknown}")


def _dataset_hash(records: list[QuestionRecord]) -> str:
    joined = "\n".join(sorted(r.id for r in records))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def run_profiling(
    pool: list[ModelPoolEntry],
    split: list[QuestionRecord],
    client: ChatClient,
    seed: int = PROFILE_SEED,
) -> ProfileStore:
    """Grade every pool model on every profiling question and build profiles.

    Each question is one single-CoT call, answered correctly when the
    extracted answer is the gold label; a transport failure grades it wrong.
    """
    if not pool:
        raise EmptyPool("empty model pool")
    if not split:
        raise EmptySplit("empty profiling split")
    for record in split:
        if not record.subjects:
            raise ValueError(f"record {record.id}: profiling needs finalized subjects")
    check_pool_backends(pool, client.backends)  # fail before the first call, as evaluate() does

    results: list[GradedResult] = []
    failures = 0
    for entry in sorted(pool, key=lambda e: e.model_id):
        for record in sorted(split, key=lambda r: r.id):
            trace = execute_single_cot(
                record, entry.model_id, entry.backend, client,
                extra_metadata={"role": "profiling", "model_id": entry.model_id,
                                **answer_key(record)},
            )
            failures += trace.records[0].failed
            results.append(
                GradedResult(
                    question_id=record.id, weights=record.subjects,
                    model_id=entry.model_id, correct=trace.final_answer == record.gold,
                )
            )

    raw = accumulate_scores(results)
    profiles = {
        entry.model_id: ModelProfile.from_raw(entry.model_id, raw.get(entry.model_id, {}))
        for entry in pool
    }
    provenance = {
        "dataset_hash": _dataset_hash(split),
        "questions": len(split),
        "models": len(pool),
        "calls": len(results),
        "transport_failures": failures,
        "seed": seed,
    }
    return ProfileStore(profiles=profiles, provenance=provenance)


# -- persistence ------------------------------------------------------------


def save_profiles(store: ProfileStore, path: str | Path) -> None:
    payload = {
        "version": PROFILE_STORE_VERSION,
        "provenance": store.provenance,
        "profiles": {
            model_id: {
                "raw": {s.value: v for s, v in sorted(p.raw.items(), key=lambda kv: kv[0].index)},
                "normalized": {s.value: p.normalized[s] for s in SUBJECTS},
                "uniform_fallback": p.uniform_fallback,
            }
            for model_id, p in sorted(store.profiles.items())
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with atomic_writer(path) as f:
        f.write(text + "\n")


def load_profiles(path: str | Path) -> ProfileStore:
    payload = read_versioned(path, CorruptProfileStore, PROFILE_STORE_VERSION, STORE_FIELDS)
    profiles = {}
    for model_id, entry in payload["profiles"].items():
        where = f"{path}: model {model_id!r}"
        check_fields(where, entry, PROFILE_FIELDS, CorruptProfileStore)
        try:
            raw = {parse_subject(name): float(v) for name, v in entry["raw"].items()}
            normalized = {
                parse_subject(name): float(v) for name, v in entry["normalized"].items()
            }
        except UnknownSubject as exc:
            raise CorruptProfileStore(f"{where}: {exc}") from exc
        if set(normalized) != set(SUBJECTS):
            raise CorruptProfileStore(f"{where}: normalized scores do not cover the taxonomy")
        profiles[model_id] = ModelProfile(
            model_id=model_id,
            raw=raw,
            normalized={s: normalized[s] for s in SUBJECTS},
            uniform_fallback=entry["uniform_fallback"],
        )
    return ProfileStore(profiles=profiles, provenance=payload.get("provenance", {}))
