"""Per-model subject capability profiles and subject-to-model selection.

Each pooled model answers every profiling question once; a correct answer
credits the model with the question's subject weights. Credit is normalized
within each model to a distribution over subjects, and selection for a
subject is the argmax of that normalized score across models.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .backends import ChatClient, ChatRequest
from .errors import CorruptProfileStore, EmptyPool, EmptySplit, TransportError, VersionMismatch
from .subjects import (
    NUM_SUBJECTS,
    SUBJECTS,
    QuestionRecord,
    Subject,
    SubjectWeights,
    dominant_subject,
    parse_subject,
)

logger = logging.getLogger(__name__)

PROFILE_STORE_VERSION = 1


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
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = raw["models"] if isinstance(raw, dict) else raw
    pool = [
        ModelPoolEntry(
            model_id=e["model_id"],
            backend=e["backend"],
            declared_subjects=tuple(parse_subject(s) for s in e.get("declared_subjects", [])),
        )
        for e in entries
    ]
    if not pool:
        raise EmptyPool(f"{path}: pool is empty")
    ids = [e.model_id for e in pool]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate model_id in pool")
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
    if not store.profiles:
        raise EmptyPool("no profiles to select from")
    return min(
        store.profiles.values(), key=lambda p: (-p.normalized[subject], p.model_id)
    ).model_id


def selection_map(subjects: list[Subject], store: ProfileStore) -> dict[Subject, str]:
    return {s: select_model(s, store) for s in subjects}


def _dataset_hash(records: list[QuestionRecord]) -> str:
    joined = "\n".join(sorted(r.id for r in records))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def run_profiling(
    pool: list[ModelPoolEntry],
    split: list[QuestionRecord],
    client: ChatClient,
    seed: int = 0,
) -> ProfileStore:
    """Grade every pool model on every profiling question and build profiles."""
    from .orchestrator import extract_answer, render_single_cot_prompt

    if not pool:
        raise EmptyPool("empty model pool")
    if not split:
        raise EmptySplit("empty profiling split")
    for record in split:
        if record.subjects is None:
            raise ValueError(f"record {record.id}: profiling needs finalized subjects")

    results: list[GradedResult] = []
    calls = 0
    failures = 0
    for entry in sorted(pool, key=lambda e: e.model_id):
        for record in sorted(split, key=lambda r: r.id):
            request = ChatRequest(
                backend=entry.backend,
                user=render_single_cot_prompt(record),
                metadata={
                    "question_id": record.id,
                    "role": "profiling",
                    "model_id": entry.model_id,
                    "gold": record.gold,
                    "wrong": record.wrong_label(),
                    "dominant_subject": dominant_subject(record.subjects).value,
                },
            )
            calls += 1
            try:
                reply = client.complete(request).text
                correct = extract_answer(reply) == record.gold
            except TransportError as exc:
                logger.warning(
                    "profiling %s on %s: %s (graded incorrect)",
                    entry.model_id, record.id, exc,
                )
                failures += 1
                correct = False
            results.append(
                GradedResult(
                    question_id=record.id, weights=record.subjects,
                    model_id=entry.model_id, correct=correct,
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
        "calls": calls,
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
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_profiles(path: str | Path) -> ProfileStore:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorruptProfileStore(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CorruptProfileStore(f"{path}: top level is not an object")
    version = payload.get("version")
    if not isinstance(version, int):
        raise CorruptProfileStore(f"{path}: missing or malformed version field")
    if version != PROFILE_STORE_VERSION:
        raise VersionMismatch(f"{path}: store version {version}, supported {PROFILE_STORE_VERSION}")
    try:
        profiles = {}
        for model_id, entry in payload["profiles"].items():
            raw = {parse_subject(name): float(v) for name, v in entry["raw"].items()}
            normalized = {
                parse_subject(name): float(v) for name, v in entry["normalized"].items()
            }
            if set(normalized) != set(SUBJECTS):
                raise CorruptProfileStore(
                    f"{path}: model {model_id!r} normalized scores do not cover the taxonomy"
                )
            profiles[model_id] = ModelProfile(
                model_id=model_id,
                raw=raw,
                normalized={s: normalized[s] for s in SUBJECTS},
                uniform_fallback=bool(entry["uniform_fallback"]),
            )
    except CorruptProfileStore:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptProfileStore(f"{path}: malformed profile entry ({exc})") from exc
    return ProfileStore(profiles=profiles, provenance=payload.get("provenance", {}))
