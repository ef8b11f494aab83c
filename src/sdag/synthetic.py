"""Synthetic multi-subject questions with known ground truth.

Each question plants 2-4 subject names as repeated keywords; a subject's
repeat count is proportional to its weight, so a bag-of-words embedding
carries the dominance structure and the routing task is learnable without a
semantic encoder. Dominant subjects repeat their keyword 5-6 times and
supporting subjects twice, which keeps every weight at least 0.75/k counts
away from the dominance boundary, so labels are unambiguous in embedding
space. Labels come from the ground-truth DAG rule applied to the planted
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subjects import (
    SUBJECTS,
    OPTION_LABELS,
    QuestionRecord,
    SDag,
    Subject,
    SubjectWeights,
    build_ground_truth_dag,
)

# "Other" has no expert model and is dropped from ground truth, so the
# generator plants only the 14 real subjects.
PLANTABLE = tuple(s for s in SUBJECTS if s is not Subject.OTHER)


# The keyword counts of the module docstring. With at most 4 subjects the
# smallest planted weight is 2/20 = 0.1, so the ground-truth rule never drops a
# planted subject, and dominant counts clear the mean by at least 0.75 in either
# direction, so dominance labels have a wide margin.
MIN_SUBJECTS, MAX_SUBJECTS = 2, 4
SUPPORT_COUNT = 2
DOMINANT_COUNTS = (5, 6)
N_OPTIONS = 4


@dataclass(frozen=True)
class SyntheticConfig:
    n_questions: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_questions < 1:
            raise ValueError("n_questions must be >= 1")


def _draw_weights(rng: np.random.Generator) -> tuple[SubjectWeights, dict]:
    n = int(rng.integers(MIN_SUBJECTS, MAX_SUBJECTS + 1))
    picks = rng.choice(len(PLANTABLE), size=n, replace=False)
    subjects = sorted((PLANTABLE[i] for i in picks), key=lambda s: s.index)
    n_dominant = int(rng.integers(1, n))
    dominant_count = int(rng.integers(DOMINANT_COUNTS[0], DOMINANT_COUNTS[1] + 1))
    dominant_slots = {int(i) for i in rng.choice(n, size=n_dominant, replace=False)}
    counts = {
        s: dominant_count if i in dominant_slots else SUPPORT_COUNT
        for i, s in enumerate(subjects)
    }
    total = sum(counts.values())
    weights = {s: counts[s] / total for s in subjects}
    return weights, counts


def _question_text(counts: dict) -> str:
    tokens = []
    for subject in sorted(counts, key=lambda s: s.index):
        tokens.extend([subject.value.lower()] * counts[subject])
    return " ".join(tokens)


def generate_synthetic_records(cfg: SyntheticConfig = SyntheticConfig()) -> list[QuestionRecord]:
    """Questions with planted subjects, random gold labels, dummy options."""
    rng = np.random.default_rng(cfg.seed)
    records = []
    for i in range(cfg.n_questions):
        weights, counts = _draw_weights(rng)
        gold = OPTION_LABELS[int(rng.integers(0, N_OPTIONS))]
        records.append(
            QuestionRecord(
                id=f"q{i:05d}",
                question=_question_text(counts),
                options=[f"choice {j + 1}" for j in range(N_OPTIONS)],
                gold=gold,
                subjects=weights,
                split=None,
            )
        )
    return records


def dag_dataset(records: list[QuestionRecord]) -> list[tuple[str, SDag]]:
    """(question text, ground-truth DAG) training pairs from annotated records."""
    pairs = []
    for record in records:
        if record.subjects is None:
            raise ValueError(f"record {record.id}: no subject annotation")
        pairs.append((record.question, build_ground_truth_dag(record.subjects)))
    return pairs
