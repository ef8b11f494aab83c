"""Dataset curation: subject annotation, consensus filtering, splits, JSONL.

Each question is annotated three times by a chat backend, the three weight
distributions are merged by intersection-and-mean consensus, single-subject
questions are discarded, and survivors are assigned train/test/profiling
splits by a seeded shuffle. Output is line-delimited JSON, byte-stable for a
fixed seed and a scripted annotator.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backends import ChatClient, ChatRequest
from .errors import (
    InvalidWeight,
    NoConsensus,
    ParseFailure,
    SdagError,
    TransportError,
    UnknownSubject,
)
from .fileio import RECORD_FIELDS, atomic_writer, check_fields, parse_json
from .subjects import (
    MAX_DAG_NODES,
    SUBJECTS,
    QuestionRecord,
    Subject,
    SubjectWeights,
    check_weights,
    parse_subject,
    renormalize,
)

logger = logging.getLogger(__name__)

ANNOTATION_PROMPT = (
    "Question: {Q}\n"
    "What are the core knowledge, subjects or skills needed to solve this problem? "
    "List 2-5 keywords separated in comma, with the weights (0~1.0). These weights "
    "represent the proportion of these skills are needed in the question. And the "
    "proportion of all keywords sum to 1. Candidate keywords: Math, Physics, "
    "Chemistry, Law, Engineering, Economics, Health, Psychology, Business, Biology, "
    "Philosophy, Computer Science, History, Medicine, Other. Give ONLY the keywords "
    "with weights, no other words or explanation.\n"
    "Please follow this format: Keywords: <Math 0.6>, <Physics 0.3>, <Chemistry 0.1>..."
)

CONSENSUS_ROUNDS = 3


def render_annotation_prompt(record: QuestionRecord | str) -> str:
    """Annotation prompt with the question text substituted, unescaped."""
    question = record.question if isinstance(record, QuestionRecord) else record
    if not question:
        raise ValueError("question text is empty")
    return ANNOTATION_PROMPT.replace("{Q}", question)


_GROUP_RE = re.compile(r"<\s*([^<>0-9][^<>]*?)\s+([0-9][0-9.eE+-]*)\s*>")
_MARKER_RE = re.compile(r"[Kk]eywords\s*:")


def parse_annotation_reply(reply: str) -> SubjectWeights:
    """Extract `<Name Weight>` groups after the last "Keywords:" marker.

    The marker is optional. Groups with unknown subject names are dropped;
    duplicate subjects keep the last weight; the result is renormalized.
    """
    tail = reply
    markers = list(_MARKER_RE.finditer(reply))
    if markers:
        tail = reply[markers[-1].end() :]
    weights: SubjectWeights = {}
    for match in _GROUP_RE.finditer(tail):
        name, weight_text = match.group(1), match.group(2)
        try:
            subject = parse_subject(name)
        except UnknownSubject:
            logger.debug("dropping unknown subject token %r", name)
            continue
        try:
            weight = float(weight_text)
        except ValueError:
            continue
        if not (0.0 <= weight <= 1.0):
            raise InvalidWeight(f"weight {weight} for {subject.value} outside [0, 1]")
        weights[subject] = weight
    if not weights:
        raise ParseFailure(f"no subject/weight groups in reply: {reply[:80]!r}")
    if sum(weights.values()) <= 0.0:
        raise ParseFailure("all parsed weights are zero")
    return renormalize(weights)


def consensus_merge(runs: list[SubjectWeights]) -> SubjectWeights:
    """Keep subjects present in all rounds; average their weights; renormalize."""
    if len(runs) != CONSENSUS_ROUNDS:
        raise ValueError(f"consensus requires exactly {CONSENSUS_ROUNDS} runs, got {len(runs)}")
    shared = set(runs[0])
    for run in runs[1:]:
        shared &= set(run)
    if not shared:
        raise NoConsensus("no subject appears in all annotation rounds")
    # Canonical order, not set order: renormalize sums the means in key order,
    # and a float sum depends on its order.
    means = {
        s: sum(run[s] for run in runs) / len(runs)
        for s in sorted(shared, key=lambda s: s.index)
    }
    return renormalize(means)


def _truncate_to_cap(weights: SubjectWeights) -> SubjectWeights:
    if len(weights) <= MAX_DAG_NODES:
        return weights
    keep = sorted(weights, key=lambda s: (-weights[s], s.index))[:MAX_DAG_NODES]
    return renormalize({s: weights[s] for s in keep})


@dataclass(frozen=True)
class CurationConfig:
    backend: str = "annotator"
    seed: int = 0
    profiling_size: int = 200
    train_ratio: float = 0.7
    profiling_from_test: bool = False

    def __post_init__(self):
        if self.profiling_size < 0:
            raise ValueError("profiling_size must be >= 0")
        if not (0.0 < self.train_ratio < 1.0):
            raise ValueError("train_ratio must lie in (0, 1)")


@dataclass
class CuratedDataset:
    records: list[QuestionRecord]
    skipped: list[tuple[str, str]]
    stats: dict = field(default_factory=dict)


def _annotate_question(record: QuestionRecord, client: ChatClient, cfg: CurationConfig):
    prompt = render_annotation_prompt(record)
    runs = []
    for round_index in range(CONSENSUS_ROUNDS):
        response = client.complete(
            ChatRequest(
                backend=cfg.backend,
                user=prompt,
                metadata={
                    "question_id": record.id,
                    "role": "annotator",
                    "round": round_index,
                },
            )
        )
        runs.append(parse_annotation_reply(response.text))
    return runs


def assign_splits(
    records: list[QuestionRecord], cfg: CurationConfig
) -> list[QuestionRecord]:
    """Seeded shuffle, then profiling / train / test assignment.

    Default: the profiling split is drawn first (disjoint from train and
    test). With profiling_from_test, train/test are cut first and profiling
    is drawn out of the test portion.
    """
    records = sorted(records, key=lambda r: r.id)
    n = len(records)
    order = np.random.default_rng(cfg.seed).permutation(n).tolist()
    # Splits are consecutive runs of the shuffled order: profiling, train,
    # test by default; train, profiling, test with profiling_from_test.
    if cfg.profiling_from_test:
        n_train = int(round(n * cfg.train_ratio))
        available, where = n - n_train, "test portion"
        take = min(cfg.profiling_size, available)
        runs = ["train"] * n_train + ["profiling"] * take
    else:
        available, where = n, "dataset"
        take = min(cfg.profiling_size, available)
        runs = ["profiling"] * take + ["train"] * int(round((n - take) * cfg.train_ratio))
    if take < cfg.profiling_size:
        logger.warning(
            "profiling split truncated to %d (%s has only %d records)", take, where, available
        )
    runs += ["test"] * (n - len(runs))
    split_at = dict(zip(order, runs))
    return [dataclasses.replace(r, split=split_at[i]) for i, r in enumerate(records)]


def curate_dataset(
    raw: list[QuestionRecord], client: ChatClient, cfg: CurationConfig = CurationConfig()
) -> CuratedDataset:
    """Annotate, filter to multi-subject questions, and assign splits."""
    if not raw:
        raise ValueError("no input records")
    ids = [r.id for r in raw]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate question ids in input")

    kept: list[QuestionRecord] = []
    skipped: list[tuple[str, str]] = []
    for record in sorted(raw, key=lambda r: r.id):
        try:
            runs = _annotate_question(record, client, cfg)
        except TransportError as exc:
            logger.warning("skipping %s: transport failure (%s)", record.id, exc)
            skipped.append((record.id, "transport"))
            continue
        except (ParseFailure, InvalidWeight) as exc:
            logger.warning("skipping %s: unusable annotation (%s)", record.id, exc)
            skipped.append((record.id, "parse"))
            continue
        try:
            merged = consensus_merge(runs)
        except NoConsensus:
            skipped.append((record.id, "no_consensus"))
            continue
        merged = _truncate_to_cap(merged)
        if len(merged) < 2:
            skipped.append((record.id, "single_subject"))
            continue
        check_weights(merged, finalized=True)
        kept.append(dataclasses.replace(record, subjects=merged, split=None))

    kept = assign_splits(kept, cfg) if kept else []
    stats = {
        "input": len(raw),
        "kept": len(kept),
        "skipped": len(skipped),
        "avg_subjects_per_question": (
            sum(len(r.subjects) for r in kept) / len(kept) if kept else 0.0
        ),
        "splits": {
            name: sum(1 for r in kept if r.split == name)
            for name in ("train", "test", "profiling")
        },
    }
    return CuratedDataset(records=kept, skipped=skipped, stats=stats)


# -- JSONL persistence ------------------------------------------------------


def weights_to_names(weights: SubjectWeights) -> dict[str, float]:
    return {s.value: float(w) for s, w in weights.items()}


def record_to_dict(record: QuestionRecord) -> dict:
    return {
        "id": record.id,
        "question": record.question,
        "options": list(record.options),
        "gold": record.gold,
        "subjects": weights_to_names(record.subjects) if record.subjects else None,
        "split": record.split,
    }


def write_records(records: list[QuestionRecord], path: str | Path) -> None:
    lines = [
        json.dumps(record_to_dict(r), sort_keys=True, ensure_ascii=False) for r in records
    ]
    with atomic_writer(path) as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def read_records(path: str | Path) -> list[QuestionRecord]:
    """Read a question dataset: one checked JSON object per non-blank line,
    each with an id no earlier line has."""
    records = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        raw = parse_json(line, where, SdagError)
        check_fields(where, raw, RECORD_FIELDS, SdagError)
        first = first_line.setdefault(raw["id"], lineno)
        if first != lineno:
            raise SdagError(f"{where}: duplicate id {raw['id']!r} (first on line {first})")
        try:
            weights = {parse_subject(n): float(w) for n, w in (raw.get("subjects") or {}).items()}
            check_weights(weights)
            records.append(QuestionRecord(
                id=raw["id"], question=raw["question"], options=raw["options"], gold=raw["gold"],
                subjects={s: weights[s] for s in SUBJECTS if s in weights} or None,
                split=raw.get("split"),
            ))
        except (ValueError, SdagError) as exc:
            raise SdagError(f"{where}: {exc}") from exc
    return records
