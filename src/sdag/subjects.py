"""Subject taxonomy, weight distributions, and the subject-DAG data model.

Everything else in the package routes through the closed 15-subject taxonomy
defined here: annotation weights are distributions over it, routing graphs are
built on it, and capability profiles are indexed by it.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

from .errors import EmptyAfterThreshold, UnknownSubject

WEIGHT_SUM_TOL = 1e-6
MAX_DAG_NODES = 5
# Annotated weights below this are dropped from a ground-truth DAG.
WEIGHT_THRESHOLD = 0.1


class Subject(enum.Enum):
    """One of the 15 canonical subjects. Definition order is the canonical order."""

    MATH = "Math"
    PHYSICS = "Physics"
    CHEMISTRY = "Chemistry"
    LAW = "Law"
    ENGINEERING = "Engineering"
    ECONOMICS = "Economics"
    HEALTH = "Health"
    PSYCHOLOGY = "Psychology"
    BUSINESS = "Business"
    BIOLOGY = "Biology"
    PHILOSOPHY = "Philosophy"
    COMPUTER_SCIENCE = "Computer Science"
    HISTORY = "History"
    MEDICINE = "Medicine"
    OTHER = "Other"

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality and spares every subject-keyed dict
    # the Python-level `Enum.__hash__` call.
    __hash__ = object.__hash__

    @property
    def index(self) -> int:
        """0-based position in canonical order; stable across runs."""
        return _SUBJECT_INDEX[self]

    def __repr__(self) -> str:  # keeps trace/report dumps compact
        return f"Subject({self.value})"


SUBJECTS: tuple[Subject, ...] = tuple(Subject)
NUM_SUBJECTS = len(SUBJECTS)

_SUBJECT_INDEX = {s: i for i, s in enumerate(SUBJECTS)}
_OTHER = Subject.OTHER
_SUBJECT_BY_LOWER = {s.value.lower(): s for s in SUBJECTS}

# A question's weight distribution over subjects. Finalized distributions sum
# to 1 within WEIGHT_SUM_TOL and hold 2-5 entries.
SubjectWeights = dict[Subject, float]


def parse_subject(name: str) -> Subject:
    """Resolve a case-insensitive subject name to its canonical member.

    Raises UnknownSubject for anything outside the taxonomy.
    """
    key = name.strip().lower()
    try:
        return _SUBJECT_BY_LOWER[key]
    except KeyError:
        raise UnknownSubject(name) from None


def renormalize(weights: SubjectWeights) -> SubjectWeights:
    """Scale weights to sum to 1, keyed in canonical subject order."""
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("cannot renormalize weights with non-positive total")
    ordered = sorted(weights.items(), key=lambda kv: _SUBJECT_INDEX[kv[0]])
    return {s: w / total for s, w in ordered}


def check_weights(weights: SubjectWeights, finalized: bool = False) -> None:
    """Validate a weight distribution; raises ValueError on violation."""
    for s, w in weights.items():
        if not isinstance(s, Subject):
            raise ValueError(f"non-Subject key: {s!r}")
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"weight out of range for {s.value}: {w}")
    if finalized:
        total = sum(weights.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"finalized weights sum to {total}, expected 1")
        if not 2 <= len(weights) <= 5:
            raise ValueError(f"finalized weights need 2-5 entries, got {len(weights)}")


@dataclass(frozen=True)
class SDagNode:
    subject: Subject
    score: float


@dataclass(frozen=True)
class SDagEdge:
    src: Subject
    dst: Subject
    score: float = 1.0


@dataclass
class SDag:
    """A small directed acyclic graph of subjects: the routing blueprint.

    Nodes carry a relevance score in [0, 1]; edges point from supporting
    subjects toward the subjects they feed.
    """

    nodes: list[SDagNode] = field(default_factory=list)
    edges: list[SDagEdge] = field(default_factory=list)

    def subjects(self) -> list[Subject]:
        return [n.subject for n in self.nodes]

    def score_of(self, subject: Subject) -> float:
        for n in self.nodes:
            if n.subject == subject:
                return n.score
        raise KeyError(subject.value)

    def topological_order(self) -> list[Subject]:
        """Kahn's algorithm with canonical-order tie-breaking; deterministic.

        Raises ValueError if the graph has a cycle.
        """
        indeg = {n.subject: 0 for n in self.nodes}
        children: dict[Subject, list[Subject]] = {n.subject: [] for n in self.nodes}
        for e in self.edges:
            indeg[e.dst] += 1
            children[e.src].append(e.dst)
        return kahn_order(indeg, children, len(self.nodes))


def kahn_order(indeg: dict[Subject, int], children: dict[Subject, list[Subject]],
               size: int) -> list[Subject]:
    """Kahn's algorithm over in-degrees (counted down in place) and child
    lists, taking ready subjects in canonical order; ValueError unless all
    `size` nodes are ordered."""
    ready = [_SUBJECT_INDEX[s] for s, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[Subject] = []
    while ready:
        s = SUBJECTS[heapq.heappop(ready)]
        order.append(s)
        for c in children[s]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, _SUBJECT_INDEX[c])
    if len(order) != size:
        raise ValueError("graph contains a cycle")
    return order


@dataclass
class ValidationReport:
    """Structural violations found in a graph; empty means valid."""

    violations: list[str] = field(default_factory=list, init=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def validate_dag(g: SDag) -> ValidationReport:
    """Check every structural invariant; violations are reported, not raised."""
    report = ValidationReport()
    subjects = [n.subject for n in g.nodes]
    node_set = set(subjects)
    if len(subjects) != len(node_set):
        report.add("duplicate nodes")
    if not g.nodes:
        report.add("graph has no nodes")
    if len(g.nodes) > MAX_DAG_NODES:
        report.add(f"more than {MAX_DAG_NODES} nodes: {len(g.nodes)}")
    for n in g.nodes:
        if not 0.0 <= n.score <= 1.0:
            report.add(f"node score out of range: {n.subject.value}={n.score}")
    seen_edges = set()
    endpoints_ok = True
    for e in g.edges:
        if e.src == e.dst:
            report.add(f"self-loop on {e.src.value}")
        if (e.src, e.dst) in seen_edges:
            report.add(f"duplicate edge {e.src.value}->{e.dst.value}")
        seen_edges.add((e.src, e.dst))
        if e.src not in node_set or e.dst not in node_set:
            report.add(f"edge endpoint not a node: {e.src.value}->{e.dst.value}")
            endpoints_ok = False
        if not 0.0 <= e.score <= 1.0:
            report.add(f"edge score out of range: {e.src.value}->{e.dst.value}={e.score}")
    # Cycle detection needs a traversable graph: unique nodes, endpoints present.
    if len(subjects) == len(node_set) and endpoints_ok:
        try:
            g.topological_order()
        except ValueError:
            report.add("graph contains a cycle")
    return report


def build_ground_truth_dag(weights: SubjectWeights, threshold: float = WEIGHT_THRESHOLD) -> SDag:
    """Turn an annotated weight distribution into a supports-to-dominant DAG.

    Entries below the threshold (and the catch-all Other subject, which no
    expert model serves) are discarded and the survivors renormalized. With k
    survivors, subjects whose renormalized weight strictly exceeds 1/k become
    dominant; the rest are supporting and gain one directed edge into every
    dominant subject. If no weight strictly exceeds 1/k, every maximum-weight
    subject is promoted to dominant and the graph has no edges.
    """
    check_weights(weights)
    total = sum(weights.values())
    if not weights or abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total}")

    survivors = {s: w for s, w in weights.items() if w >= threshold and s is not _OTHER}
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
    # norm is keyed in canonical order, so nodes and edges come out in it.
    supporting = [s for s in norm if s not in dominants]
    nodes = [SDagNode(s, w) for s, w in norm.items()]
    edges = [SDagEdge(src, dst, 1.0) for src in supporting for dst in dominants]
    return SDag(nodes=nodes, edges=edges)


def dominant_subject(weights: SubjectWeights) -> Subject:
    """Highest-weight subject of a distribution, canonical-order tie-break."""
    if not weights:
        raise ValueError("empty weight distribution")
    return max(weights, key=lambda s: (weights[s], -s.index))


# Option labels for multiple-choice questions, by position.
OPTION_LABELS = "ABCDEFGHIJ"

SPLITS = ("train", "test", "profiling")


@dataclass
class QuestionRecord:
    """One multiple-choice question, optionally annotated and split-assigned."""

    id: str
    question: str
    options: list[str]
    gold: str
    subjects: SubjectWeights | None = None
    split: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("record id is required")
        if not self.question:
            raise ValueError(f"record {self.id}: question text is empty")
        if not self.options:
            raise ValueError(f"record {self.id}: no options")
        if len(self.options) > len(OPTION_LABELS):
            raise ValueError(f"record {self.id}: more than {len(OPTION_LABELS)} options")
        if self.gold not in OPTION_LABELS[: len(self.options)]:
            raise ValueError(f"record {self.id}: gold {self.gold!r} labels no option")
        if self.split is not None and self.split not in SPLITS:
            raise ValueError(f"record {self.id}: unknown split {self.split!r}")

    def wrong_label(self) -> str:
        """Some existing non-gold option label (first in label order)."""
        for label in OPTION_LABELS[: len(self.options)]:
            if label != self.gold:
                return label
        return self.gold  # single-option degenerate case

    def formatted_options(self) -> str:
        return "\n".join(
            f"{OPTION_LABELS[i]}. {text}" for i, text in enumerate(self.options)
        )


def answer_key(record: QuestionRecord) -> dict[str, str]:
    """The request metadata a scripted mock answers from: the gold label, a
    wrong label and, for an annotated record, its dominant subject."""
    key = {"gold": record.gold, "wrong": record.wrong_label()}
    if record.subjects:
        key["dominant_subject"] = dominant_subject(record.subjects).value
    return key
