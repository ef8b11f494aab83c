"""Turn router predictions into a subject dependency DAG.

Node selection: probability threshold, cap at 5 (ties broken by canonical
subject order), single-best fallback when nothing clears the threshold, and
removal of the catch-all subject. Edge selection: threshold among retained
nodes, then a repair step that keeps an edge only when it points from a
lower-relevance subject to a higher-relevance one, which makes the result
acyclic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..subjects import MAX_DAG_NODES, SUBJECTS, SDag, SDagEdge, SDagNode, Subject, validate_dag

Array = np.ndarray

_OTHER_INDEX = Subject.OTHER.index


@dataclass(frozen=True)
class GenerationConfig:
    node_threshold: float = 0.5
    edge_threshold: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.node_threshold < 1.0 and 0.0 <= self.edge_threshold < 1.0):
            raise ValueError("thresholds must lie in [0, 1)")


def _best(indices: list[int], probs: Array) -> int:
    return min(indices, key=lambda i: (-probs[i], i))


def kept_nodes(node_probs: Array, config: GenerationConfig) -> list[int]:
    """Indices of the subjects a DAG keeps, in canonical order."""
    probs = np.asarray(node_probs, dtype=np.float64)
    kept = [i for i in range(len(SUBJECTS)) if probs[i] > config.node_threshold]
    if len(kept) > MAX_DAG_NODES:
        kept = sorted(kept, key=lambda i: (-probs[i], i))[:MAX_DAG_NODES]
    if not kept:
        kept = [_best(list(range(len(SUBJECTS))), probs)]
    kept = [i for i in kept if i != _OTHER_INDEX]
    if not kept:
        # Only the catch-all cleared selection; promote the best real subject.
        kept = [_best([i for i in range(len(SUBJECTS)) if i != _OTHER_INDEX], probs)]
    return sorted(kept)


def assemble_dag(node_probs: Array, edge_probs: Array, config: GenerationConfig,
                 kept: list[int] | None = None) -> SDag:
    """Apply node/edge thresholds, the node cap, and acyclicity repair.

    Only the rows of `edge_probs` for the kept subjects are read. `kept` is
    `kept_nodes(node_probs, config)` when the caller has it already.
    """
    probs = np.asarray(node_probs, dtype=np.float64)
    if kept is None:
        kept = kept_nodes(probs, config)
    nodes = [SDagNode(subject=SUBJECTS[i], score=float(probs[i])) for i in kept]
    edges = []
    for i in kept:
        for j in kept:
            if i == j or edge_probs[i, j] <= config.edge_threshold:
                continue
            if probs[i] < probs[j] or (probs[i] == probs[j] and i < j):
                edges.append(
                    SDagEdge(src=SUBJECTS[i], dst=SUBJECTS[j], score=float(edge_probs[i, j]))
                )
    dag = SDag(nodes=nodes, edges=edges)
    report = validate_dag(dag)
    if not report.ok:
        raise RuntimeError(f"assembled DAG is invalid: {report.violations}")
    return dag


def generate_sdag(
    question, params, embedder, config: GenerationConfig = GenerationConfig(),
    *, edges: bool = True,
):
    """Embed questions, route them as one stack, and assemble their DAGs.

    `question` is one question, for which one SDag is returned, or a list of
    questions, for which their DAGs are returned in order; each is the same
    DAG as generated alone. Edges are scored only from the subjects a DAG
    keeps, and not at all for a single-node DAG; the rows of every question
    are scored in one edge-head call. With `edges=False` no edge is scored and
    each DAG keeps its nodes only, for callers that never read edges (fully
    connected execution); the nodes are the same as with edges.
    """
    from .model import route

    questions = [question] if isinstance(question, str) else list(question)
    if not questions:
        return []
    output = route(params, np.stack([embedder.embed(q) for q in questions]))
    kept = [kept_nodes(p, config) for p in output.node_probs]
    edge_probs = output.edge_rows([rows if edges and len(rows) > 1 else [] for rows in kept])
    dags = [assemble_dag(p, e, config, kept=k)
            for p, e, k in zip(output.node_probs, edge_probs, kept)]
    return dags[0] if isinstance(question, str) else dags
