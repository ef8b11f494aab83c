"""Execution traces pinned byte for byte against committed captures.

The captures under tests/golden/ were written by the three-executor
orchestrator that preceded the single plan runner; every mode must still
serialize to exactly the same JSONL. Regenerate (only for an intended format
change) with:

    PYTHONPATH=src python tests/test_golden_traces.py
"""

from pathlib import Path

import pytest

from sdag.orchestrator import execute_dag, execute_fcg, execute_single_cot
from sdag.subjects import QuestionRecord, SDagNode
from test_orchestrator import M, bipartite_dag, diamond_dag, echo_client, pool_for

GOLDEN_DIR = Path(__file__).parent / "golden"

QUESTION = QuestionRecord(
    id="q-golden",
    question="A charged sphere rolls down an incline; what is its final speed?",
    options=["1 m/s", "2 m/s", "3 m/s"],
    gold="B",
)
EXTRA = {"gold": "B", "wrong": "A", "dominant_subject": "Physics"}


def _dag(g):
    selection, backends = pool_for(g.subjects())
    return execute_dag(g, QUESTION, selection, backends, echo_client(), extra_metadata=EXTRA)


def _fcg(nodes):
    selection, backends = pool_for([n.subject for n in nodes])
    return execute_fcg(nodes, QUESTION, selection, backends, echo_client(),
                       extra_metadata=EXTRA)


CASES = {
    "sdag_diamond": lambda: _dag(diamond_dag()),
    "sdag_bipartite": lambda: _dag(bipartite_dag()),
    "fcg_bipartite": lambda: _fcg(list(bipartite_dag().nodes)),
    "fcg_single_node": lambda: _fcg([SDagNode(M, 1.0)]),
    "single_cot": lambda: execute_single_cot(
        QUESTION, "model-x", "echo", echo_client(), extra_metadata=EXTRA
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.jsonl").read_bytes()
    assert CASES[name]().to_jsonl().encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, run in CASES.items():
        (GOLDEN_DIR / f"{case}.jsonl").write_bytes(run().to_jsonl().encode("utf-8"))
        print(f"wrote {case}.jsonl")
