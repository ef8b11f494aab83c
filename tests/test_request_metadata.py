"""The metadata every kind of call puts on its requests, checked against the
table in docs/formats.md that mock-script authors read."""

import re
from pathlib import Path

import pytest

from conftest import make_profiling_records, oracle_backend_configs, oracle_pool
from sdag.backends import BackendConfig, ChatClient, build_client
from sdag.curation import CurationConfig, curate_dataset
from sdag.embedding import HashedEmbedder
from sdag.evaluation import MODES, EvalConfig, evaluate
from sdag.orchestrator import execute_dag, execute_fcg, execute_single_cot
from sdag.profiling import run_profiling, selection_map
from sdag.router.generation import generate_sdag
from sdag.router.model import RouterDims, init_params
from sdag.subjects import QuestionRecord
from sdag.synthetic import SyntheticConfig, generate_synthetic_records

ROOT = Path(__file__).resolve().parents[1]
HEADER = ["metadata field", "sdag/fcg node", "single_cot", "profiling", "annotation"]


def documented_metadata() -> dict[str, dict[str, str]]:
    """docs/formats.md's request metadata table: call -> field -> cell."""
    table, reading = {call: {} for call in HEADER[1:]}, False
    for line in (ROOT / "docs" / "formats.md").read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells == HEADER:
            reading = True
        elif reading and line.startswith("|"):
            if set(cells[0]) <= set("-"):
                continue
            name = re.fullmatch(r"`([^`]+)`", cells[0]).group(1)
            for call, cell in zip(HEADER[1:], cells[1:]):
                table[call][name] = cell
        elif reading:
            break
    return table


def check_request(table, call: str, metadata: dict, via_eval: bool, annotated: bool) -> None:
    for name, cell in table[call].items():
        values = re.findall(r"`([^`]+)`", cell)
        if values:
            assert metadata.get(name) in values, (call, name, metadata)
            continue
        expected = {
            "yes": True,
            "no": False,
            "eval": via_eval,
            "eval, if annotated": via_eval and annotated,
        }[cell]
        assert (name in metadata) == expected, (call, name, cell, metadata)
    assert set(metadata) <= set(table[call]), (call, metadata)


@pytest.fixture()
def sent(monkeypatch):
    requests = []
    real = ChatClient.complete

    def spy(client, req):
        requests.append(dict(req.metadata))
        return real(client, req)

    monkeypatch.setattr(ChatClient, "complete", spy)
    return requests


def plain_client() -> ChatClient:
    """The oracle pool's backend names plus an annotator, each answering
    without reading any metadata field."""
    configs = [
        BackendConfig(name=c.name, kind="mock", script=[{"reply": "<<A>>"}])
        for c in oracle_backend_configs()
    ]
    configs.append(BackendConfig(name="annotator", kind="mock",
                                 script=[{"reply": "Keywords: <Math 0.6>, <Physics 0.4>"}]))
    return build_client(configs)


def test_request_metadata_matches_the_documented_table(sent):
    table = documented_metadata()
    assert set(table["sdag/fcg node"]) == {
        "question_id", "role", "subject", "gold", "wrong", "dominant_subject", "model_id", "round",
    }
    client, pool = plain_client(), oracle_pool()
    profiling = make_profiling_records()
    store = run_profiling(pool, profiling, client)
    assert len(sent) == len(pool) * len(profiling)
    for metadata in sent:
        check_request(table, "profiling", metadata, via_eval=False, annotated=True)

    dims = RouterDims(d_s=32, d_q=256, h=64, L=2)
    params, embedder = init_params(dims, seed=0), HashedEmbedder(d=dims.d_q)
    annotated = generate_synthetic_records(SyntheticConfig(n_questions=6, seed=3))
    bare = [QuestionRecord(id=f"bare-{r.id}", question=r.question, options=r.options,
                           gold=r.gold) for r in annotated]
    for mode in MODES:
        records = annotated if mode == "no_gnn" else annotated + bare
        by_id = {r.id: r for r in records}
        sent.clear()
        evaluate(records, client, pool, EvalConfig(mode=mode, seeds=1),
                 params=params, embedder=embedder, store=store)
        assert sent
        call = "single_cot" if mode == "single_cot" else "sdag/fcg node"
        for metadata in sent:
            record = by_id[metadata["question_id"]]
            check_request(table, call, metadata, via_eval=True, annotated=bool(record.subjects))

    # `sdag run` and direct library calls: a bare question, no extra metadata.
    text = annotated[0].question
    g = generate_sdag(text, params, embedder)
    assert g.edges  # so the Supporting and Dominant roles are reached
    selection = selection_map(g.subjects(), store)
    backends = {e.model_id: e.backend for e in pool}
    sent.clear()
    execute_dag(g, text, selection, backends, client)
    execute_fcg(g.nodes, text, selection, backends, client)
    for metadata in sent:
        assert metadata["question_id"] == ""
        check_request(table, "sdag/fcg node", metadata, via_eval=False, annotated=False)
    sent.clear()
    execute_single_cot(annotated[0], pool[0].model_id, pool[0].backend, client)
    check_request(table, "single_cot", sent[0], via_eval=False, annotated=True)

    sent.clear()
    curate_dataset(annotated, client, CurationConfig(profiling_size=0))
    assert [m["round"] for m in sent] == [0, 1, 2] * len(annotated)
    for metadata in sent:
        check_request(table, "annotation", metadata, via_eval=False, annotated=False)
