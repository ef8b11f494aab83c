"""Flow pools: mock experts that answer right only on a hint received over an
S-DAG edge, so a DAG's edges decide its answers."""

import json
import re
from pathlib import Path

import pytest

from conftest import (
    N_HELD,
    flow_backend_configs,
    flow_client,
    make_profiling_records,
    oracle_client,
    oracle_pool,
    slug,
)
from sdag.backends import ChatRequest
from sdag.evaluation import EvalConfig, evaluate
from sdag.orchestrator import AgentRole, question_block, render_prompt
from sdag.profiling import run_profiling
from sdag.router.generation import GenerationConfig
from sdag.subjects import QuestionRecord, Subject, answer_key

# A Math-dominant question that plants Computer Science: a two-word subject,
# whose hint the strict rule's backreference must match across case.
RECORD = QuestionRecord(
    id="flow-0",
    question="math math math math math computer science computer science",
    options=["choice 1", "choice 2", "choice 3", "choice 4"],
    gold="C",
    subjects={Subject.MATH: 5 / 7, Subject.COMPUTER_SCIENCE: 2 / 7},
    split=None,
)
GOLD, WRONG = "<<C>>", "<<A>>"
POOLS = pytest.mark.parametrize("strict", [False, True], ids=["flow", "strict"])
RECEIVERS = pytest.mark.parametrize("role", [AgentRole.SUPPORTING, AgentRole.DOMINANT])


def reply(strict: bool, subject: Subject, upstream=(), role=AgentRole.SUBJECT_EXPERT) -> str:
    """What the subject's own expert in a flow pool replies to the node prompt
    that `render_prompt` builds, with the metadata of an evaluation call."""
    request = ChatRequest(
        backend=f"mock-{slug(subject)}",
        user=render_prompt(role, subject, question_block(RECORD), list(upstream)),
        metadata={"subject": subject.value, **answer_key(RECORD)},
    )
    return flow_client(strict).complete(request).text


@POOLS
@pytest.mark.parametrize("subject", [Subject.MATH, Subject.COMPUTER_SCIENCE, Subject.LAW])
def test_no_upstream_text_gets_a_hint_and_the_wrong_label(strict, subject):
    # Even the dominant subject's expert answers wrong without a hint.
    assert reply(strict, subject) == f"FLOWHINT from {subject.value}: {WRONG}"


@POOLS
@RECEIVERS
def test_a_hint_from_a_planted_subject_lets_only_the_right_expert_answer(strict, role):
    upstream = [(Subject.COMPUTER_SCIENCE, reply(strict, Subject.COMPUTER_SCIENCE))]
    assert reply(strict, Subject.MATH, upstream, role) == GOLD
    assert reply(strict, Subject.PHYSICS, upstream, role) == WRONG


@POOLS
@RECEIVERS
def test_a_hint_from_an_unplanted_subject_counts_only_in_the_flow_pool(strict, role):
    upstream = [(Subject.LAW, reply(strict, Subject.LAW))]
    assert reply(strict, Subject.MATH, upstream, role) == (WRONG if strict else GOLD)


def test_formats_doc_shows_the_flow_pool_math_script():
    text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text("utf-8")
    section = text.split("rule order makes a conjunction", 1)[1]
    documented = json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    math = next(c for c in flow_backend_configs() if c.name == "mock-math")
    assert documented == [{"match": "default", **rule} for rule in math.script]


# -- accuracy on the shared trained router's held-out questions --------------


@pytest.fixture(scope="module")
def store():
    return run_profiling(oracle_pool(), make_profiling_records(), oracle_client(), seed=0)


@pytest.fixture()
def run(trained_router, store):
    assert len(trained_router.held_records) == N_HELD == 120

    def run(mode, strict=False, routed=True, edge_threshold=0.5):
        router = dict(params=trained_router.params, embedder=trained_router.embedder)
        cfg = EvalConfig(
            mode=mode, seeds=1, generation=GenerationConfig(edge_threshold=edge_threshold)
        )
        report = evaluate(
            trained_router.held_records, flow_client(strict), oracle_pool(), cfg,
            store=store, **(router if routed else {}),
        )
        return round(report.accuracy_mean, 3), round(report.avg_calls, 2)

    return run


def test_strict_flow_sdag_scores_only_over_its_edges(run):
    assert run("sdag", strict=True) == (0.792, 2.86)
    assert run("sdag", strict=True, edge_threshold=0.999999999) == (0.000, 2.86)


def test_strict_flow_no_gnn_answers_all_on_the_ground_truth_dags(run):
    assert run("no_gnn", strict=True, routed=False) == (1.000, 2.92)


def test_strict_flow_fcg_matches_sdag_at_twice_the_calls(run):
    assert run("fcg", strict=True) == (0.792, 5.72)


def test_flow_baselines_score_near_zero(run):
    assert run("sdag") == (0.792, 2.86)
    assert run("random_model") == (0.067, 2.86)
    assert run("single_cot", routed=False) == (0.000, 1.00)
