"""Role assignment, prompt rendering, DAG execution, and baselines."""

import heapq
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdag.orchestrator
from conftest import live
from sdag.backends import BackendConfig, ChatClient, ChatResponse, MockBackend, build_client
from sdag.errors import AuthError, NoRuleMatched, RoleInputMismatch, TransportError
from sdag.orchestrator import (
    ANSWER_FORMAT_LINE,
    DOMINANT_PROMPT,
    SUBJECT_EXPERT_PROMPT,
    SUPPORTING_PROMPT,
    UNAVAILABLE,
    AgentRole,
    _PlanNode,
    execute_dag,
    execute_fcg,
    execute_single_cot,
    extract_answer,
    question_block,
    render_prompt,
    render_single_cot_prompt,
)
from sdag.subjects import SUBJECTS, QuestionRecord, SDag, SDagEdge, SDagNode, Subject

M, P, C, B = Subject.MATH, Subject.PHYSICS, Subject.CHEMISTRY, Subject.BIOLOGY


def echo_client(reply="I conclude <<A>> as {subject}."):
    return build_client(
        [BackendConfig(name="echo", kind="mock", script=[{"reply": reply}], seed=0)]
    )


def pool_for(subjects):
    selection = {s: f"model-{s.value.lower()}" for s in subjects}
    backends = {m: "echo" for m in selection.values()}
    return selection, backends


def chain_dag():
    # Physics supports Math; Math answers.
    return SDag(
        nodes=[SDagNode(P, 0.4), SDagNode(M, 0.6)],
        edges=[SDagEdge(P, M, 1.0)],
    )


def diamond_dag():
    # two supports feeding one dominant
    return SDag(
        nodes=[SDagNode(P, 0.3), SDagNode(B, 0.2), SDagNode(M, 0.5)],
        edges=[SDagEdge(P, M, 1.0), SDagEdge(B, M, 1.0)],
    )


def bipartite_dag():
    # two supports, two dominants
    return SDag(
        nodes=[SDagNode(M, 0.35), SDagNode(P, 0.15), SDagNode(C, 0.3), SDagNode(B, 0.2)],
        edges=[
            SDagEdge(P, M, 1.0), SDagEdge(P, C, 1.0),
            SDagEdge(B, M, 1.0), SDagEdge(B, C, 1.0),
        ],
    )


# -- roles ------------------------------------------------------------------


def roles_and_final(g):
    """Each subject's role label in `execute_dag`'s trace, and its answering subject."""
    selection, backends = pool_for(g.subjects())
    trace = execute_dag(g, "Q?", selection, backends, echo_client())
    return {Subject(r.subject): r.role for r in trace.records}, trace.final_subject


def test_roles_chain():
    roles, _ = roles_and_final(chain_dag())
    assert roles[P] == AgentRole.SUBJECT_EXPERT.value
    assert roles[M] == AgentRole.DOMINANT.value


def test_roles_middle_is_supporting():
    g = SDag(
        nodes=[SDagNode(M, 0.4), SDagNode(P, 0.3), SDagNode(C, 0.3)],
        edges=[SDagEdge(M, P, 1.0), SDagEdge(P, C, 1.0)],
    )
    roles, _ = roles_and_final(g)
    assert roles[M] == AgentRole.SUBJECT_EXPERT.value
    assert roles[P] == AgentRole.SUPPORTING.value
    assert roles[C] == AgentRole.DOMINANT.value


def test_roles_single_node_is_dominant():
    roles, _ = roles_and_final(SDag(nodes=[SDagNode(M, 1.0)]))
    assert roles[M] == AgentRole.DOMINANT.value


def test_pick_final_node_highest_score():
    roles, final = roles_and_final(bipartite_dag())
    assert roles[M] == roles[C] == AgentRole.DOMINANT.value
    assert final == M.value  # 0.35 > 0.3


def test_pick_final_node_tie_canonical():
    _, final = roles_and_final(SDag(nodes=[SDagNode(C, 0.5), SDagNode(M, 0.5)]))
    assert final == M.value


# -- prompt rendering -------------------------------------------------------


def test_expert_prompt_opening_and_question():
    text = render_prompt(AgentRole.SUBJECT_EXPERT, M, "What is 2+2?", [])
    assert text.startswith("You are an expert in Math.")
    assert "Question: What is 2+2?" in text
    assert "strictly from the perspective of Math" in text
    assert ANSWER_FORMAT_LINE not in text


def test_supporting_prompt_lines():
    text = render_prompt(AgentRole.SUPPORTING, C, "Q?", [(P, "input from physics")])
    assert text.startswith("You are an expert in Chemistry.")
    assert "information from Physics" in text
    assert "Supporting Information from Physics: input from physics" in text
    assert ANSWER_FORMAT_LINE not in text


def test_dominant_prompt_lines_and_format():
    text = render_prompt(AgentRole.DOMINANT, M, "Q?", [(P, "p-info"), (B, "b-info")])
    assert text.startswith("You are the lead Math expert")
    assert "- Physics: p-info" in text
    assert "- Biology: b-info" in text
    assert text.endswith(ANSWER_FORMAT_LINE)


def test_upstream_listed_in_canonical_order():
    text = render_prompt(AgentRole.DOMINANT, M, "Q?", [(B, "b"), (P, "p")])
    assert text.index("- Physics: p") < text.index("- Biology: b")


def test_role_input_mismatch():
    with pytest.raises(RoleInputMismatch):
        render_prompt(AgentRole.SUBJECT_EXPERT, M, "Q?", [(P, "x")])
    with pytest.raises(RoleInputMismatch):
        render_prompt(AgentRole.SUPPORTING, M, "Q?", [])
    with pytest.raises(RoleInputMismatch):
        render_prompt(AgentRole.DOMINANT, M, "Q?", [])


def test_answer_format_override():
    forced = render_prompt(AgentRole.SUBJECT_EXPERT, M, "Q?", [], append_answer_format=True)
    assert forced.endswith(ANSWER_FORMAT_LINE)
    suppressed = render_prompt(
        AgentRole.DOMINANT, M, "Q?", [(P, "p")], append_answer_format=False
    )
    assert ANSWER_FORMAT_LINE not in suppressed


def format_prompt(role, subject, question, upstream, append_answer_format):
    """A prompt rendered as first written: `str.format` on the role's template."""
    upstream = sorted(upstream, key=lambda pair: pair[0].index)
    if role is AgentRole.SUBJECT_EXPERT:
        text = SUBJECT_EXPERT_PROMPT.format(subject=subject.value, Q=question)
    elif role is AgentRole.SUPPORTING:
        text = SUPPORTING_PROMPT.format(
            subject=subject.value,
            Q=question,
            sources=", ".join(s.value for s, _ in upstream),
            support_lines="\n".join(
                f"Supporting Information from {s.value}: {content}" for s, content in upstream
            ),
        )
    else:
        text = DOMINANT_PROMPT.format(
            subject=subject.value,
            Q=question,
            expert_lines="\n".join(f"- {s.value}: {content}" for s, content in upstream),
        )
    if append_answer_format is None:
        append_answer_format = role is AgentRole.DOMINANT
    if append_answer_format:
        text += "\n" + ANSWER_FORMAT_LINE
    return text


BRACED_TEXT = st.lists(
    st.sampled_from(["{", "}", "{Q}", "{subject}", "{0}", "{}", "Q", "x + y", "\n"])
    | st.text(max_size=5),
    max_size=6,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(
    role=st.sampled_from(list(AgentRole)),
    subject=st.sampled_from(SUBJECTS),
    question=BRACED_TEXT,
    upstream=st.lists(
        st.tuples(st.sampled_from(SUBJECTS), BRACED_TEXT),
        max_size=4,
        unique_by=lambda pair: pair[0],
    ),
    append_answer_format=st.sampled_from([None, True, False]),
)
def test_render_prompt_matches_template_format(
    role, subject, question, upstream, append_answer_format
):
    args = (role, subject, question, upstream, append_answer_format)
    if (role is AgentRole.SUBJECT_EXPERT) == (not upstream):
        assert render_prompt(*args) == format_prompt(*args)
    else:
        with pytest.raises(RoleInputMismatch):
            render_prompt(*args)


def test_single_cot_prompt_includes_options():
    record = QuestionRecord(
        id="q", question="Pick one.", options=["first", "second"], gold="A"
    )
    text = render_single_cot_prompt(record)
    assert "Can you solve the problem?" in text
    assert "Pick one." in text
    assert "A. first" in text
    assert "B. second" in text
    assert "<<answer>>" in text


# -- answer extraction ------------------------------------------------------


def test_extract_answer_marker():
    assert extract_answer("blah <<B>> blah") == "B"


def test_extract_answer_last_marker_wins():
    assert extract_answer("<<A>> no wait <<C>>") == "C"


def test_extract_answer_standalone_letter():
    assert extract_answer("the answer is clearly (D).") == "D"


def test_extract_answer_multiline_marker():
    assert extract_answer("final:\n<<\nB\n>>") == "B"


def test_extract_answer_none():
    assert extract_answer("no usable reply here") is None
    assert extract_answer("numbers 123 only") is None


def regex_extract_answer(reply):
    """The lazy-regex extraction that the linear scan replaced."""
    groups = re.findall(r"<<(.*?)>>", reply, re.DOTALL)
    if groups:
        return groups[-1].strip()
    letters = re.findall(r"(?<![A-Za-z0-9])([A-J])(?![A-Za-z0-9])", reply)
    return letters[-1] if letters else None


# Texts over {<, >, A, J, x, space, newline}, drawn as runs of tokens so that
# markers, nested openers and stray brackets are common.
REPLY_TOKENS = ["<", ">", "<<", ">>", "A", "J", "x", " ", "\n"]


@settings(max_examples=500, deadline=None)
@given(reply=st.lists(st.sampled_from(REPLY_TOKENS), max_size=30).map("".join))
@example(reply="<<x<<A>>")
@example(reply="<<A>>>J>>")
def test_extract_answer_matches_lazy_regex(reply):
    assert extract_answer(reply) == regex_extract_answer(reply)


def test_extract_answer_is_linear_on_unmatched_markers():
    # The lazy regex rescans the tail for every `<<`: quadratic in the length.
    assert extract_answer("<" * (1 << 20)) is None


# -- execute_dag ------------------------------------------------------------


def test_execute_chain_embeds_upstream():
    g = chain_dag()
    selection, backends = pool_for([M, P])
    trace = execute_dag(g, "What is the force?", selection, backends, echo_client())
    assert trace.llm_calls == 2
    assert [r.subject for r in trace.records] == ["Physics", "Math"]
    physics, math = trace.records
    assert physics.role == "SubjectExpert"
    assert math.role == "Dominant"
    assert "- Physics: I conclude <<A>> as Physics." in math.prompt
    assert trace.final_subject == "Math"
    assert trace.final_answer == "A"
    assert trace.simulated


def test_execute_chain_dependency_timing():
    g = chain_dag()
    selection, backends = pool_for([M, P])
    trace = execute_dag(g, "Q?", selection, backends, echo_client())
    physics, math = trace.records
    assert math.sim_start >= physics.sim_finish
    assert trace.wall_time == pytest.approx(physics.latency + math.latency, rel=1e-12)


def test_execute_diamond_concurrency():
    g = diamond_dag()
    selection, backends = pool_for([M, P, B])
    trace = execute_dag(g, "Q?", selection, backends, echo_client())
    assert trace.llm_calls == 3
    by_subject = {r.subject: r for r in trace.records}
    assert by_subject["Physics"].sim_start == 0.0
    assert by_subject["Biology"].sim_start == 0.0
    assert by_subject["Math"].sim_start == pytest.approx(
        max(by_subject["Physics"].sim_finish, by_subject["Biology"].sim_finish)
    )
    # supports run concurrently: wall is max support finish plus dominant latency
    assert trace.wall_time == pytest.approx(
        by_subject["Math"].sim_start + by_subject["Math"].latency
    )


def test_execute_four_node_bipartite():
    g = bipartite_dag()
    selection, backends = pool_for([M, P, C, B])
    trace = execute_dag(g, "Q?", selection, backends, echo_client())
    assert trace.llm_calls == 4
    assert trace.final_subject == "Math"
    math = next(r for r in trace.records if r.subject == "Math")
    assert ANSWER_FORMAT_LINE in math.prompt
    # dominants carry the answer-format instruction; supports do not
    chem = next(r for r in trace.records if r.subject == "Chemistry")
    assert ANSWER_FORMAT_LINE in chem.prompt
    physics = next(r for r in trace.records if r.subject == "Physics")
    assert ANSWER_FORMAT_LINE not in physics.prompt


class DeadBackend:
    """Simulated backend whose every call exhausts its retry budget."""

    config = BackendConfig(name="dead", kind="mock")
    simulated = True

    def complete(self, req):
        raise TransportError("backend 'dead': all 3 attempts failed", attempts=3)


def echo_and_dead_client():
    echo = BackendConfig(name="echo", kind="mock", script=[{"reply": "fine <<A>>"}])
    return ChatClient({"echo": MockBackend(echo), "dead": DeadBackend()})


def test_execute_failed_support_becomes_unavailable():
    client = echo_and_dead_client()
    g = chain_dag()
    selection = {P: "model-p", M: "model-m"}
    backends = {"model-p": "dead", "model-m": "echo"}
    trace = execute_dag(g, "Q?", selection, backends, client)
    physics, math = trace.records
    assert physics.failed
    assert f"- Physics: {UNAVAILABLE}" in math.prompt
    assert trace.final_answer == "A"
    assert (physics.attempts, physics.latency, physics.reply) == (3, 0.0, "")
    assert physics.sim_finish == math.sim_start == 0.0


def test_execute_failed_final_yields_no_answer():
    client = echo_and_dead_client()
    g = chain_dag()
    selection = {P: "model-p", M: "model-m"}
    backends = {"model-p": "echo", "model-m": "dead"}
    trace = execute_dag(g, "Q?", selection, backends, client)
    assert trace.final_answer is None
    assert trace.records[1].failed


def test_unmatched_mock_script_propagates():
    client = build_client([
        BackendConfig(name="echo", kind="mock", script=[{"reply": "fine <<A>>"}]),
        BackendConfig(name="norule", kind="mock", script=[
            {"match": {"substring": "never-matches-anything"}, "reply": "x"}
        ]),
    ])
    selection = {P: "model-p", M: "model-m"}
    backends = {"model-p": "norule", "model-m": "echo"}
    with pytest.raises(NoRuleMatched):
        execute_dag(chain_dag(), "Q?", selection, backends, client)


def test_unmatched_rule_on_first_source_stops_the_plan():
    client = build_client([
        BackendConfig(name="echo", kind="mock", script=[{"reply": "fine <<A>>"}]),
        BackendConfig(name="norule", kind="mock", script=[
            {"match": {"substring": "never-matches-anything"}, "reply": "x"}
        ]),
    ])
    g = diamond_dag()
    first, second, _ = g.topological_order()
    assert not [e for e in g.edges if e.dst in (first, second)]
    selection, backends = pool_for([M, P, B])
    backends[selection[first]] = "norule"
    with pytest.raises(NoRuleMatched):
        execute_dag(g, "Q?", selection, backends, client)
    assert client.counter.total == 1


def test_missing_api_key_propagates(monkeypatch):
    monkeypatch.delenv("SDAG_TEST_UNSET_KEY", raising=False)
    client = build_client([BackendConfig(
        name="remote", kind="remote", url="http://127.0.0.1:9/v1/chat/completions",
        model="m", key_env="SDAG_TEST_UNSET_KEY",
    )])
    with pytest.raises(AuthError):
        execute_single_cot("Q?", "model-x", "remote", client)


def test_unknown_backend_model_fails_before_any_call():
    client = echo_client()
    # Physics runs first, but Math's model has no backend: nothing is called.
    with pytest.raises(ValueError, match="mm"):
        execute_dag(chain_dag(), "Q?", {P: "mp", M: "mm"}, {"mp": "echo"}, client)
    assert client.counter.total == 0
    with pytest.raises(ValueError, match="mm"):
        execute_fcg(list(chain_dag().nodes), "Q?", {P: "mp", M: "mm"}, {"mp": "echo"}, client)
    assert client.counter.total == 0
    # Math's backend is configured but the client has no backend by that name.
    backends = {"mp": "echo", "mm": "nosuch"}
    with pytest.raises(ValueError, match="nosuch"):
        execute_dag(chain_dag(), "Q?", {P: "mp", M: "mm"}, backends, client)
    assert client.counter.total == 0
    with pytest.raises(ValueError, match="nosuch"):
        execute_fcg(list(chain_dag().nodes), "Q?", {P: "mp", M: "mm"}, backends, client)
    assert client.counter.total == 0
    with pytest.raises(ValueError, match="nosuch"):
        execute_single_cot("Q?", "mm", "nosuch", client)
    assert client.counter.total == 0


class RendezvousBackend:
    """Live backend whose subject-expert calls each wait for a second one."""

    config = BackendConfig(name="live", kind="mock")
    simulated = False

    def __init__(self):
        self.barrier = threading.Barrier(2, timeout=5)

    def complete(self, req):
        if req.metadata["role"] == AgentRole.SUBJECT_EXPERT.value:
            self.barrier.wait()
        return ChatResponse(text="<<A>>", latency=0.0, attempts=1, backend="live")


def test_live_independent_sources_run_concurrently():
    client = ChatClient({"live": RendezvousBackend()})
    selection = {s: f"model-{s.value.lower()}" for s in (M, P, B)}
    backends = {m: "live" for m in selection.values()}
    trace = execute_dag(diamond_dag(), "Q?", selection, backends, client)
    assert trace.llm_calls == 3 and not trace.simulated


def test_live_fcg_round_one_runs_concurrently():
    client = ChatClient({"live": RendezvousBackend()})
    nodes = list(chain_dag().nodes)
    selection = {n.subject: f"model-{n.subject.value.lower()}" for n in nodes}
    backends = {m: "live" for m in selection.values()}
    trace = execute_fcg(nodes, "Q?", selection, backends, client)
    assert trace.llm_calls == 4 and not trace.simulated


def test_simulated_plans_build_no_thread_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a simulated or one-node plan built a thread pool")

    monkeypatch.setattr(sdag.orchestrator, "ThreadPoolExecutor", no_pool)
    selection, backends = pool_for([M, P, B])
    assert execute_dag(diamond_dag(), "Q?", selection, backends, echo_client()).llm_calls == 3
    nodes = list(diamond_dag().nodes)
    assert execute_fcg(nodes, "Q?", selection, backends, echo_client()).llm_calls == 6
    assert execute_single_cot("Q?", "model-x", "echo", echo_client()).llm_calls == 1
    # A one-node live plan runs on the caller's thread too.
    trace = execute_single_cot("Q?", "model-x", "echo", live(echo_client()))
    assert trace.llm_calls == 1 and not trace.simulated
    single = SDag(nodes=[SDagNode(M, 1.0)], edges=[])
    trace = execute_dag(single, "Q?", selection, backends, live(echo_client()))
    assert trace.llm_calls == 1 and not trace.simulated


class SubjectHookBackend:
    """Live backend that runs `on_call` with each call's subject, then
    answers "<<A>>"."""

    config = BackendConfig(name="live", kind="mock")
    simulated = False

    def __init__(self, on_call):
        self.on_call = on_call

    def complete(self, req):
        self.on_call(req.metadata["subject"])
        return ChatResponse(text="<<A>>", latency=0.0, attempts=1, backend="live")


def test_live_plan_stops_at_the_first_error():
    # Two branches, Math -> Physics and Chemistry -> Biology. The caller's
    # thread runs Math, the first source; Chemistry runs on the pool's one
    # worker and raises once Math has started. Math's call returns only once
    # Chemistry has raised and its worker has taken the next task, so Physics
    # could start after the failure; it must not.
    g = SDag(
        nodes=[SDagNode(M, 0.3), SDagNode(P, 0.3), SDagNode(C, 0.2), SDagNode(B, 0.2)],
        edges=[SDagEdge(M, P, 1.0), SDagEdge(C, B, 1.0)],
    )
    error = AuthError("bad credentials")
    math_started, raised = threading.Event(), threading.Event()
    called, math_threads = [], []
    pool = ThreadPoolExecutor(max_workers=1)

    def on_call(subject):
        called.append(subject)
        if subject == "Chemistry":
            assert math_started.wait(timeout=10)
            raised.set()
            raise error
        if subject == "Math":
            math_threads.append(threading.current_thread())
            math_started.set()
            assert raised.wait(timeout=10)
            pool.submit(lambda: None).result(timeout=10)

    selection = {s: f"model-{s.value.lower()}" for s in (M, P, C, B)}
    backends = {m: "live" for m in selection.values()}
    client = ChatClient({"live": SubjectHookBackend(on_call)})
    with pool, pytest.raises(AuthError) as raised_error:
        execute_dag(g, "Q?", selection, backends, client, executor=pool)
    assert raised_error.value is error
    assert math_threads == [threading.current_thread()]
    assert sorted(called) == ["Chemistry", "Math"]


def test_live_fcg_wider_than_its_pool_matches_simulated():
    # Five round-one nodes and five revisions on one worker: ready nodes
    # queue, and since no node waits on a dependency, none can deadlock.
    subjects = [M, P, C, B, Subject.LAW]
    nodes = [SDagNode(s, 0.1 * (i + 1)) for i, s in enumerate(subjects)]
    selection, backends = pool_for(subjects)
    simulated = execute_fcg(nodes, "Q?", selection, backends, echo_client())
    with ThreadPoolExecutor(max_workers=1) as pool:
        trace = execute_fcg(nodes, "Q?", selection, backends, live(echo_client()),
                            executor=pool)
    assert not trace.simulated and trace.llm_calls == 10
    assert [(r.subject, r.role, r.prompt, r.reply) for r in trace.records] == [
        (r.subject, r.role, r.prompt, r.reply) for r in simulated.records]
    assert (trace.final_answer, trace.final_subject) == (
        simulated.final_answer, simulated.final_subject)


class RefusingPool(ThreadPoolExecutor):
    """A pool that refuses every task after its first `accept`, as a shut-down
    pool does."""

    def __init__(self, accept):
        super().__init__(max_workers=2)
        self.accept = accept

    def submit(self, fn, /, *args, **kwargs):
        if not self.accept:
            raise RuntimeError("cannot schedule new futures after shutdown")
        self.accept -= 1
        return super().submit(fn, *args, **kwargs)


@pytest.mark.parametrize("accept", [0, 1])
def test_live_plan_fails_when_its_pool_refuses_a_node(accept):
    # accept=0: the caller's first hand-off fails; accept=1: a worker's
    # hand-off of a revision fails. Either way the plan raises, not hangs.
    nodes = list(chain_dag().nodes)
    selection, backends = pool_for([P, M])
    errors = []

    def run():
        with RefusingPool(accept) as pool:
            try:
                execute_fcg(nodes, "Q?", selection, backends, live(echo_client()),
                            executor=pool)
            except RuntimeError as exc:
                errors.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert [str(e) for e in errors] == ["cannot schedule new futures after shutdown"]


def test_execute_dag_missing_selection():
    g = chain_dag()
    with pytest.raises(ValueError):
        execute_dag(g, "Q?", {P: "model-p"}, {"model-p": "echo"}, echo_client())


def test_execute_dag_deterministic_trace():
    g = diamond_dag()
    selection, backends = pool_for([M, P, B])
    first = execute_dag(g, "Q?", selection, backends, echo_client())
    second = execute_dag(g, "Q?", selection, backends, echo_client())
    assert first.to_jsonl() == second.to_jsonl()


# -- execute_fcg ------------------------------------------------------------


def test_fcg_four_nodes_eight_calls():
    g = bipartite_dag()
    selection, backends = pool_for([M, P, C, B])
    trace = execute_fcg(list(g.nodes), "Q?", selection, backends, echo_client())
    assert trace.llm_calls == 8
    assert trace.mode == "fcg"
    rounds = [r.round for r in trace.records]
    assert rounds == [1, 1, 1, 1, 2, 2, 2, 2]
    for record in trace.records[:4]:
        assert record.role == "SubjectExpert"
    for record in trace.records[4:]:
        assert record.role == "Supporting"
        # each revision sees the other three experts
        assert record.prompt.count("Supporting Information from") == 3


def test_fcg_round_two_waits_for_round_one():
    g = diamond_dag()
    selection, backends = pool_for([M, P, B])
    trace = execute_fcg(list(g.nodes), "Q?", selection, backends, echo_client())
    barrier = max(r.sim_finish for r in trace.records if r.round == 1)
    for record in trace.records:
        if record.round == 2:
            assert record.sim_start == pytest.approx(barrier)


def test_fcg_final_answer_from_round_two_highest():
    g = bipartite_dag()
    selection, backends = pool_for([M, P, C, B])
    trace = execute_fcg(list(g.nodes), "Q?", selection, backends, echo_client())
    assert trace.final_subject == "Math"
    final_record = next(
        r for r in trace.records if r.round == 2 and r.subject == "Math"
    )
    assert ANSWER_FORMAT_LINE in final_record.prompt
    assert trace.final_answer == "A"


def test_fcg_single_node_two_calls():
    selection, backends = pool_for([M])
    trace = execute_fcg(
        [SDagNode(M, 1.0)], "Q?", selection, backends, echo_client()
    )
    assert trace.llm_calls == 2
    first, second = trace.records
    assert first.role == "SubjectExpert" and second.role == "SubjectExpert"
    assert ANSWER_FORMAT_LINE not in first.prompt
    assert second.prompt.endswith(ANSWER_FORMAT_LINE)


def test_fcg_rejects_bad_node_lists():
    selection, backends = pool_for([M])
    with pytest.raises(ValueError):
        execute_fcg([], "Q?", selection, backends, echo_client())
    with pytest.raises(ValueError):
        execute_fcg(
            [SDagNode(M, 0.5), SDagNode(M, 0.5)], "Q?", selection, backends, echo_client()
        )


def test_fcg_deterministic_trace():
    g = diamond_dag()
    selection, backends = pool_for([M, P, B])
    a = execute_fcg(list(g.nodes), "Q?", selection, backends, echo_client())
    b = execute_fcg(list(g.nodes), "Q?", selection, backends, echo_client())
    assert a.to_jsonl() == b.to_jsonl()


# -- single CoT -------------------------------------------------------------


def test_single_cot_one_call():
    client = echo_client()
    trace = execute_single_cot("Just answer.", "model-x", "echo", client)
    assert trace.llm_calls == 1
    assert trace.mode == "single_cot"
    assert client.counter.total == 1
    assert trace.wall_time == pytest.approx(trace.records[0].latency)
    assert trace.final_subject is None


# -- trace files ------------------------------------------------------------


def test_trace_jsonl_format(tmp_path):
    g = chain_dag()
    selection, backends = pool_for([M, P])
    trace = execute_dag(g, "Q?", selection, backends, echo_client())
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines[:2]:
        record = json.loads(line)
        assert {"subject", "role", "model_id", "backend", "prompt", "reply",
                "latency", "attempts", "failed", "round", "start", "finish"} <= set(record)
    summary = json.loads(lines[2])["summary"]
    assert summary["mode"] == "sdag"
    assert summary["llm_calls"] == 2
    assert summary["final_answer"] == "A"


# -- properties over random DAGs ---------------------------------------------


@st.composite
def random_dags(draw):
    """A DAG over 1-6 distinct subjects; edges only run forward in a shuffle."""
    pool = [s for s in Subject if s is not Subject.OTHER]
    order = draw(st.permutations(pool))[: draw(st.integers(1, 6))]
    scores = draw(st.lists(st.floats(0.01, 1.0), min_size=len(order), max_size=len(order)))
    edges = [
        SDagEdge(order[i], order[j], 1.0)
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if draw(st.booleans())
    ]
    return SDag(nodes=[SDagNode(s, w) for s, w in zip(order, scores)], edges=edges)


@settings(max_examples=60, deadline=None)
@given(g=random_dags())
def test_execute_dag_properties(g):
    selection, backends = pool_for(g.subjects())
    trace = execute_dag(g, "Q?", selection, backends, echo_client())
    assert trace.llm_calls == len(g.nodes) == len(trace.records)
    assert [r.subject for r in trace.records] == [s.value for s in g.topological_order()]
    by_subject = {r.subject: r for r in trace.records}
    for edge in g.edges:
        src, dst = by_subject[edge.src.value], by_subject[edge.dst.value]
        assert trace.records.index(src) < trace.records.index(dst)
    for record in trace.records:
        preds = [e.src for e in g.edges if e.dst.value == record.subject]
        assert record.sim_start == max(
            (by_subject[p.value].sim_finish for p in preds), default=0.0
        )
    assert trace.wall_time == max(r.sim_finish for r in trace.records)


SCHEDULED_FIELDS = ("subject", "role", "round", "model_id", "backend", "prompt", "reply",
                    "attempts", "failed")


def schedule_view(trace):
    """What a trace must keep whichever schedule ran it (times aside)."""
    records = [tuple(getattr(r, f) for f in SCHEDULED_FIELDS) for r in trace.records]
    return records, trace.final_answer, trace.final_subject, trace.llm_calls


@settings(max_examples=40, deadline=None)
@given(g=random_dags(), data=st.data())
def test_inline_schedule_matches_threaded_schedule(g, data):
    """Plans over simulated mocks run inline; over the same mocks reporting
    themselves live, on one thread per node. Both give the same trace, failed
    nodes included."""
    subjects = g.subjects()
    dead = data.draw(st.sets(st.sampled_from(subjects)))
    selection, backends = pool_for(subjects)
    for s in dead:
        backends[selection[s]] = "dead"

    def client():
        echo = BackendConfig(name="echo", kind="mock",
                             script=[{"reply": "{subject} as {role}: <<A>>"}])
        return ChatClient({"echo": MockBackend(echo), "dead": DeadBackend()})

    for run in (partial(execute_dag, g), partial(execute_fcg, list(g.nodes))):
        inline = run("Q?", selection, backends, client())
        threaded = run("Q?", selection, backends, live(client()))
        assert inline.simulated and not threaded.simulated
        assert schedule_view(threaded) == schedule_view(inline)


# -- the one-pass plan against the derivation it replaced -----------------------


def reference_order(g):
    """SDag.topological_order as it was written inline: Kahn's algorithm,
    canonical ties."""
    indeg = {n.subject: 0 for n in g.nodes}
    children = {n.subject: [] for n in g.nodes}
    for e in g.edges:
        indeg[e.dst] += 1
        children[e.src].append(e.dst)
    ready = [s.index for s, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        s = SUBJECTS[heapq.heappop(ready)]
        order.append(s)
        for c in children[s]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c.index)
    if len(order) != len(g.nodes):
        raise ValueError("graph contains a cycle")
    return order


def reference_roles(g):
    """Roles as `assign_roles` gave them, from degree: sinks dominant,
    sources experts, the rest supporting."""
    roles = {}
    for node in g.nodes:
        s = node.subject
        if not any(e.src == s for e in g.edges):
            roles[s] = AgentRole.DOMINANT
        elif not any(e.dst == s for e in g.edges):
            roles[s] = AgentRole.SUBJECT_EXPERT
        else:
            roles[s] = AgentRole.SUPPORTING
    return roles


def reference_final_node(g, roles):
    """The answering sink as `pick_final_node` picked it: highest relevance
    among dominants, canonical ties."""
    dominants = [n for n in g.nodes if roles[n.subject] is AgentRole.DOMINANT]
    return max(dominants, key=lambda n: (n.score, -n.subject.index)).subject


def reference_plan(g, question, selection, pool_backends):
    """execute_dag's plan as `assign_roles`, `pick_final_node`,
    `topological_order` and `SDag.in_neighbors` derived it, with the index of
    its answering node."""
    missing = [n.subject.value for n in g.nodes if n.subject not in selection]
    if missing:
        raise ValueError(f"selection covers no model for: {missing}")
    roles = reference_roles(g)
    final_subject = reference_final_node(g, roles)
    q_text = question_block(question)
    order = reference_order(g)
    position = {s: i for i, s in enumerate(order)}
    plan = []
    for s in order:
        in_neighbors = sorted((e.src for e in g.edges if e.dst == s), key=lambda d: d.index)
        deps = tuple(position[d] for d in in_neighbors)
        model_id = selection[s]
        backend = pool_backends.get(model_id)
        if backend is None:
            raise ValueError(f"no backend configured for model {model_id!r}")
        plan.append(_PlanNode(s, s.value, roles[s].value, 0, model_id, backend, deps,
                              roles[s] if deps else AgentRole.SUBJECT_EXPERT, q_text,
                              True if s is final_subject else None))
    return plan, position[final_subject]


SHAPES = {
    "chain": lambda n: [(i, i + 1) for i in range(n - 1)],
    "diamond": lambda n: [(0, i) for i in range(1, n - 1)] + [(i, n - 1) for i in range(1, n - 1)],
    "sinks": lambda n: [(0, i) for i in range(1, n)],
    "isolated": lambda n: [],
}


RARELY = st.sampled_from([False] * 5 + [True])


@st.composite
def plan_inputs(draw):
    """1-5 subjects with tied or distinct scores, wired as a chain, a diamond,
    a source with several sinks, isolated nodes or any pairs (back edges,
    self-loops, duplicates and cycles included), sometimes with an edge with
    one or both ends outside the graph, a duplicated node, a missing selection or a
    model without a backend."""
    shuffled = draw(st.permutations([s for s in Subject if s is not Subject.OTHER]))
    subjects, stranger = shuffled[:draw(st.integers(1, 5))], shuffled[-1]
    n = len(subjects)
    score = st.one_of(st.sampled_from([0.3, 0.5, 0.5, 0.9]), st.floats(0.0, 1.0))
    nodes = [SDagNode(s, draw(score)) for s in subjects]
    shape = draw(st.sampled_from([*SHAPES, "any"]))
    if shape == "any":
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=8))
    else:
        pairs = SHAPES[shape](n)
    edges = [SDagEdge(subjects[i], subjects[j]) for i, j in draw(st.permutations(pairs))]
    if draw(RARELY):
        inside, outside = draw(st.sampled_from(subjects)), Subject.OTHER
        edges.insert(draw(st.integers(0, len(edges))),
                     draw(st.sampled_from([SDagEdge(inside, outside), SDagEdge(outside, inside),
                                           SDagEdge(stranger, outside)])))
    if draw(RARELY):
        nodes.append(SDagNode(subjects[0], draw(score)))
    selection, backends = pool_for(subjects)
    if draw(RARELY):
        del selection[draw(st.sampled_from(subjects))]
    if draw(RARELY):
        backends.pop(f"model-{draw(st.sampled_from(subjects)).value.lower()}")
    return SDag(nodes=nodes, edges=edges), selection, backends


def outcome(build):
    """What a plan builder gives: its result, or its exception's type and text."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(inputs=plan_inputs())
def test_one_pass_plan_matches_the_reference_derivation(inputs):
    g, selection, backends = inputs
    question = "Which? <<A>>"
    with mock.patch.object(sdag.orchestrator, "_run_plan",
                           lambda mode, plan, final, *rest: (plan, final)):
        got = outcome(lambda: execute_dag(g, question, selection, backends, echo_client()))
    assert got == outcome(lambda: reference_plan(g, question, selection, backends))
