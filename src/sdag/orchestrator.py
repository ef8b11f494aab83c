"""Multi-agent execution of a subject DAG.

Roles follow graph position: sinks (nodes that send no edge) are dominant
agents, sources are subject experts, and the rest are supporting agents. Each
node's prompt embeds its upstream replies, and the final answer is extracted
from the reply of the answering node: the top-scored sink, ties going to the
canonically first subject. The fully-connected two-round baseline and the
single-model CoT baseline run through the same plan runner, as graphs of
dependent agent calls. `execute_dag` builds its plan from one pass over the
DAG's edges: the plan order (Kahn's, with canonical ties, as
`topological_order` gives it), each node's dependencies in canonical order,
the roles and the answering sink.

The runner has two schedules, and one function makes a node's call under
both. When every backend is simulated, nodes run in a plain loop in plan
order on the caller's thread, each over its dependencies' finished trace
records: plan order is topological, mock replies and latencies are pure
functions of the request, and start times come from the dependencies'
simulated finish times, so the trace is the one a concurrent run would give.
A one-node plan runs in the same loop.

With any live backend, a plan of several nodes is ready-driven: a node
starts once its last dependency has finished, so no thread ever waits on a
dependency. The caller's thread runs one source node and hands the other
sources to a thread pool; whichever thread finishes a node runs one of the
dependents that became ready itself and hands the rest to the pool. The pool
belongs to the caller: `evaluate()` passes every plan the one pool it builds
per call, which also runs its question workers, and a call without one, such
as `sdag run`, builds a pool of MAX_DAG_NODES workers for that plan alone.
"""

from __future__ import annotations

import enum
import json
import logging
import re
import string
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .backends import ChatClient, ChatRequest
from .errors import RoleInputMismatch, TransportError
from .fileio import atomic_writer
from .subjects import MAX_DAG_NODES, SUBJECTS, QuestionRecord, SDag, SDagNode, Subject, kahn_order

logger = logging.getLogger(__name__)


class AgentRole(enum.Enum):
    SUBJECT_EXPERT = "SubjectExpert"
    SUPPORTING = "Supporting"
    DOMINANT = "Dominant"


# Reading an Enum member through its class, or its `.value`, runs Python-level
# code on every access (3.11); the prompt path reads these instead.
_EXPERT, _SUPPORTING, _DOMINANT = AgentRole
_ROLE_NAME = {r: r.value for r in AgentRole}
_NAME = {s: s.value for s in SUBJECTS}
_INDEX = {s: s.index for s in SUBJECTS}


SUBJECT_EXPERT_PROMPT = (
    "You are an expert in {subject}. Your task is to analyze the following question "
    "based on your domain knowledge.\n"
    "Question: {Q}\n"
    "Please provide a clear and concise explanation or answer strictly from the "
    "perspective of {subject}."
)

SUPPORTING_PROMPT = (
    "You are an expert in {subject}. Another agent has provided information from "
    "{sources}, which may be relevant to your reasoning.\n"
    "Question: {Q}\n"
    "{support_lines}\n"
    "Please incorporate the above supporting information into your domain-specific "
    "reasoning, and produce a coherent, informed response from the perspective of "
    "{subject}."
)

DOMINANT_PROMPT = (
    "You are the lead {subject} expert responsible for integrating multi-disciplinary "
    "information to answer the following complex question.\n"
    "Question: {Q}\n"
    "You have received input from other experts:\n"
    "{expert_lines}\n"
    "Please synthesize the provided information and generate a comprehensive final "
    "answer that reflects the reasoning across these domains."
)

SINGLE_COT_PROMPT = (
    "Can you solve the problem? {Q} Explain your reasoning. Your final answer should "
    "be with the format: <<answer>>, at the end of your response."
)

ANSWER_FORMAT_LINE = (
    "Your final answer should be with the format: <<answer>>, at the end of your response."
)

UNAVAILABLE = "[unavailable]"


def _literals(template: str, fields: tuple[str, ...]) -> tuple[str, ...]:
    """The text around a `str.format` template's plain fields, which must be
    `fields` in order; interleaved with the values, it reads as `.format` would."""
    literals, names, text = [], [], ""
    for literal, name, spec, conversion in string.Formatter().parse(template):
        text += literal
        if name is not None:
            literals.append(text)
            names.append(None if spec or conversion else name)
            text = ""
    if tuple(names) != fields:
        raise ValueError(f"template fields are {names}, not {list(fields)}")
    return (*literals, text)


_EXPERT_TEXT = _literals(SUBJECT_EXPERT_PROMPT, ("subject", "Q", "subject"))
_SUPPORTING_TEXT = _literals(SUPPORTING_PROMPT,
                             ("subject", "sources", "Q", "support_lines", "subject"))
_DOMINANT_TEXT = _literals(DOMINANT_PROMPT, ("subject", "Q", "expert_lines"))
_ANSWER_FORMAT_TAIL = "\n" + ANSWER_FORMAT_LINE


def question_block(question: QuestionRecord | str) -> str:
    """Question text as agents see it: stem plus lettered options."""
    if isinstance(question, QuestionRecord):
        return question.question + "\n" + question.formatted_options()
    return question


def _canonical_upstream(upstream: list[tuple[Subject, str]]) -> list[tuple[Subject, str]]:
    return sorted(upstream, key=lambda pair: _INDEX[pair[0]])


def render_prompt(
    role: AgentRole,
    subject: Subject,
    question: str,
    upstream: list[tuple[Subject, str]],
    append_answer_format: bool | None = None,
) -> str:
    """Role template with substitutions; upstream listed in canonical order.

    By default the dominant template ends with the answer-format instruction;
    pass append_answer_format to override (the executor forces it on for the
    final node even when that node renders as a subject expert).
    """
    name = _NAME[subject]
    if role is _EXPERT:
        if upstream:
            raise RoleInputMismatch(f"{name}: subject expert got upstream content")
        a, b, c, d = _EXPERT_TEXT
        text = f"{a}{name}{b}{question}{c}{name}{d}"
    elif not upstream:
        raise RoleInputMismatch(f"{name}: {_ROLE_NAME[role]} role needs upstream content")
    else:
        upstream = [(_NAME[s], content) for s, content in _canonical_upstream(upstream)]
        if role is _SUPPORTING:
            sources = ", ".join([source for source, _ in upstream])
            support_lines = "\n".join(
                [f"Supporting Information from {source}: {content}" for source, content in upstream]
            )
            a, b, c, d, e, f = _SUPPORTING_TEXT
            text = f"{a}{name}{b}{sources}{c}{question}{d}{support_lines}{e}{name}{f}"
        else:
            expert_lines = "\n".join([f"- {source}: {content}" for source, content in upstream])
            a, b, c, d = _DOMINANT_TEXT
            text = f"{a}{name}{b}{question}{c}{expert_lines}{d}"
    if append_answer_format is None:
        append_answer_format = role is _DOMINANT
    if append_answer_format:
        text += _ANSWER_FORMAT_TAIL
    return text


def render_single_cot_prompt(question: QuestionRecord | str) -> str:
    return SINGLE_COT_PROMPT.replace("{Q}", question_block(question))


_LETTER_RE = re.compile(r"(?<![A-Za-z0-9])([A-J])(?![A-Za-z0-9])")


def _last_answer_group(reply: str) -> str | None:
    """The last group `re.findall(r"<<(.*?)>>", reply, re.DOTALL)` would give.

    Each group runs from a `<<` to the first `>>` after it, and the scan
    resumes past that `>>`. Two `str.find` calls per group keep this linear
    where the lazy regex is quadratic on many unmatched `<<`.
    """
    last = None
    pos = 0
    while (start := reply.find("<<", pos)) >= 0:
        end = reply.find(">>", start + 2)
        if end < 0:
            break
        last = reply[start + 2:end]
        pos = end + 2
    return last


def extract_answer(reply: str) -> str | None:
    """Contents of the last <<...>> group, else the last standalone A-J."""
    group = _last_answer_group(reply)
    if group is not None:
        return group.strip()
    letters = _LETTER_RE.findall(reply)
    if letters:
        return letters[-1]
    return None


# -- traces -----------------------------------------------------------------


@dataclass(slots=True)
class TraceRecord:
    subject: str
    role: str
    model_id: str
    backend: str
    prompt: str
    reply: str
    latency: float
    attempts: int
    failed: bool = False
    round: int = 0
    sim_start: float = 0.0
    sim_finish: float = 0.0

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "role": self.role,
            "model_id": self.model_id,
            "backend": self.backend,
            "prompt": self.prompt,
            "reply": self.reply,
            "latency": self.latency,
            "attempts": self.attempts,
            "failed": self.failed,
            "round": self.round,
            "start": self.sim_start,
            "finish": self.sim_finish,
        }


@dataclass
class ExecutionTrace:
    mode: str
    records: list[TraceRecord]
    final_answer: str | None
    final_subject: str | None
    llm_calls: int
    wall_time: float
    simulated: bool

    def to_jsonl(self) -> str:
        lines = [json.dumps(r.to_dict(), sort_keys=True, ensure_ascii=False)
                 for r in self.records]
        lines.append(
            json.dumps(
                {
                    "summary": {
                        "mode": self.mode,
                        "final_answer": self.final_answer,
                        "final_subject": self.final_subject,
                        "llm_calls": self.llm_calls,
                        "wall_time": self.wall_time,
                        "simulated": self.simulated,
                    }
                },
                sort_keys=True,
                ensure_ascii=False,
            )
        )
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        with atomic_writer(path) as f:
            f.write(self.to_jsonl())


def _question_id(question: QuestionRecord | str) -> str:
    return question.id if isinstance(question, QuestionRecord) else ""


# -- execution plans --------------------------------------------------------


class _PlanNode(NamedTuple):
    """One agent call: who answers, what it waits for, how its prompt reads.

    `name` is the subject's name ("" for none) and `role` the trace label,
    both computed when the plan is built. `deps` index earlier nodes of the
    same plan. The prompt renders `template` for the subject over `text` (the
    question block), quoting the replies of the dependencies that answer for
    another subject (an fcg revision does not quote its own first answer),
    with `final` as render_prompt's append_answer_format. A node with no
    template sends `text` as its whole prompt.
    """

    subject: Subject | None
    name: str
    role: str
    round: int
    model_id: str
    backend: str
    deps: tuple[int, ...]
    template: AgentRole | None
    text: str
    final: bool | None = None


def _call_node(client: ChatClient, node: _PlanNode, done: list[tuple[Subject, TraceRecord]],
               metadata: dict, t0: float | None) -> TraceRecord:
    """Make the node's one call over its dependencies' finished records.

    The node starts when its last dependency finishes (simulated time) or
    when it actually starts (measured time, t0 set). Transport failures and
    timeouts become a failed record that contributes UNAVAILABLE downstream;
    every other error is a misconfiguration and propagates.
    """
    if node.template is None:
        prompt = node.text
    else:
        subject = node.subject
        upstream = [(s, UNAVAILABLE if r.failed else r.reply) for s, r in done if s is not subject]
        prompt = render_prompt(node.template, subject, node.text, upstream, node.final)
    if t0 is None:
        start = max([r.sim_finish for _, r in done], default=0.0)
    else:
        start = time.monotonic() - t0
    try:
        response = client.complete(ChatRequest(node.backend, prompt, metadata))
    except TransportError as exc:
        logger.warning("node %s (%s) failed on question %r: %s",
                       node.name or "-", node.model_id, metadata["question_id"], exc)
        reply, latency, attempts, failed = "", 0.0, exc.attempts, True
    else:
        reply, latency, attempts, failed = (
            response.text, response.latency, response.attempts, False
        )
    return TraceRecord(node.name, node.role, node.model_id, node.backend, prompt, reply,
                       latency, attempts, failed, node.round, start,
                       start + latency if t0 is None else time.monotonic() - t0)


def _run_ready(plan: list[_PlanNode], metadata: list[dict], client: ChatClient, t0: float,
               executor: Executor) -> list[TraceRecord]:
    """Run a live plan, each node once its last dependency has finished.

    The caller's thread runs the first source and hands the others to
    `executor`. A thread that finishes a node runs the first dependent that
    became ready and hands the rest to `executor`, so no thread ever waits on
    a dependency. Once a node raises, no further node starts; nodes in
    flight finish, and then the first error propagates unchanged.
    """
    dependents: list[list[int]] = [[] for _ in plan]
    for i, node in enumerate(plan):
        for d in node.deps:
            dependents[d].append(i)
    waiting = [len(node.deps) for node in plan]
    records: list = [None] * len(plan)
    errors: list[BaseException] = []
    lock = threading.Lock()
    settled = threading.Event()
    active = 0  # nodes started or queued that have not finished

    def finish(ready: list[int]) -> None:
        """Count one node finished and `ready` started; wake the caller at 0."""
        nonlocal active
        active += len(ready) - 1
        if not active:
            settled.set()

    def start(nodes: list[int]) -> None:
        for j in nodes:
            try:
                executor.submit(run, j)
            except RuntimeError as exc:  # the executor is shut down
                with lock:
                    errors.append(exc)
                    finish([])

    def run(i: int) -> None:
        while True:
            if not errors:  # a node queued before a failure makes no call
                node = plan[i]
                done = [(plan[d].subject, records[d]) for d in node.deps]
                try:
                    records[i] = _call_node(client, node, done, metadata[i], t0)
                except BaseException as exc:
                    with lock:
                        errors.append(exc)
            with lock:
                ready = []
                if not errors:
                    for j in dependents[i]:
                        waiting[j] -= 1
                        if not waiting[j]:
                            ready.append(j)
                finish(ready)
            if not ready:
                return
            i = ready[0]
            start(ready[1:])

    sources = [i for i, node in enumerate(plan) if not node.deps]
    active = len(sources)
    start(sources[1:])
    run(sources[0])
    settled.wait()
    if errors:
        raise errors[0]
    return records


def _run_plan(mode: str, plan: list[_PlanNode], final: int, question: QuestionRecord | str,
              client: ChatClient, extra_metadata: dict | None,
              executor: Executor | None) -> ExecutionTrace:
    """Run every plan node once after its dependencies; answer from plan[final].

    Simulated clients, and live ones on a one-node plan, run the nodes in a
    plain loop in plan order on the caller's thread: plan order is
    topological and mocks are pure functions of the request, so each node's
    dependencies have finished and the trace matches a concurrent run. The
    first node that raises ends the plan, and later nodes make no call.

    Live clients on a plan of several nodes run ready-driven (`_run_ready`)
    on `executor`, or on a pool built for this plan when it is None. Once a
    node raises, no further node starts, not even one on an independent
    branch; calls already in flight finish, and then the first error
    propagates unchanged.
    """
    unknown = [n.backend for n in plan if n.backend not in client.backends]
    if unknown:
        raise ValueError(f"unknown backend: {sorted(set(unknown))}")
    q_id = _question_id(question)
    extra = extra_metadata or {}
    metadata = [
        {"question_id": q_id, "subject": n.name, "role": n.role, **extra} if n.name
        else {"question_id": q_id, "role": n.role, **extra}
        for n in plan
    ]
    simulated = client.all_simulated
    t0 = None if simulated else time.monotonic()
    if simulated or len(plan) == 1:
        records: list[TraceRecord] = []
        for node, meta in zip(plan, metadata):
            done = [(plan[i].subject, records[i]) for i in node.deps]
            records.append(_call_node(client, node, done, meta, t0))
    elif executor is None:
        with ThreadPoolExecutor(max_workers=MAX_DAG_NODES) as own:
            records = _run_ready(plan, metadata, client, t0, own)
    else:
        records = _run_ready(plan, metadata, client, t0, executor)
    answer = records[final]
    return ExecutionTrace(
        mode=mode,
        records=records,
        final_answer=None if answer.failed else extract_answer(answer.reply),
        final_subject=answer.subject or None,
        llm_calls=len(records),
        wall_time=max(r.sim_finish for r in records) if simulated else time.monotonic() - t0,
        simulated=simulated,
    )


def _resolve_backend(selection: dict[Subject, str], pool_backends: dict[str, str],
                     subject: Subject) -> tuple[str, str]:
    model_id = selection[subject]
    backend = pool_backends.get(model_id)
    if backend is None:
        raise ValueError(f"no backend configured for model {model_id!r}")
    return model_id, backend


def execute_dag(
    g: SDag,
    question: QuestionRecord | str,
    selection: dict[Subject, str],
    pool_backends: dict[str, str],
    client: ChatClient,
    extra_metadata: dict | None = None,
    executor: Executor | None = None,
) -> ExecutionTrace:
    """Run each node once after its dependencies; one LLM call per node.

    A live plan of several nodes runs on `executor`, the caller's thread pool
    (`evaluate()` passes the one it builds per call), or on a pool of
    MAX_DAG_NODES workers built for this call when it is None.
    """
    nodes = g.nodes
    missing = [n.subject.value for n in nodes if n.subject not in selection]
    if missing:
        raise ValueError(f"selection covers no model for: {missing}")
    # One pass over the edges: each node's in-neighbours and children, and
    # which subjects send an edge. An edge with an end outside the graph
    # raises the KeyError of topological_order, after the sink check.
    parents: dict[Subject, list[Subject]] = {n.subject: [] for n in nodes}
    children: dict[Subject, list[Subject]] = {s: [] for s in parents}
    senders = set()
    stray = None
    for e in g.edges:
        src, dst = e.src, e.dst
        senders.add(src)
        if dst in parents and src in parents:
            parents[dst].append(src)
            children[src].append(dst)
        elif stray is None:
            stray = src if dst in parents else dst
    # The answering node: the top-scored sink, canonical ties.
    final_subject = max((n for n in nodes if n.subject not in senders),
                        key=lambda n: (n.score, -_INDEX[n.subject])).subject
    if stray is not None:
        raise KeyError(stray)
    q_text = question_block(question)
    order = kahn_order({s: len(p) for s, p in parents.items()}, children, len(nodes))
    position = {s: i for i, s in enumerate(order)}
    plan = []
    for s in order:
        deps = tuple([position[d] for d in sorted(parents[s], key=_INDEX.__getitem__)])
        role = _DOMINANT if s not in senders else _SUPPORTING if deps else _EXPERT
        model_id, backend = _resolve_backend(selection, pool_backends, s)
        plan.append(_PlanNode(s, _NAME[s], _ROLE_NAME[role], 0, model_id, backend, deps,
                              role if deps else _EXPERT, q_text,
                              True if s is final_subject else None))
    return _run_plan("sdag", plan, position[final_subject], question, client, extra_metadata,
                     executor)


def execute_fcg(
    nodes: list[SDagNode],
    question: QuestionRecord | str,
    selection: dict[Subject, str],
    pool_backends: dict[str, str],
    client: ChatClient,
    extra_metadata: dict | None = None,
    executor: Executor | None = None,
) -> ExecutionTrace:
    """Fully connected baseline: answer round then revision round, 2n calls.

    Every round-2 node depends on every round-1 node, its own included, so
    the revision round starts at the round-1 barrier. `executor` is as in
    execute_dag.
    """
    if not nodes:
        raise ValueError("fully connected execution needs at least one node")
    nodes = sorted(nodes, key=lambda n: n.subject.index)
    subjects = [n.subject for n in nodes]
    if len(set(subjects)) != len(subjects):
        raise ValueError("duplicate subjects in node list")
    missing = [s.value for s in subjects if s not in selection]
    if missing:
        raise ValueError(f"selection covers no model for: {missing}")
    final_subject = max(nodes, key=lambda n: (n.score, -n.subject.index)).subject
    q_text = question_block(question)
    # A single-agent graph has no peers: its revision repeats the expert template.
    reviser = _SUPPORTING if len(subjects) > 1 else _EXPERT
    expert_role, reviser_role = _ROLE_NAME[_EXPERT], _ROLE_NAME[reviser]
    resolved = [(s, _NAME[s], *_resolve_backend(selection, pool_backends, s)) for s in subjects]
    round_one = tuple(range(len(subjects)))
    plan = [
        _PlanNode(s, name, expert_role, 1, model_id, backend, (), _EXPERT, q_text)
        for s, name, model_id, backend in resolved
    ] + [
        _PlanNode(s, name, reviser_role, 2, model_id, backend, round_one, reviser, q_text,
                  s is final_subject)
        for s, name, model_id, backend in resolved
    ]
    final = len(subjects) + subjects.index(final_subject)
    return _run_plan("fcg", plan, final, question, client, extra_metadata, executor)


def execute_single_cot(
    question: QuestionRecord | str,
    model_id: str,
    backend: str,
    client: ChatClient,
    extra_metadata: dict | None = None,
) -> ExecutionTrace:
    """One chain-of-thought call with the baseline prompt."""
    prompt = render_single_cot_prompt(question)
    plan = [_PlanNode(None, "", "SingleCoT", 0, model_id, backend, (), None, prompt)]
    return _run_plan("single_cot", plan, 0, question, client, extra_metadata, None)
