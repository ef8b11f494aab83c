"""Chat backends: scripted mocks, remote retry/auth behavior, call counting."""

import hashlib
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdag.backends import (
    BackendConfig,
    CallCounter,
    ChatClient,
    ChatRequest,
    ChatResponse,
    MockBackend,
    RemoteBackend,
    build_client,
    load_backend_configs,
    _simulated_latency,
    parse_rules,
)
from sdag.errors import AuthError, NoRuleMatched, Timeout, TransportError

SAMPLES = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"


# -- request/response validation --------------------------------------------


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(backend="", user="hi")


def test_chat_response_validation():
    with pytest.raises(ValueError):
        ChatResponse(text="x", latency=-1.0, attempts=1, backend="b")
    with pytest.raises(ValueError):
        ChatResponse(text="x", latency=0.0, attempts=0, backend="b")


def test_chat_records_compare_by_value():
    assert ChatResponse("x", 0.5, 1, "b") == ChatResponse(
        text="x", latency=0.5, attempts=1, backend="b"
    )
    assert ChatResponse("x", 0.5, 1, "b") != ChatResponse("x", 0.5, 2, "b")
    assert ChatRequest("b", "u", {"gold": "A"}) == ChatRequest(
        backend="b", user="u", metadata={"gold": "A"}
    )
    assert ChatRequest("b", "u") != ChatRequest("b", "v")
    first, second = ChatRequest("b", "u"), ChatRequest("b", "u")
    assert first.metadata == {} and first.metadata is not second.metadata
    assert repr(first) == "ChatRequest(backend='b', user='u', metadata={})"


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(name="b", kind="weird")
    with pytest.raises(ValueError):
        BackendConfig(name="b", kind="remote")  # no url
    with pytest.raises(ValueError):
        BackendConfig(name="b", kind="mock", retries=0)
    with pytest.raises(ValueError):
        BackendConfig(name="b", kind="mock", latency_ms=(50.0, 5.0))


# -- mock scripts -----------------------------------------------------------


def mock_backend(script: list) -> MockBackend:
    return MockBackend(BackendConfig(name="b", kind="mock", script=script))


def sample_mock_client():
    configs = load_backend_configs(SAMPLES / "backends.sample.json")
    mock = [c for c in configs if c.name == "mock-echo"]
    return build_client(mock)


def test_mock_substring_rule():
    reply = sample_mock_client().complete(ChatRequest(backend="mock-echo", user="what is 2+2?"))
    assert "<<4>>" in reply.text


def test_mock_regex_rule():
    reply = sample_mock_client().complete(
        ChatRequest(backend="mock-echo", user="compute the integral of x")
    )
    assert "<<A>>" in reply.text


def test_mock_metadata_rule_with_template():
    reply = sample_mock_client().complete(
        ChatRequest(
            backend="mock-echo", user="plain",
            metadata={"dominant_subject": "Math", "gold": "C"},
        )
    )
    assert "<<C>>" in reply.text


def test_mock_default_rule_with_template():
    reply = sample_mock_client().complete(
        ChatRequest(backend="mock-echo", user="plain", metadata={"wrong": "B"})
    )
    assert "<<B>>" in reply.text


def test_mock_first_match_wins():
    reply = sample_mock_client().complete(
        ChatRequest(
            backend="mock-echo", user="what is 2+2?",
            metadata={"dominant_subject": "Math", "gold": "C"},
        )
    )
    assert "<<4>>" in reply.text


def test_mock_equals_field_rule():
    backend = mock_backend([
        {"match": {"metadata": {"field": "candidate", "equals_field": "gold"}}, "reply": "same"},
        {"reply": "different"},
    ])
    hit = backend.complete(ChatRequest(backend="b", user="u", metadata={"candidate": "A", "gold": "A"}))
    miss = backend.complete(ChatRequest(backend="b", user="u", metadata={"candidate": "A", "gold": "B"}))
    assert hit.text == "same"
    assert miss.text == "different"


def test_mock_no_rule_matched():
    backend = mock_backend([{"match": {"substring": "never"}, "reply": "x"}])
    with pytest.raises(NoRuleMatched):
        backend.complete(ChatRequest(backend="b", user="u"))


def test_mock_unknown_placeholder_left_verbatim():
    backend = mock_backend([{"reply": "keep {unknown} and fill {gold}"}])
    reply = backend.complete(ChatRequest(backend="b", user="u", metadata={"gold": "A"}))
    assert reply.text == "keep {unknown} and fill A"


def test_parse_rules_rejects_bad_entries():
    with pytest.raises(ValueError):
        parse_rules([{"no_reply": True}])
    with pytest.raises(ValueError):
        parse_rules([{"reply": "x", "match": {"unknown_matcher": 1}}])


@pytest.mark.parametrize(
    "match",
    [
        {"metadata": {}},
        {"metadata": "gold"},
        {"metadata": {"field": 3, "equals": "A"}},
        {"metadata": {"field": "gold"}},
        {"metadata": {"field": "gold", "equals": "A", "equals_field": "candidate"}},
        {"regex": "("},
        {"regex": 5},
        {"substring": 5},
    ],
)
def test_parse_rules_rejects_malformed_matchers(match):
    with pytest.raises(ValueError, match="mock rule 1"):
        parse_rules([{"reply": "ok"}, {"match": match, "reply": "x"}])


def test_parse_rules_compiles_regex_at_load():
    (rule,) = parse_rules([{"match": {"regex": r"integral\s+of"}, "reply": "x"}])
    assert rule.matches(ChatRequest(backend="b", user="the integral  of x"))
    assert not rule.matches(ChatRequest(backend="b", user="integralof"))


def test_mock_backend_config_checks_its_script():
    with pytest.raises(ValueError, match="mock backend 'm': mock rule 0"):
        BackendConfig(name="m", kind="mock", script=[{"match": {"regex": "("}, "reply": "x"}])


def test_mock_script_is_compiled_once_per_backend(monkeypatch, tmp_path):
    import sdag.backends as backends

    calls = []
    monkeypatch.setattr(backends, "parse_rules", lambda raw: calls.append(raw) or parse_rules(raw))
    script = [{"match": {"substring": "hi"}, "reply": "hello {role}"}, {"reply": "ok"}]
    path = tmp_path / "backends.json"
    path.write_text(json.dumps([{"name": "a", "kind": "mock", "script": script},
                                {"name": "b", "kind": "mock", "script": script, "seed": 1}]))
    client = build_client(load_backend_configs(path))
    assert len(calls) == 2
    reply = client.complete(ChatRequest(backend="a", user="hi", metadata={"role": "r"}))
    assert reply.text == "hello r"
    # The compiled rules ride on the config without entering its repr or equality.
    config = BackendConfig(name="m", kind="mock", script=script)
    assert len(calls) == 3 and len(config.rules) == 2
    assert "rules" not in repr(config)
    assert config == BackendConfig(name="m", kind="mock", script=script)
    assert MockBackend(config).rules is config.rules and len(calls) == 4
    assert BackendConfig(name="r", kind="remote", url="http://localhost").rules == ()


def test_mock_latency_deterministic_and_in_range():
    config = BackendConfig(
        name="m", kind="mock", script=[{"reply": "ok"}], seed=5, latency_ms=(5.0, 50.0)
    )
    backend = MockBackend(config)
    req = ChatRequest(backend="m", user="hello", metadata={"question_id": "q1"})
    first = backend.complete(req)
    second = backend.complete(req)
    assert first.latency == second.latency
    assert 0.005 <= first.latency <= 0.050
    other = backend.complete(
        ChatRequest(backend="m", user="hello", metadata={"question_id": "q2"})
    )
    assert other.latency != first.latency


def test_mock_latency_ignores_scheduling_order():
    config = BackendConfig(name="m", kind="mock", script=[{"reply": "ok"}], seed=5)
    backend = MockBackend(config)
    reqs = [
        ChatRequest(backend="m", user=f"u{i}", metadata={"question_id": f"q{i}"})
        for i in range(4)
    ]
    forward = [backend.complete(r).latency for r in reqs]
    backward = [backend.complete(r).latency for r in reversed(reqs)]
    assert forward == list(reversed(backward))


def list_join_latency(seed, backend, req, lo, hi):
    """The simulated latency as first written: the key is a list of six
    strings joined with the unit separator."""
    meta = req.metadata
    key = "\x1f".join(
        [
            str(seed),
            backend,
            req.user,
            str(meta.get("question_id", "")),
            str(meta.get("subject", "")),
            str(meta.get("role", "")),
        ]
    )
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    frac = int.from_bytes(digest[:8], "big") / 2.0**64
    return (lo + frac * (hi - lo)) / 1000.0


KEY_VALUE = st.one_of(st.text(max_size=12), st.integers())


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(),
    backend=st.text(min_size=1, max_size=12),
    user=st.text(max_size=40),
    metadata=st.fixed_dictionaries(
        {}, optional={"question_id": KEY_VALUE, "subject": KEY_VALUE, "role": KEY_VALUE,
                      "gold": KEY_VALUE}
    ),
    bounds=st.tuples(st.floats(0, 1000), st.floats(0, 1000)).map(sorted),
)
def test_simulated_latency_key_matches_list_join(seed, backend, user, metadata, bounds):
    req = ChatRequest(backend=backend, user=user, metadata=metadata)
    lo, hi = bounds
    assert _simulated_latency(seed, backend, req, lo, hi) == list_join_latency(
        seed, backend, req, lo, hi
    )


PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


def regex_reply(template, metadata):
    """A reply rendered as first written: one regex substitution per call."""

    def sub(m):
        key = m.group(1)
        return str(metadata[key]) if key in metadata else m.group(0)

    return PLACEHOLDER_RE.sub(sub, template)


TEMPLATE_PIECE = st.sampled_from(
    ["{gold}", "{wrong}", "{model_id}", "{unknown}", "{Gold}", "{}", "{{gold}}", "{gold",
     "gold}", "{", "}", "{9}", "{a b}", "<<", ">>", " ", "answer", "\n"]
) | st.text(max_size=6)
METADATA_VALUE = st.one_of(
    st.text(max_size=8), st.integers(), st.floats(allow_nan=False), st.booleans(), st.none()
)


@settings(max_examples=400, deadline=None)
@given(
    template=st.lists(TEMPLATE_PIECE, max_size=8).map("".join),
    metadata=st.dictionaries(
        st.sampled_from(["gold", "wrong", "model_id", "Gold", "question_id"]), METADATA_VALUE
    ),
)
def test_reply_renders_like_the_regex_substitution(template, metadata):
    backend = mock_backend([{"reply": template}])
    reply = backend.complete(ChatRequest(backend="b", user="u", metadata=metadata))
    assert reply.text == regex_reply(template, metadata)


def test_reply_without_placeholder_is_returned_as_is():
    def reply(template, metadata):
        req = ChatRequest(backend="b", user="u", metadata=metadata)
        return mock_backend([{"reply": template}]).complete(req).text

    assert reply("plain <<A>>", {"gold": "B"}) == "plain <<A>>"
    assert reply("<<{gold}>> {missing}", {"gold": "B"}) == "<<B>> {missing}"


# -- remote backend ---------------------------------------------------------


def remote_config(url, **overrides):
    base = dict(
        name="rb", kind="remote", url=url, model="test-model",
        retries=3, backoff_s=0.01, timeout_ms=2000,
    )
    base.update(overrides)
    return BackendConfig(**base)


def test_remote_success_and_wire_format(scripted_server):
    scripted_server.enqueue(200, {"choices": [{"message": {"content": "hi there"}}]})
    backend = RemoteBackend(remote_config(scripted_server.url))
    reply = backend.complete(
        ChatRequest(backend="rb", user="question text", metadata={"question_id": "q1"})
    )
    assert reply.text == "hi there"
    assert reply.attempts == 1
    assert scripted_server.requests[0]["json"] == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "question text"}],
        "temperature": 0.7,
        "max_tokens": 4096,
    }


def test_remote_retries_5xx_then_succeeds(scripted_server):
    scripted_server.enqueue(500, {"err": 1})
    scripted_server.enqueue(500, {"err": 2})
    scripted_server.enqueue(200, {"choices": [{"message": {"content": "finally"}}]})
    backend = RemoteBackend(remote_config(scripted_server.url))
    reply = backend.complete(ChatRequest(backend="rb", user="u"))
    assert reply.text == "finally"
    assert reply.attempts == 3
    assert len(scripted_server.requests) == 3


def test_remote_exhausts_retry_budget(scripted_server):
    for _ in range(3):
        scripted_server.enqueue(503, {"err": 1})
    backend = RemoteBackend(remote_config(scripted_server.url))
    with pytest.raises(TransportError) as excinfo:
        backend.complete(ChatRequest(backend="rb", user="u"))
    assert excinfo.value.attempts == 3
    assert len(scripted_server.requests) == 3


def test_remote_auth_error_no_retry(scripted_server, monkeypatch):
    monkeypatch.setenv("SDAG_TEST_KEY", "secret-token")
    scripted_server.enqueue(401, {"error": "bad key"})
    backend = RemoteBackend(remote_config(scripted_server.url, key_env="SDAG_TEST_KEY"))
    with pytest.raises(AuthError):
        backend.complete(ChatRequest(backend="rb", user="u"))
    assert len(scripted_server.requests) == 1
    assert scripted_server.requests[0]["headers"]["Authorization"] == "Bearer secret-token"


def test_remote_missing_key_fails_before_io(scripted_server, monkeypatch):
    monkeypatch.delenv("SDAG_TEST_KEY", raising=False)
    backend = RemoteBackend(remote_config(scripted_server.url, key_env="SDAG_TEST_KEY"))
    with pytest.raises(AuthError):
        backend.complete(ChatRequest(backend="rb", user="u"))
    assert scripted_server.requests == []


def test_remote_4xx_fails_fast(scripted_server):
    scripted_server.enqueue(404, {"error": "nope"})
    backend = RemoteBackend(remote_config(scripted_server.url))
    with pytest.raises(TransportError):
        backend.complete(ChatRequest(backend="rb", user="u"))
    assert len(scripted_server.requests) == 1


def test_remote_retries_429_within_budget(scripted_server):
    scripted_server.enqueue(429, {"error": "slow down"})
    scripted_server.enqueue(200, {"choices": [{"message": {"content": "later"}}]})
    backend = RemoteBackend(remote_config(scripted_server.url))
    reply = backend.complete(ChatRequest(backend="rb", user="u"))
    assert reply.text == "later"
    assert reply.attempts == 2


@pytest.mark.parametrize(
    "header, expected_s", [("0", 0.0), ("2", 2.0), ("120", 2.0), ("soon", 0.01), (None, 0.01)]
)
def test_remote_429_sleeps_retry_after_capped_at_timeout(
    scripted_server, monkeypatch, header, expected_s
):
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    scripted_server.enqueue(429, {}, headers={} if header is None else {"Retry-After": header})
    backend = RemoteBackend(remote_config(scripted_server.url))
    assert backend.complete(ChatRequest(backend="rb", user="u")).attempts == 2
    # Numeric Retry-After, capped at timeout_ms = 2000; otherwise backoff_s.
    assert slept == [expected_s]


def test_remote_429_exhausts_retry_budget(scripted_server):
    for _ in range(3):
        scripted_server.enqueue(429, {"error": "slow down"}, headers={"Retry-After": "0"})
    backend = RemoteBackend(remote_config(scripted_server.url))
    with pytest.raises(TransportError) as excinfo:
        backend.complete(ChatRequest(backend="rb", user="u"))
    assert excinfo.value.attempts == 3
    assert len(scripted_server.requests) == 3


def test_remote_malformed_body(scripted_server):
    # A missing reply, a null content and a list of content parts: none is text.
    bodies = [
        {"unexpected": "shape"},
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": [{"type": "text", "text": "hi"}]}}]},
    ]
    backend = RemoteBackend(remote_config(scripted_server.url))
    for body in bodies:
        scripted_server.enqueue(200, body)
        with pytest.raises(TransportError, match="malformed response body"):
            backend.complete(ChatRequest(backend="rb", user="u"))
    assert len(scripted_server.requests) == len(bodies)


def test_remote_timeout(scripted_server):
    for _ in range(2):
        scripted_server.enqueue(200, {"choices": []}, delay=0.8)
    backend = RemoteBackend(remote_config(scripted_server.url, retries=2, timeout_ms=150))
    with pytest.raises(Timeout):
        backend.complete(ChatRequest(backend="rb", user="u"))


def test_remote_connection_refused_retries():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    backend = RemoteBackend(
        remote_config(f"http://127.0.0.1:{port}/v1/chat/completions", retries=2)
    )
    with pytest.raises(TransportError):
        backend.complete(ChatRequest(backend="rb", user="u"))


# -- client and counter -----------------------------------------------------


def test_call_counter_thread_safety():
    counter = CallCounter()

    def worker():
        for _ in range(25):
            counter.increment()

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.total == 200


def test_client_counts_and_routes():
    client = build_client([
        BackendConfig(name="a", kind="mock", script=[{"reply": "from a"}]),
        BackendConfig(name="b", kind="mock", script=[{"reply": "from b"}]),
    ])
    assert client.complete(ChatRequest(backend="a", user="u")).text == "from a"
    assert client.complete(ChatRequest(backend="b", user="u")).text == "from b"
    assert client.counter.total == 2


class CountingBackend:
    """Records how many calls are inside `complete` at once.

    Each call waits at a barrier of `max_in_flight` parties, so the gate must
    admit that many together, then lingers so an extra admission would show.
    """

    simulated = True

    def __init__(self, max_in_flight):
        self.config = BackendConfig(name="c", kind="mock", max_in_flight=max_in_flight)
        self.barrier = threading.Barrier(max_in_flight, timeout=5)
        self.lock = threading.Lock()
        self.inside = 0
        self.peak = 0

    def complete(self, req):
        with self.lock:
            self.inside += 1
            self.peak = max(self.peak, self.inside)
        try:
            self.barrier.wait()
            time.sleep(0.02)
        finally:
            with self.lock:
                self.inside -= 1
        return ChatResponse(text="ok", latency=0.0, attempts=1, backend="c")


@pytest.mark.parametrize("max_in_flight", [1, 3])
def test_client_gate_admits_exactly_max_in_flight(max_in_flight):
    backend = CountingBackend(max_in_flight)
    client = ChatClient({"c": backend})
    errors = []

    def call():
        try:
            client.complete(ChatRequest(backend="c", user="u"))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=call, daemon=True) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert backend.peak == max_in_flight
    assert client.counter.total == 6


class FailingBackend:
    simulated = True
    config = BackendConfig(name="f", kind="mock", max_in_flight=1)

    def complete(self, req):
        raise TransportError("down", attempts=2)


def test_client_gate_frees_slot_on_transport_error():
    client = ChatClient({"f": FailingBackend()})
    raised = []

    def calls():
        for _ in range(3):
            try:
                client.complete(ChatRequest(backend="f", user="u"))
            except TransportError:
                raised.append(True)

    # With max_in_flight=1, a slot kept by the first failure would block the
    # second call for good.
    worker = threading.Thread(target=calls, daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert raised == [True, True, True]


def test_client_unknown_backend():
    client = build_client([BackendConfig(name="a", kind="mock", script=[{"reply": "x"}])])
    with pytest.raises(ValueError):
        client.complete(ChatRequest(backend="missing", user="u"))


def test_client_requires_backends():
    with pytest.raises(ValueError):
        ChatClient({})


def test_all_simulated_flag(scripted_server):
    mocks = build_client([BackendConfig(name="a", kind="mock", script=[{"reply": "x"}])])
    assert mocks.all_simulated
    mixed = build_client([
        BackendConfig(name="a", kind="mock", script=[{"reply": "x"}]),
        remote_config(scripted_server.url),
    ])
    assert not mixed.all_simulated


# -- config loading ---------------------------------------------------------


def test_load_sample_backend_configs():
    configs = load_backend_configs(SAMPLES / "backends.sample.json")
    names = {c.name for c in configs}
    assert {"annotator", "expert-math", "mock-echo"} <= names
    echo = next(c for c in configs if c.name == "mock-echo")
    assert echo.kind == "mock"
    assert echo.script  # script_path was resolved and loaded


def test_script_path_resolves_relative_to_config_file(tmp_path):
    rules = [{"reply": "hello"}]
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    config_path = tmp_path / "backends.json"
    config_path.write_text(json.dumps(
        {"backends": [{"name": "m", "kind": "mock", "script_path": "rules.json"}]}
    ))
    configs = load_backend_configs(config_path)
    assert configs[0].script == rules


def test_script_path_file_must_hold_a_list(tmp_path):
    (tmp_path / "rules.json").write_text("5")
    config_path = tmp_path / "backends.json"
    config_path.write_text(json.dumps([{"name": "m", "kind": "mock", "script_path": "rules.json"}]))
    with pytest.raises(ValueError) as info:
        load_backend_configs(config_path)
    assert str(info.value) == f"{config_path}: entry 0: {tmp_path / 'rules.json'}: script must be a list"


def test_load_backend_configs_plain_list(tmp_path):
    path = tmp_path / "backends.json"
    path.write_text(json.dumps([{"name": "m", "kind": "mock", "script": [{"reply": "x"}]}]))
    configs = load_backend_configs(path)
    assert configs[0].name == "m"


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"models": []}, "top-level object has no 'backends' list"),
        ("mock", "expected a list of entries"),
        ([{"name": "m", "kind": "mock"}, "m"], "entry 1 is not an object"),
        ([{"kind": "mock"}], "entry 0 lacks name"),
        ([{"name": "m", "script": []}], "entry 0 lacks kind"),
        ([{}], "entry 0 lacks name, kind"),
        ([{"name": "m", "kind": "mock", "scirpt": [], "sede": 1}],
         "entry 0 has unknown field(s) scirpt, sede"),
        ([{"name": ["m"], "kind": "mock"}], "entry 0: name must be a string"),
        ([{"name": "m", "kind": "mock", "max_in_flight": True}],
         "entry 0: max_in_flight must be an integer"),
        ([{"name": "m", "kind": "mock", "timeout_ms": 1.5}], "entry 0: timeout_ms must be an integer"),
        ([{"name": "m", "kind": "mock", "seed": None}], "entry 0: seed must be an integer"),
        ([{"name": "m", "kind": "mock", "backoff_s": "1"}], "entry 0: backoff_s must be a number"),
        ([{"name": "m", "kind": "mock", "latency_ms": [1]}],
         "entry 0: latency_ms must be a list of two numbers"),
        ([{"name": "m", "kind": "mock", "latency_ms": [1, False]}],
         "entry 0: latency_ms must be a list of two numbers"),
        ([{"name": "m", "kind": "mock", "script": {"reply": "x"}}], "entry 0: script must be a list"),
        ([{"name": "m", "kind": "remote", "url": 5}], "entry 0: url must be a string or null"),
        ([{"name": "m", "kind": "remote", "url": "u", "key_env": []}],
         "entry 0: key_env must be a string or null"),
        ([{"name": "m", "kind": "mock", "script_path": 5}],
         "entry 0: script_path must be a string or null"),
    ],
)
def test_malformed_backend_config_names_file_and_entry(tmp_path, raw, message):
    path = tmp_path / "backends.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError) as info:
        load_backend_configs(path)
    assert str(info.value) == f"{path}: {message}"


# -- import footprint ---------------------------------------------------------


def test_requests_is_loaded_only_for_remote_backends():
    script = "\n".join([
        "import sys",
        "import sdag, sdag.cli",
        "from sdag.backends import BackendConfig, build_client",
        "assert not {'requests', 'urllib3'} & set(sys.modules), 'loaded at import'",
        "build_client([BackendConfig(name='m', kind='mock')])",
        "assert 'requests' not in sys.modules, 'loaded by a mock backend'",
        "build_client([BackendConfig(name='r', kind='remote', url='http://127.0.0.1:9')])",
        "assert 'requests' in sys.modules, 'not loaded by a remote backend'",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr
