"""Chat backends: scripted mocks, remote retry/auth behavior, call counting."""

import json
import socket
import threading
import time
from pathlib import Path

import pytest

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
    mock_complete,
    parse_rules,
)
from sdag.errors import AuthError, NoRuleMatched, Timeout, TransportError

SAMPLES = Path(__file__).resolve().parents[1] / "configs"


# -- request/response validation --------------------------------------------


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(backend="", user="hi")
    with pytest.raises(ValueError):
        ChatRequest(backend="b", user="hi", temperature=3.0)
    with pytest.raises(ValueError):
        ChatRequest(backend="b", user="hi", max_tokens=0)


def test_chat_response_validation():
    with pytest.raises(ValueError):
        ChatResponse(text="x", latency=-1.0, attempts=1, backend="b")
    with pytest.raises(ValueError):
        ChatResponse(text="x", latency=0.0, attempts=0, backend="b")


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


def sample_mock_client():
    configs = load_backend_configs(SAMPLES / "backends.sample.json")
    mock = [c for c in configs if c.name == "mock-echo"]
    return build_client(mock)


def test_mock_substring_rule():
    reply = sample_mock_client().complete(ChatRequest(backend="mock-echo", user="what is 2+2?"))
    assert "<<4>>" in reply.text
    assert reply.simulated


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
    rules = parse_rules([
        {"match": {"metadata": {"field": "candidate", "equals_field": "gold"}}, "reply": "same"},
        {"reply": "different"},
    ])
    hit = mock_complete(rules, ChatRequest(backend="b", user="u", metadata={"candidate": "A", "gold": "A"}))
    miss = mock_complete(rules, ChatRequest(backend="b", user="u", metadata={"candidate": "A", "gold": "B"}))
    assert hit.text == "same"
    assert miss.text == "different"


def test_mock_no_rule_matched():
    rules = parse_rules([{"match": {"substring": "never"}, "reply": "x"}])
    with pytest.raises(NoRuleMatched):
        mock_complete(rules, ChatRequest(backend="b", user="u"))


def test_mock_unknown_placeholder_left_verbatim():
    rules = parse_rules([{"reply": "keep {unknown} and fill {gold}"}])
    reply = mock_complete(rules, ChatRequest(backend="b", user="u", metadata={"gold": "A"}))
    assert reply.text == "keep {unknown} and fill A"


def test_parse_rules_rejects_bad_entries():
    with pytest.raises(ValueError):
        parse_rules([{"no_reply": True}])
    with pytest.raises(ValueError):
        parse_rules([{"reply": "x", "match": {"unknown_matcher": 1}}])


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
        ChatRequest(backend="rb", user="question text", system="be brief", temperature=0.2)
    )
    assert reply.text == "hi there"
    assert reply.attempts == 1
    assert not reply.simulated
    sent = scripted_server.requests[0]["json"]
    assert sent["model"] == "test-model"
    assert sent["temperature"] == 0.2
    assert sent["messages"] == [
        {"role": "system", "content": "be brief"},
        {"role": "user", "content": "question text"},
    ]


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
    scripted_server.enqueue(200, {"unexpected": "shape"})
    backend = RemoteBackend(remote_config(scripted_server.url))
    with pytest.raises(TransportError):
        backend.complete(ChatRequest(backend="rb", user="u"))


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

    def worker(i):
        for _ in range(25):
            counter.increment("b", f"q{i % 2}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = counter.snapshot()
    assert snap["total"] == 200
    assert snap["by_backend"] == {"b": 200}
    assert snap["by_question"]["q0"] + snap["by_question"]["q1"] == 200


def test_client_counts_and_routes():
    client = build_client([
        BackendConfig(name="a", kind="mock", script=[{"reply": "from a"}]),
        BackendConfig(name="b", kind="mock", script=[{"reply": "from b"}]),
    ])
    assert client.complete(ChatRequest(backend="a", user="u")).text == "from a"
    assert client.complete(ChatRequest(backend="b", user="u")).text == "from b"
    assert client.counter.snapshot()["by_backend"] == {"a": 1, "b": 1}


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


def test_load_backend_configs_plain_list(tmp_path):
    path = tmp_path / "backends.json"
    path.write_text(json.dumps([{"name": "m", "kind": "mock", "script": [{"reply": "x"}]}]))
    configs = load_backend_configs(path)
    assert configs[0].name == "m"
