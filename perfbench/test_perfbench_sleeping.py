"""The sleeping backend replies exactly as the mock it wraps, waits out the
scaled simulated latency, and sits behind ChatClient's gates."""

import threading
import time

import pytest

from sdag.backends import BackendConfig, ChatRequest, MockBackend
from sleeping_backend import SleepingBackend, sleeping_client

CONFIG = BackendConfig(
    name="mock-a",
    kind="mock",
    seed=3,
    latency_ms=(2.0, 6.0),
    script=[
        {"match": {"substring": "physics"}, "reply": "<<B>> from {subject}"},
        {"match": {"metadata": {"field": "role", "equals": "Dominant"}}, "reply": "<<{gold}>>"},
        {"reply": "no answer"},
    ],
)


def requests():
    return [
        ChatRequest(
            backend="mock-a",
            user=f"question {i} about {'physics' if i % 3 == 0 else 'history'}",
            metadata={"question_id": f"q{i}", "subject": "Physics",
                      "role": "Dominant" if i % 2 else "SubjectExpert", "gold": "C"},
        )
        for i in range(9)
    ]


def test_replies_equal_mock_backend_and_wait_out_latency():
    mock = MockBackend(CONFIG)
    sleeping = SleepingBackend(MockBackend(CONFIG), scale=0.5)
    assert sleeping.simulated is False
    for req in requests():
        start = time.perf_counter()
        got = sleeping.complete(req)
        waited = time.perf_counter() - start
        expected = mock.complete(req)
        assert got == expected
        assert waited >= 0.5 * expected.latency


def test_client_over_sleeping_backends_counts_calls_and_measures_wall_time():
    client = sleeping_client([CONFIG], scale=0.0)
    assert client.all_simulated is False
    mock = MockBackend(CONFIG)
    for req in requests():
        assert client.complete(req) == mock.complete(req)
    assert client.counter.total == len(requests())


@pytest.mark.parametrize("max_in_flight, serialized", [(1, True), (2, False)])
def test_max_in_flight_gate_applies(max_in_flight, serialized):
    config = BackendConfig(name="mock-a", kind="mock", latency_ms=(100.0, 100.0),
                           max_in_flight=max_in_flight, script=[{"reply": "ok"}])
    client = sleeping_client([config], scale=1.0)
    reqs = requests()[:2]
    threads = [threading.Thread(target=client.complete, args=(r,)) for r in reqs]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    elapsed = time.perf_counter() - start
    assert not any(t.is_alive() for t in threads)
    assert (elapsed >= 0.2) is serialized


def test_negative_scale_is_rejected():
    with pytest.raises(ValueError):
        SleepingBackend(MockBackend(CONFIG), scale=-0.1)
