"""A mock backend that really waits out its simulated latency.

`SleepingBackend` wraps `sdag.backends.MockBackend`: it returns the mock's
`ChatResponse` unchanged, then sleeps `scale` times the simulated latency
before handing it back. It reports `simulated=False`, so the executor and the
evaluation harness time the question with the wall clock, as they would for a
remote endpoint. It sits behind the unmodified `ChatClient`, so the client's
call counting and `max_in_flight` gates apply to it.
"""

from __future__ import annotations

import time

from sdag.backends import BackendConfig, ChatClient, ChatRequest, ChatResponse, MockBackend


class SleepingBackend:
    def __init__(self, mock: MockBackend, scale: float):
        if scale < 0:
            raise ValueError(f"latency scale must be >= 0, got {scale}")
        self.mock = mock
        self.config = mock.config
        self.scale = scale

    @property
    def simulated(self) -> bool:
        return False

    def complete(self, req: ChatRequest) -> ChatResponse:
        response = self.mock.complete(req)
        time.sleep(response.latency * self.scale)
        return response


def sleeping_client(configs: list[BackendConfig], scale: float) -> ChatClient:
    """A ChatClient whose every backend is a SleepingBackend over a mock."""
    return ChatClient({c.name: SleepingBackend(MockBackend(c), scale) for c in configs})
