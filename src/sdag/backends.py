"""Chat-completion backends: remote OpenAI-compatible HTTP and scripted mocks.

Every LLM call in the package goes through a ChatClient, which owns the call
counter and per-backend concurrency bounds. Remote backends retry transport
failures, 5xx and 429 with exponential backoff (or the server's Retry-After);
auth problems fail immediately.
Mock backends are pure functions of (script, seed, request), with latency
simulated from a hash of the request so traces do not depend on scheduling.
"""

from __future__ import annotations

import hashlib
import logging
import os
import queue
import re
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import AuthError, NoRuleMatched, Timeout, TransportError
from .fileio import (
    BACKEND_FIELDS,
    MATCH_FIELDS,
    METADATA_FIELDS,
    RULE_FIELDS,
    check_fields,
    read_entry_list,
    read_json,
)

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

# Sampling settings of every remote request.
TEMPERATURE = 0.7
MAX_TOKENS = 4096


@dataclass(slots=True)
class ChatRequest:
    """One chat call: backend name, the user message, trace metadata.

    Metadata never goes over the wire; it drives mock scripts and tracing.
    """

    backend: str
    user: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.backend:
            raise ValueError("backend name is required")


@dataclass(slots=True)
class ChatResponse:
    text: str
    latency: float
    attempts: int
    backend: str

    def __post_init__(self):
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.attempts < 1:
            raise ValueError("attempt count must be >= 1")


@dataclass(frozen=True)
class BackendConfig:
    """One configured endpoint. `kind` is "remote" or "mock".

    Remote fields: url, model, key_env, timeout_ms, retries (total attempt
    budget), backoff_s. Mock fields: script (rule list), seed, latency_ms
    (simulated [lo, hi] range). max_in_flight bounds concurrency for both.
    """

    name: str
    kind: str
    url: str | None = None
    model: str | None = None
    key_env: str | None = None
    max_in_flight: int = 8
    timeout_ms: int = 30000
    retries: int = 3
    backoff_s: float = 0.5
    script: list = field(default_factory=list)
    seed: int = 0
    latency_ms: tuple[float, float] = (5.0, 50.0)
    # A mock backend's script as `parse_rules` compiled it while checking it,
    # which `MockBackend` runs; empty for a remote backend.
    rules: tuple[MockRule, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("remote", "mock"):
            raise ValueError(f"backend kind must be remote or mock, got {self.kind!r}")
        if self.kind == "remote" and not self.url:
            raise ValueError(f"remote backend {self.name!r} needs a url")
        if self.retries < 1:
            raise ValueError("retries (total attempts) must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        lo, hi = self.latency_ms
        if lo < 0 or hi < lo:
            raise ValueError(f"latency_ms range invalid: {self.latency_ms}")
        if self.kind == "mock":
            try:
                object.__setattr__(self, "rules", tuple(parse_rules(self.script)))
            except ValueError as exc:
                raise ValueError(f"mock backend {self.name!r}: {exc}") from None


# -- mock scripts -----------------------------------------------------------


@dataclass(frozen=True)
class MockRule:
    """One script entry as `parse_rules` compiled it: its matcher's predicate,
    and its reply split into the text before the first placeholder and a
    (field, placeholder, text after it) triple per placeholder.
    """

    matches: Callable[[ChatRequest], bool]
    head: str
    placeholders: tuple[tuple[str, str, str], ...]


_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


def parse_rules(raw: list) -> list[MockRule]:
    """Check and compile a mock script; raises ValueError naming the bad rule."""
    rules = []
    for i, entry in enumerate(raw):
        check_fields(f"mock rule {i}", entry, RULE_FIELDS)
        head, *rest = _PLACEHOLDER_RE.split(entry["reply"])
        placeholders = tuple((key, f"{{{key}}}", tail) for key, tail in zip(rest[::2], rest[1::2]))
        rules.append(MockRule(_matcher(f"mock rule {i}", entry.get("match")), head, placeholders))
    return rules


def _matcher(where: str, match) -> Callable[[ChatRequest], bool]:
    """The predicate of one rule's `match`: always true for "default" or none;
    `substring` and `regex` test the user text; `metadata` compares a request
    metadata field with a constant (as strings) or with another field."""
    if match in (None, "default"):
        return lambda req: True
    check_fields(f"{where}: match", match, MATCH_FIELDS)
    if "substring" in match:
        needle = match["substring"]
        return lambda req: needle in req.user
    if "regex" in match:
        try:
            search = re.compile(match["regex"]).search
        except re.error as exc:
            raise ValueError(f"{where}: bad regex {match['regex']!r}: {exc}") from None
        return lambda req: search(req.user) is not None
    spec = match["metadata"]
    try:
        check_fields("metadata", spec, METADATA_FIELDS)
    except ValueError as exc:
        raise ValueError(
            f"{where}: a metadata matcher needs a string field and exactly one of "
            f"equals/equals_field ({exc})"
        ) from None
    key = spec["field"]
    if "equals_field" in spec:
        other = spec["equals_field"]
        return lambda req: (v := req.metadata.get(key)) is not None and v == req.metadata.get(other)
    expected = str(spec["equals"])
    return lambda req: (v := req.metadata.get(key)) is not None and str(v) == expected


def _simulated_latency(seed: int, backend: str, req: ChatRequest, lo: float, hi: float) -> float:
    meta = req.metadata
    key = (
        f"{seed!s}\x1f{backend}\x1f{req.user}\x1f{meta.get('question_id', '')!s}"
        f"\x1f{meta.get('subject', '')!s}\x1f{meta.get('role', '')!s}"
    )
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    frac = int.from_bytes(digest[:8], "big") / 2.0**64
    return (lo + frac * (hi - lo)) / 1000.0


class MockBackend:
    def __init__(self, config: BackendConfig):
        self.config = config
        self.rules = config.rules

    @property
    def simulated(self) -> bool:
        return True

    def complete(self, req: ChatRequest) -> ChatResponse:
        """Deterministic scripted completion; first matching rule wins. A reply
        placeholder whose field the request's metadata lacks stays as written."""
        for rule in self.rules:
            if rule.matches(req):
                text = rule.head
                metadata = req.metadata
                for key, placeholder, tail in rule.placeholders:
                    text = f"{text}{metadata.get(key, placeholder)!s}{tail}"
                config = self.config
                latency = _simulated_latency(config.seed, req.backend, req, *config.latency_ms)
                return ChatResponse(text, latency, 1, req.backend)
        raise NoRuleMatched(f"backend {req.backend!r}: no rule matched and no default")


# -- remote -----------------------------------------------------------------


def _retry_after_s(headers, cap_s: float) -> float | None:
    """A numeric Retry-After header (RFC 9110 section 10.2.3), capped; else None.

    The HTTP-date form is not honoured; the caller falls back to its backoff.
    """
    value = headers.get("Retry-After", "").strip()
    return min(float(value), cap_s) if re.fullmatch(r"[0-9]+", value) else None


class RemoteBackend:
    """OpenAI-compatible chat endpoint with retry on transport errors, 5xx and 429.

    `requests` (and urllib3, ssl, idna with it) is imported here rather than
    at module level, so processes that only build mock backends never load it.
    """

    def __init__(self, config: BackendConfig, session: requests.Session | None = None):
        import requests

        self.config = config
        self.session = session or requests.Session()

    @property
    def simulated(self) -> bool:
        return False

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.config.key_env:
            key = os.environ.get(self.config.key_env)
            if not key:
                raise AuthError(
                    f"backend {self.config.name!r}: environment variable "
                    f"{self.config.key_env} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(self, req: ChatRequest) -> ChatResponse:
        import requests

        headers = self._headers()  # fails before any I/O when the key is missing
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": req.user}],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        start = time.monotonic()
        last_error: Exception | None = None
        timed_out = False
        retry_after: float | None = None
        for attempt in range(1, self.config.retries + 1):
            if attempt > 1:
                backoff = self.config.backoff_s * 2 ** (attempt - 2)
                time.sleep(backoff if retry_after is None else retry_after)
            retry_after = None
            try:
                resp = self.session.post(
                    self.config.url,
                    json=body,
                    headers=headers,
                    timeout=self.config.timeout_ms / 1000.0,
                )
            except requests.Timeout as exc:
                last_error, timed_out = exc, True
                logger.warning("backend %s attempt %d timed out", self.config.name, attempt)
                continue
            except requests.RequestException as exc:
                last_error, timed_out = exc, False
                logger.warning("backend %s attempt %d failed: %s", self.config.name, attempt, exc)
                continue
            if resp.status_code in (401, 403):
                raise AuthError(
                    f"backend {self.config.name!r}: HTTP {resp.status_code} (bad credentials)"
                )
            if resp.status_code >= 500 or resp.status_code == 429:
                last_error = TransportError(
                    f"backend {self.config.name!r}: HTTP {resp.status_code}", attempts=attempt
                )
                timed_out = False
                if resp.status_code == 429:
                    retry_after = _retry_after_s(resp.headers, self.config.timeout_ms / 1000.0)
                logger.warning(
                    "backend %s attempt %d: HTTP %d", self.config.name, attempt, resp.status_code
                )
                continue
            if resp.status_code != 200:
                raise TransportError(
                    f"backend {self.config.name!r}: HTTP {resp.status_code}", attempts=attempt
                )
            try:
                text = resp.json()["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"content is {type(text).__name__}, not a string")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(
                    f"backend {self.config.name!r}: malformed response body ({exc})",
                    attempts=attempt,
                ) from exc
            return ChatResponse(
                text=text,
                latency=time.monotonic() - start,
                attempts=attempt,
                backend=self.config.name,
            )
        error_cls = Timeout if timed_out else TransportError
        raise error_cls(
            f"backend {self.config.name!r}: all {self.config.retries} attempts failed "
            f"(last: {last_error})",
            attempts=self.config.retries,
        )


# -- client -----------------------------------------------------------------


class CallCounter:
    """Thread-safe count of the calls a client has made."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def increment(self) -> None:
        with self._lock:
            self.total += 1


class ChatClient:
    """Uniform entry point over named backends; owns counting and bounds.

    Each backend admits at most its `max_in_flight` calls at once: its free
    slots are tokens in a queue.SimpleQueue, and a call takes one, waiting in
    C with the GIL released while none is free (a threading.Semaphore would
    run a Python-level Condition on every call), and puts it back when it
    returns or raises. The backend set is fixed at construction, and so are
    `max_in_flight`, each backend's slot count, and `all_simulated`, which
    holds when every backend is simulated.
    """

    def __init__(self, backends: dict[str, "MockBackend | RemoteBackend"]):
        if not backends:
            raise ValueError("at least one backend is required")
        self.backends = backends
        self.counter = CallCounter()
        self.max_in_flight = {name: b.config.max_in_flight for name, b in backends.items()}
        self._slots: dict[str, queue.SimpleQueue] = {}
        for name, limit in self.max_in_flight.items():
            self._slots[name] = slots = queue.SimpleQueue()
            for _ in range(limit):
                slots.put(None)
        self.all_simulated = all(b.simulated for b in backends.values())

    def complete(self, req: ChatRequest) -> ChatResponse:
        backend = self.backends.get(req.backend)
        if backend is None:
            raise ValueError(f"unknown backend: {req.backend!r}")
        self.counter.increment()
        slots = self._slots[req.backend]
        slots.get()
        try:
            return backend.complete(req)
        finally:
            slots.put(None)


def load_backend_configs(path: str | Path) -> list[BackendConfig]:
    """Read a backend config file: a list, or {"backends": [...]}.

    A `script_path` is resolved relative to the file and replaced by the
    script it holds.
    """
    path = Path(path)
    configs = []
    for i, entry in enumerate(read_entry_list(path, "backends", BACKEND_FIELDS, unique="name")):
        where = f"{path}: entry {i}"
        script_path = entry.pop("script_path", None)
        if script_path is not None:
            script_path = path.parent / script_path  # an absolute path replaces the parent
            entry["script"] = read_json(script_path, ValueError)
            check_fields(f"{where}: {script_path}", entry, BACKEND_FIELDS)
        if "latency_ms" in entry:
            entry["latency_ms"] = tuple(entry["latency_ms"])
        try:
            configs.append(BackendConfig(**entry))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return configs


def build_client(configs: list[BackendConfig], session: requests.Session | None = None) -> ChatClient:
    return ChatClient({
        c.name: MockBackend(c) if c.kind == "mock" else RemoteBackend(c, session=session)
        for c in configs
    })
