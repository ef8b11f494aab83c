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
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import requests

from .errors import AuthError, NoRuleMatched, Timeout, TransportError

logger = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.7
DEFAULT_MAX_TOKENS = 4096


@dataclass(frozen=True)
class ChatRequest:
    """One chat call: backend name, messages, sampling knobs, trace metadata.

    Metadata never goes over the wire; it drives mock scripts and tracing.
    """

    backend: str
    user: str
    system: str | None = None
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.backend:
            raise ValueError("backend name is required")
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    latency: float
    attempts: int
    backend: str
    simulated: bool = False

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


# -- mock scripts -----------------------------------------------------------


@dataclass(frozen=True)
class MockRule:
    """One script entry. Exactly one matcher: substring, regex, metadata
    ({field, equals} literal or {field, equals_field} cross-reference), or
    default. First matching rule in file order wins.
    """

    reply: str
    substring: str | None = None
    regex: str | None = None
    meta_field: str | None = None
    meta_equals: str | None = None
    meta_equals_field: str | None = None
    default: bool = False

    def matches(self, req: ChatRequest) -> bool:
        if self.default:
            return True
        if self.substring is not None:
            return self.substring in _full_text(req)
        if self.regex is not None:
            return re.search(self.regex, _full_text(req)) is not None
        if self.meta_field is not None:
            value = req.metadata.get(self.meta_field)
            if self.meta_equals_field is not None:
                return value is not None and value == req.metadata.get(self.meta_equals_field)
            return value is not None and str(value) == str(self.meta_equals)
        return False


def _full_text(req: ChatRequest) -> str:
    return (req.system + "\n" + req.user) if req.system else req.user


def parse_rules(raw: list) -> list[MockRule]:
    rules = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "reply" not in entry:
            raise ValueError(f"mock rule {i} must be an object with a reply")
        match = entry.get("match", "default")
        if match == "default" or entry.get("default"):
            rules.append(MockRule(reply=entry["reply"], default=True))
        elif isinstance(match, dict) and "substring" in match:
            rules.append(MockRule(reply=entry["reply"], substring=match["substring"]))
        elif isinstance(match, dict) and "regex" in match:
            rules.append(MockRule(reply=entry["reply"], regex=match["regex"]))
        elif isinstance(match, dict) and "metadata" in match:
            spec = match["metadata"]
            rules.append(
                MockRule(
                    reply=entry["reply"],
                    meta_field=spec["field"],
                    meta_equals=spec.get("equals"),
                    meta_equals_field=spec.get("equals_field"),
                )
            )
        else:
            raise ValueError(f"mock rule {i} has an unrecognized matcher: {match!r}")
    return rules


_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


def _render_reply(template: str, metadata: dict) -> str:
    def sub(m: re.Match) -> str:
        key = m.group(1)
        return str(metadata[key]) if key in metadata else m.group(0)

    return _PLACEHOLDER_RE.sub(sub, template)


def _simulated_latency(seed: int, backend: str, req: ChatRequest, lo: float, hi: float) -> float:
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


def mock_complete(script: list[MockRule], req: ChatRequest, *, seed: int = 0,
                  latency_ms: tuple[float, float] = (5.0, 50.0)) -> ChatResponse:
    """Deterministic scripted completion; first matching rule wins."""
    for rule in script:
        if rule.matches(req):
            text = _render_reply(rule.reply, req.metadata)
            latency = _simulated_latency(seed, req.backend, req, *latency_ms)
            return ChatResponse(
                text=text, latency=latency, attempts=1, backend=req.backend, simulated=True
            )
    raise NoRuleMatched(f"backend {req.backend!r}: no rule matched and no default")


class MockBackend:
    def __init__(self, config: BackendConfig):
        self.config = config
        self.rules = parse_rules(config.script)

    @property
    def simulated(self) -> bool:
        return True

    def complete(self, req: ChatRequest) -> ChatResponse:
        return mock_complete(
            self.rules, req, seed=self.config.seed, latency_ms=self.config.latency_ms
        )


# -- remote -----------------------------------------------------------------


def _retry_after_s(headers, cap_s: float) -> float | None:
    """A numeric Retry-After header (RFC 9110 section 10.2.3), capped; else None.

    The HTTP-date form is not honoured; the caller falls back to its backoff.
    """
    value = headers.get("Retry-After", "").strip()
    return min(float(value), cap_s) if re.fullmatch(r"[0-9]+", value) else None


class RemoteBackend:
    """OpenAI-compatible chat endpoint with retry on transport errors, 5xx and 429."""

    def __init__(self, config: BackendConfig, session: requests.Session | None = None):
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
        headers = self._headers()  # fails before any I/O when the key is missing
        messages = []
        if req.system:
            messages.append({"role": "system", "content": req.system})
        messages.append({"role": "user", "content": req.user})
        body = {
            "model": self.config.model,
            "messages": messages,
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
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
    """Thread-safe per-run call accounting, keyed by backend and question."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0
        self.by_backend: dict[str, int] = {}
        self.by_question: dict[str, int] = {}

    def increment(self, backend: str, question_id: str | None = None) -> None:
        with self._lock:
            self.total += 1
            self.by_backend[backend] = self.by_backend.get(backend, 0) + 1
            if question_id is not None:
                self.by_question[question_id] = self.by_question.get(question_id, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "total": self.total,
                "by_backend": dict(self.by_backend),
                "by_question": dict(self.by_question),
            }


class ChatClient:
    """Uniform entry point over named backends; owns counting and bounds."""

    def __init__(self, backends: dict[str, "MockBackend | RemoteBackend"]):
        if not backends:
            raise ValueError("at least one backend is required")
        self.backends = backends
        self.counter = CallCounter()
        self._gates = {
            name: threading.BoundedSemaphore(b.config.max_in_flight)
            for name, b in backends.items()
        }

    @property
    def all_simulated(self) -> bool:
        return all(b.simulated for b in self.backends.values())

    def complete(self, req: ChatRequest) -> ChatResponse:
        backend = self.backends.get(req.backend)
        if backend is None:
            raise ValueError(f"unknown backend: {req.backend!r}")
        self.counter.increment(req.backend, req.metadata.get("question_id"))
        with self._gates[req.backend]:
            return backend.complete(req)


def build_backend(config: BackendConfig, session: requests.Session | None = None):
    if config.kind == "mock":
        return MockBackend(config)
    return RemoteBackend(config, session=session)


def _config_from_dict(entry: dict, base_dir: Path | None = None) -> BackendConfig:
    entry = dict(entry)
    script = entry.get("script", [])
    script_path = entry.pop("script_path", None)
    if script_path is not None:
        path = Path(script_path)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        script = json.loads(path.read_text(encoding="utf-8"))
    entry["script"] = script
    if "latency_ms" in entry:
        entry["latency_ms"] = tuple(entry["latency_ms"])
    return BackendConfig(**entry)


def load_backend_configs(path: str | Path) -> list[BackendConfig]:
    """Read a backend config file: a list, or {"backends": [...]}."""
    path = Path(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    entries = raw["backends"] if isinstance(raw, dict) else raw
    return [_config_from_dict(e, base_dir=path.parent) for e in entries]


def build_client(configs: list[BackendConfig], session: requests.Session | None = None) -> ChatClient:
    return ChatClient({c.name: build_backend(c, session=session) for c in configs})
