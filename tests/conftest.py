"""Shared fixtures: oracle mock pools, profiling sets, a trained router, and
a scripted local HTTP server for remote-backend tests."""

import os

# Acceptance budgets are stated for a single CPU core; pin BLAS before numpy
# loads so timed runs measure exactly that.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sdag.backends import BackendConfig, build_client
from sdag.embedding import HashedEmbedder
from sdag.profiling import ModelPoolEntry
from sdag.router.loss import LossConfig
from sdag.router.model import RouterDims
from sdag.router.training import TrainConfig, train_router
from sdag.subjects import SUBJECTS, QuestionRecord, Subject
from sdag.synthetic import SyntheticConfig, dag_dataset, generate_synthetic_records

# Every subject except Other has one oracle expert in the mock pool.
SPECIALTIES = tuple(s for s in SUBJECTS if s is not Subject.OTHER)

# Settings for the shared trained router (also the acceptance training run).
TRAIN_DIMS = dict(d_s=32, d_q=256, h=64, L=2)
TRAIN_EPOCHS = 20
TRAIN_LR = 1e-3
TRAIN_LAMBDA_EDGE = 2.0
TRAIN_SEED = 0
DATA_SEED = 11
N_TRAIN = 500
N_HELD = 120


def slug(subject: Subject) -> str:
    return subject.value.lower().replace(" ", "-")


def oracle_backend_configs() -> list[BackendConfig]:
    """One mock backend per specialty: answers with the gold label iff the
    question's dominant subject matches, otherwise with a wrong label."""
    configs = []
    for subject in SPECIALTIES:
        script = [
            {
                "match": {"metadata": {"field": "dominant_subject", "equals": subject.value}},
                "reply": "<<{gold}>>",
            },
            {"reply": "<<{wrong}>>"},
        ]
        configs.append(
            BackendConfig(name=f"mock-{slug(subject)}", kind="mock", script=script, seed=1)
        )
    return configs


def oracle_pool() -> list[ModelPoolEntry]:
    return [
        ModelPoolEntry(
            model_id=f"expert-{slug(s)}",
            backend=f"mock-{slug(s)}",
            declared_subjects=(s,),
        )
        for s in SPECIALTIES
    ]


def oracle_client():
    """Fresh client (and call counter) over the oracle backends."""
    return build_client(oracle_backend_configs())


def make_profiling_records() -> list[QuestionRecord]:
    """Two questions per specialty, that specialty dominant, so profiling
    credits every expert on its own subject."""
    records = []
    for i, subject in enumerate(SPECIALTIES):
        partner = SPECIALTIES[(i + 1) % len(SPECIALTIES)]
        text = f"{subject.value.lower()} {subject.value.lower()} {partner.value.lower()}"
        for j in range(2):
            records.append(
                QuestionRecord(
                    id=f"prof-{i:02d}-{j}",
                    question=text,
                    options=["choice 1", "choice 2", "choice 3", "choice 4"],
                    gold="A",
                    subjects={subject: 0.6, partner: 0.4},
                    split="profiling",
                )
            )
    return records


@pytest.fixture()
def profiling_records():
    return make_profiling_records()


class TrainedRouter:
    def __init__(self):
        records = generate_synthetic_records(
            SyntheticConfig(n_questions=N_TRAIN + N_HELD, seed=DATA_SEED)
        )
        self.train_records = records[:N_TRAIN]
        self.held_records = records[N_TRAIN:]
        self.embedder = HashedEmbedder(d=TRAIN_DIMS["d_q"])
        config = TrainConfig(
            epochs=TRAIN_EPOCHS,
            lr=TRAIN_LR,
            seed=TRAIN_SEED,
            loss=LossConfig(lambda_edge=TRAIN_LAMBDA_EDGE),
        )
        start = time.monotonic()
        self.result = train_router(
            dag_dataset(self.train_records),
            self.embedder,
            config,
            dims=RouterDims(**TRAIN_DIMS),
        )
        self.train_seconds = time.monotonic() - start
        self.params = self.result.params


@pytest.fixture(scope="session")
def trained_router():
    return TrainedRouter()


# -- scripted local HTTP server ---------------------------------------------


class ScriptedServer:
    """Loopback HTTP server that replays scripted (status, body, delay,
    headers) responses in order and records every request it receives."""

    def __init__(self):
        self.responses = []
        self.requests = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    payload = json.loads(raw) if raw else None
                except json.JSONDecodeError:
                    payload = raw
                outer.requests.append(
                    {
                        "path": self.path,
                        "headers": dict(self.headers),
                        "json": payload,
                    }
                )
                if outer.responses:
                    status, body, delay, headers = outer.responses.pop(0)
                else:
                    status, body, delay, headers = (
                        200, {"choices": [{"message": {"content": "ok"}}]}, 0.0, {}
                    )
                if delay:
                    time.sleep(delay)
                data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat/completions"

    def enqueue(self, status, body, delay=0.0, headers=None):
        self.responses.append((status, body, delay, headers or {}))

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


@pytest.fixture()
def scripted_server():
    server = ScriptedServer()
    yield server
    server.close()
