"""Offline `evaluate()` reports pinned against a committed capture.

tests/golden/reports_bench_dims.json holds the SHA-256 of
`render_report(evaluate(...), "json")` for every mode at two seeds, and for
sdag and fcg at parallelism 3 too. Every run uses the oracle mock pool and
its profiles from conftest, 40 synthetic questions, and the seeded untrained
router at the dims the benchmark trains and routes with (h = 64). That router
keeps edges (see tests/test_golden_dags.py), so the sdag and random_model
reports depend on edge scores, while the fcg report shows that fully
connected execution reads none. Regenerate (only for an intended change of
the reports) with:

    PYTHONPATH=src:tests python tests/test_golden_reports.py
"""

import hashlib
import json
from pathlib import Path

from conftest import make_profiling_records, oracle_client, oracle_pool
from sdag.embedding import HashedEmbedder
from sdag.evaluation import MODES, EvalConfig, evaluate, render_report
from sdag.profiling import run_profiling
from sdag.router.generation import generate_sdag
from sdag.router.model import RouterDims, init_params
from sdag.synthetic import SyntheticConfig, generate_synthetic_records

GOLDEN = Path(__file__).parent / "golden" / "reports_bench_dims.json"
DIMS = RouterDims(d_s=32, d_q=256, h=64, L=2)
QUESTIONS = 40
SEEDS = 2
# (mode, parallelism) for every captured report.
CASES = [(mode, 1) for mode in MODES] + [("sdag", 3), ("fcg", 3)]


def _inputs():
    records = generate_synthetic_records(SyntheticConfig(n_questions=QUESTIONS, seed=0))
    params = init_params(DIMS, seed=0)
    embedder = HashedEmbedder(d=DIMS.d_q)
    store = run_profiling(oracle_pool(), make_profiling_records(), oracle_client())
    return records, params, embedder, store


def _capture() -> dict[str, str]:
    records, params, embedder, store = _inputs()
    digests = {}
    for mode, parallelism in CASES:
        report = evaluate(
            records, oracle_client(), oracle_pool(),
            EvalConfig(mode=mode, seeds=SEEDS, parallelism=parallelism),
            params=params, embedder=embedder, store=store,
        )
        text = render_report(report, "json")
        digests[f"{mode}/p{parallelism}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_router_keeps_edges():
    records, params, embedder, _ = _inputs()
    assert any(generate_sdag(r.question, params, embedder).edges for r in records)


def test_reports_match_golden():
    assert _capture() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_capture(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.name}")
