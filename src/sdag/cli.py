"""Command line surface: curate, train, profile, run, eval.

Exit codes: 0 on success, 1 on usage errors (bad or out-of-range flags,
missing inputs for the chosen mode), 2 on runtime failures (transport,
corrupt files, failed invariants). Flag ranges are checked while parsing,
before any file is read.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .backends import build_client, load_backend_configs
from .curation import (
    CurationConfig,
    curate_dataset,
    read_records,
    write_records,
)
from .embedding import HashedEmbedder
from .errors import SdagError
from .evaluation import MODES, EvalConfig, evaluate, render_report
from .fileio import atomic_writer
from .orchestrator import execute_dag, execute_fcg
from .profiling import (
    PROFILE_SEED,
    check_pool_backends,
    load_pool,
    load_profiles,
    run_profiling,
    save_profiles,
    selection_map,
)
from .router.checkpoint import load_checkpoint, save_checkpoint
from .router.generation import GenerationConfig, generate_sdag
from .router.model import RouterDims, RouterParams
from .router.training import TrainConfig, train_router
from .subjects import OPTION_LABELS, WEIGHT_THRESHOLD, build_ground_truth_dag

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


def _split_records(records, split):
    if split == "all":
        return list(records)
    chosen = [r for r in records if r.split == split]
    if not chosen:
        raise UsageError(
            f"no records with split {split!r}; pass --split all to take every record"
        )
    return chosen


def _embedder_for(params: RouterParams) -> HashedEmbedder:
    descriptor = params.embedder or ""
    if descriptor.startswith("hashed"):
        return HashedEmbedder(d=params.dims.d_q)
    raise UsageError(
        f"checkpoint was trained with embedder {descriptor!r}; "
        "only hashed embeddings can be reconstructed from a checkpoint"
    )


def _cmd_curate(args) -> int:
    raw = read_records(args.inp)
    client = build_client(load_backend_configs(args.backends))
    cfg = CurationConfig(
        backend=args.backend,
        seed=args.seed,
        profiling_size=args.profiling_size,
        train_ratio=args.train_ratio,
        profiling_from_test=args.profiling_from_test,
    )
    dataset = curate_dataset(raw, client, cfg)
    write_records(dataset.records, args.out)
    print(json.dumps(dataset.stats, sort_keys=True, indent=2))
    return 0


def _cmd_train(args) -> int:
    records = _split_records(read_records(args.data), args.split)
    missing = [r.id for r in records if not r.subjects]
    if missing:
        raise UsageError(f"{len(missing)} records lack subject annotations (e.g. {missing[0]})")
    dataset = [
        (r.question, build_ground_truth_dag(r.subjects, threshold=args.threshold))
        for r in records
    ]
    embedder = HashedEmbedder(d=args.embedding_dim)
    dims = RouterDims(d_s=args.subject_dim, d_q=embedder.d, h=args.hidden_dim, L=args.layers)
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed)
    result = train_router(dataset, embedder, cfg, dims=dims)
    save_checkpoint(result.params, args.out)
    print(
        f"trained on {len(dataset)} graphs for {args.epochs} epochs: "
        f"loss {result.loss_curve[0]:.4f} -> {result.loss_curve[-1]:.4f}"
    )
    return 0


def _cmd_profile(args) -> int:
    records = _split_records(read_records(args.data), args.split)
    pool = load_pool(args.pool)
    client = build_client(load_backend_configs(args.backends))
    store = run_profiling(pool, records, client, seed=args.seed)
    save_profiles(store, args.out)
    print(
        f"profiled {len(store.profiles)} models on {len(records)} questions "
        f"({store.provenance['calls']} calls)"
    )
    return 0


def _cmd_run(args) -> int:
    text = args.question
    if args.option:
        if len(args.option) > len(OPTION_LABELS):
            raise UsageError(f"at most {len(OPTION_LABELS)} options are supported")
        lines = [f"{OPTION_LABELS[i]}. {opt}" for i, opt in enumerate(args.option)]
        text = text + "\n" + "\n".join(lines)
    params = load_checkpoint(args.checkpoint)
    embedder = _embedder_for(params)
    store = load_profiles(args.profiles)
    pool = load_pool(args.pool)
    store.ensure_covers(pool)
    pool_backends = {e.model_id: e.backend for e in pool}
    client = build_client(load_backend_configs(args.backends))
    # Reject a pool typo before any work, not only on the models this
    # question happens to route to.
    check_pool_backends(pool, client.backends)
    generation = GenerationConfig(
        node_threshold=args.node_threshold, edge_threshold=args.edge_threshold
    )
    g = generate_sdag(args.question, params, embedder, generation, edges=args.mode != "fcg")
    selection = selection_map(g.subjects(), store)
    if args.mode == "fcg":
        trace = execute_fcg(g.nodes, text, selection, pool_backends, client)
    else:
        trace = execute_dag(g, text, selection, pool_backends, client)
    trace.write(args.trace)
    logger.info("trace written to %s", args.trace)
    print(trace.final_answer if trace.final_answer is not None else "(no answer extracted)")
    return 0


def _cmd_eval(args) -> int:
    records = _split_records(read_records(args.data), args.split)
    pool = load_pool(args.pool)
    client = build_client(load_backend_configs(args.backends))
    params = embedder = store = None
    if args.checkpoint:
        params = load_checkpoint(args.checkpoint)
        embedder = _embedder_for(params)
    if args.profiles:
        store = load_profiles(args.profiles)
        store.ensure_covers(pool)
    if args.mode == "sdag" and params is None:
        raise UsageError("--mode sdag requires --checkpoint")
    if args.mode in ("sdag", "no_gnn", "fcg") and store is None:
        raise UsageError(f"--mode {args.mode} requires --profiles")
    cfg = EvalConfig(
        mode=args.mode,
        seeds=args.seeds,
        parallelism=args.parallelism,
        single_cot_model=args.single_cot_model,
        generation=GenerationConfig(
            node_threshold=args.node_threshold, edge_threshold=args.edge_threshold
        ),
    )
    report = evaluate(records, client, pool, cfg, params=params, embedder=embedder, store=store)
    text = render_report(report, args.format)
    if args.out:
        with atomic_writer(args.out) as fh:
            fh.write(text if args.format == "json" else render_report(report, "json"))
        logger.info("report written to %s", args.out)
    print(text, end="")
    return 0


def _ranged(convert, accepts, what: str):
    """An argparse `type=` that rejects unparsable and out-of-range values, so
    a bad flag is a usage error before any file is read."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accepts(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_COUNT = _ranged(int, lambda v: v >= 1, "an integer >= 1")
_SIZE = _ranged(int, lambda v: v >= 0, "an integer >= 0")
_THRESHOLD = _ranged(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
_FRACTION = _ranged(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_POSITIVE = _ranged(float, lambda v: v > 0.0, "a number > 0")


def _add_backends_flag(sub) -> None:
    sub.add_argument("--backends", required=True, help="backend config JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdag",
        description="Subject-DAG routing: curate data, train the router, "
        "profile models, run questions, evaluate modes.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="annotate raw questions into a curated dataset")
    p.add_argument("--in", dest="inp", required=True, help="raw questions JSONL")
    p.add_argument("--out", required=True, help="curated dataset JSONL")
    _add_backends_flag(p)
    p.add_argument("--backend", default=CurationConfig.backend, help="annotation backend name")
    p.add_argument("--seed", type=int, default=CurationConfig.seed)
    p.add_argument("--profiling-size", type=_SIZE, default=CurationConfig.profiling_size)
    p.add_argument("--train-ratio", type=_FRACTION, default=CurationConfig.train_ratio)
    p.add_argument("--profiling-from-test", action="store_true")
    p.set_defaults(func=_cmd_curate)

    p = sub.add_parser("train", help="train the graph router on a curated split")
    p.add_argument("--data", required=True, help="curated dataset JSONL")
    p.add_argument("--out", required=True, help="checkpoint JSON")
    p.add_argument("--split", default="train")
    p.add_argument("--epochs", type=_COUNT, default=TrainConfig.epochs)
    p.add_argument("--lr", type=_POSITIVE, default=TrainConfig.lr)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--threshold", type=float, default=WEIGHT_THRESHOLD,
                   help="annotation weight cutoff")
    p.add_argument("--embedding-dim", type=_ranged(int, lambda v: v >= 2, "an integer >= 2"),
                   default=RouterDims.d_q)
    p.add_argument("--subject-dim", type=_COUNT, default=RouterDims.d_s)
    p.add_argument("--hidden-dim", type=_COUNT, default=RouterDims.h)
    p.add_argument("--layers", type=_COUNT, default=RouterDims.L)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("profile", help="score pool models on the profiling split")
    p.add_argument("--data", required=True, help="curated dataset JSONL")
    p.add_argument("--pool", required=True, help="model pool JSON")
    p.add_argument("--out", required=True, help="profile store JSON")
    _add_backends_flag(p)
    p.add_argument("--split", default="profiling")
    p.add_argument("--seed", type=int, default=PROFILE_SEED)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("run", help="answer one question through the pipeline")
    p.add_argument("--question", required=True)
    p.add_argument("--option", action="append", default=[], help="answer option (repeatable)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--pool", required=True)
    _add_backends_flag(p)
    p.add_argument("--mode", choices=["sdag", "fcg"], default="sdag")
    p.add_argument("--trace", default="trace.jsonl", help="trace JSONL path")
    p.add_argument("--node-threshold", type=_THRESHOLD, default=GenerationConfig.node_threshold)
    p.add_argument("--edge-threshold", type=_THRESHOLD, default=GenerationConfig.edge_threshold,
                   help="edge probability threshold for --mode sdag (fcg scores no edges)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="benchmark a mode over a dataset split")
    p.add_argument("--mode", choices=list(MODES), required=True)
    p.add_argument("--data", required=True, help="curated dataset JSONL")
    p.add_argument("--pool", required=True, help="model pool JSON")
    _add_backends_flag(p)
    p.add_argument("--checkpoint", help="router checkpoint JSON")
    p.add_argument("--profiles", help="profile store JSON")
    p.add_argument("--split", default="test")
    p.add_argument("--seeds", type=_COUNT, default=EvalConfig.seeds)
    p.add_argument("--parallelism", type=_COUNT, default=EvalConfig.parallelism,
                   help="questions run at once; the report does not depend on it")
    p.add_argument("--single-cot-model", help="pool model id for single_cot mode")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--node-threshold", type=_THRESHOLD, default=GenerationConfig.node_threshold)
    p.add_argument("--edge-threshold", type=_THRESHOLD, default=GenerationConfig.edge_threshold,
                   help="edge probability threshold for the routed DAGs of sdag and "
                   "random_model (fcg scores no edges)")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SdagError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
