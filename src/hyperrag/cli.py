"""Command-line interface: one binary, one subcommand per pipeline stage.

Every subcommand emits line-delimited JSON records (one per epoch, query,
or phase) on stdout, duplicated into ``<subcommand>.jsonl`` under ``--out``
when given.  Errors exit nonzero with a structured ``{"category",
"message"}`` record on stderr; the exit code is the error category's code.

The ``--config`` file is a JSON object whose keys mirror the training
configuration fields (see README for the schema); ``--seed`` overrides the
configured seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .alignment import EmbeddingTable, item_tangent_rows
from .errors import (
    ConfigurationError,
    ContractViolation,
    DataFormatError,
    HyperRagError,
    config_values,
)
from .generation import (
    GenDataset,
    GenExample,
    TokenSequence,
    ToyGenerator,
    exact_match_rate,
    train_generation,
)
from .io import canonical_json_bytes, read_json, save_table
from .pipeline import (
    PipelineConfig,
    answer_query,
    evaluate,
    query_subgraph,
    run_training,
    train_phase1,
)
from .spectral import cheeger_check
from .synth import CorpusBundle, SynthSpec, load_bundle, synth_bundle, write_bundle

DEFAULT_BUNDLE_SEED = 42


class RecordWriter:
    """Writes JSON-line records to stdout and optionally to a file."""

    def __init__(self, out_dir: Path | None, name: str):
        self._lines: list[str] = []
        self._path = out_dir / f"{name}.jsonl" if out_dir else None

    def emit(self, record: dict, echo: bool = True) -> None:
        line = canonical_json_bytes(record).decode()
        if echo:
            sys.stdout.write(line)
        self._lines.append(line)

    def close(self) -> None:
        if self._path is not None:
            self._path.write_text("".join(self._lines))


def load_config(path: str | None, seed: int | None) -> PipelineConfig:
    """Build the training configuration from an optional JSON file plus an
    optional seed override; an unreadable file, unknown keys and mistyped values are rejected."""
    try:
        raw = read_json(path) if path else {}
    except DataFormatError as exc:
        raise ConfigurationError(str(exc)) from exc
    values = config_values(PipelineConfig, raw, path)
    unknown = sorted(set(raw) - set(values))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    config = PipelineConfig(**values)
    if seed is not None:
        config = replace(config, seed=seed)
    config.validate()
    return config


def _out_dir(out: str | None) -> Path | None:
    """The ``--out`` directory, made before the subcommand runs: a path
    that is a file, or lies under one, is a configuration error."""
    if not out:
        return None
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out {out} is not a directory: {exc.strerror}") from None
    return Path(out)


def _require_out(args) -> Path:
    if not args.out:
        raise ConfigurationError(f"{args.command} requires --out <dir>")
    return Path(args.out)


def _bundle_arg(args) -> CorpusBundle:
    if args.bundle:
        return load_bundle(args.bundle)
    return synth_bundle(SynthSpec(seed=DEFAULT_BUNDLE_SEED))


def _pick_query(bundle: CorpusBundle, qid: str | None):
    if qid is None:
        if not bundle.queries:
            raise ContractViolation("no query to pick; the bundle's queries list is empty")
        return bundle.queries[0]
    for query in bundle.queries:
        if query.id == qid:
            return query
    raise ConfigurationError(f"unknown query id {qid!r}")


def cmd_synth(args, config: PipelineConfig, writer: RecordWriter) -> int:
    out = _require_out(args)
    spec = SynthSpec(
        num_queries=args.queries,
        num_items=args.items,
        num_clusters=args.clusters,
        graph_size=args.graph_size,
        noise_frac=args.noise_frac,
        seed=args.seed if args.seed is not None else 0,
        answer_len=args.answer_len,
    )
    bundle = synth_bundle(spec)
    write_bundle(bundle, out)
    writer.emit(bundle.meta())
    return 0


def cmd_crm(args, config: PipelineConfig, writer: RecordWriter) -> int:
    _, _, theta, trace = train_phase1(config, _bundle_arg(args))
    for epoch, loss in enumerate(trace.epoch_losses, start=1):
        writer.emit({"epoch": epoch, "crm_loss": loss})
    writer.emit({"theta": theta, "theta_accuracy": trace.theta_accuracy})
    return 0


def cmd_refine(args, config: PipelineConfig, writer: RecordWriter) -> int:
    bundle = _bundle_arg(args)
    query = _pick_query(bundle, args.query)
    sub = query_subgraph(config, bundle.graph, query)
    inside, (u, v, _) = sub.indicator > 0, bundle.graph.edge_arrays()
    writer.emit(
        {
            "query": query.id,
            "selected": list(sub.selected),
            "objective": sub.objective,
            "relevance_mass": sub.relevance_mass,
            "eta": sub.eta,
            "fallback_used": sub.fallback_used,
            "induced_edges": int(np.sum(inside[u] & inside[v])),
        }
    )
    return 0


def cmd_cheeger(args, config: PipelineConfig, writer: RecordWriter) -> int:
    bundle = _bundle_arg(args)
    report = cheeger_check(bundle.graph, seed=config.seed)
    writer.emit(asdict(report))
    return 0


def cmd_gen(args, config: PipelineConfig, writer: RecordWriter) -> int:
    bundle = _bundle_arg(args)
    table = EmbeddingTable.for_corpus(
        bundle.queries, bundle.items, config.dim, config.seed, graph=bundle.graph
    )
    by_id = bundle.item_by_id()
    vocab = bundle.token_embeddings.shape[0]
    examples = []
    for query in bundle.queries:
        evidence = item_tangent_rows(
            table, [by_id[iid] for iid in bundle.positives.get(query.id, [])[:4]]
        )
        examples.append(
            GenExample(query, evidence, TokenSequence(tuple(bundle.qa[query.id]), vocab))
        )
    dataset = GenDataset(tuple(examples), table, bundle.token_embeddings)
    gen = ToyGenerator(vocab, 2 * config.dim)
    gen, trace = train_generation(gen, dataset, config)
    for epoch in range(len(trace.blended)):
        writer.emit(
            {
                "epoch": epoch + 1,
                "local": trace.local[epoch],
                "global_w2": trace.global_w2[epoch],
                "blended": trace.blended[epoch],
                "dropout_p": trace.dropout_probs[epoch],
            }
        )
    writer.emit({"exact_match": exact_match_rate(gen, dataset)})
    return 0


def cmd_train_all(args, config: PipelineConfig, writer: RecordWriter) -> int:
    bundle = _bundle_arg(args)
    components, reports = run_training(config, bundle)
    for report in reports:
        writer.emit(report.to_record())
    if args.out:
        save_table(_require_out(args) / "table.npz", components.table)
    return 0


def cmd_answer(args, config: PipelineConfig, writer: RecordWriter) -> int:
    bundle = _bundle_arg(args)
    query = _pick_query(bundle, args.query)
    components, _ = run_training(config, bundle)
    result = answer_query(components, query)
    writer.emit(
        {
            "query": query.id,
            "sigma": result.sigma,
            "delta": result.delta,
            "tokens": list(result.tokens.tokens),
            "retrieved": list(result.retrieved_ids),
            "used": list(result.used_ids),
            "subgraph": list(result.subgraph.selected) if result.subgraph else None,
            "timings": result.timings,
        }
    )
    return 0


def cmd_eval(args, config: PipelineConfig, writer: RecordWriter) -> int:
    bundle = _bundle_arg(args)
    components, _ = run_training(config, bundle)
    if args.no_crm:
        components = components.with_crm(False)
    report = evaluate(components, bundle)
    writer.emit({"crm_enabled": not args.no_crm, **report.to_record()})
    return 0


def cmd_bench(args, config: PipelineConfig, writer: RecordWriter) -> int:
    t0 = time.perf_counter()
    bundle = _bundle_arg(args)
    writer.emit({"phase": "bundle", "seconds": time.perf_counter() - t0})

    t0 = time.perf_counter()
    components, reports = run_training(config, bundle)
    writer.emit(
        {
            "phase": "train",
            "seconds": time.perf_counter() - t0,
            "epochs": len(reports),
            "final_l_total": reports[-1].l_total,
        }
    )

    sample = bundle.queries[: min(len(bundle.queries), 32)]
    retrieve_s: list[float] = []
    stage_s: dict[str, list[float]] = {}
    t0 = time.perf_counter()
    for query in sample:
        t1 = time.perf_counter()
        result = answer_query(components, query)
        if result.delta == 1:
            retrieve_s.append(time.perf_counter() - t1)
        for stage, seconds in result.timings.items():
            stage_s.setdefault(stage, []).append(seconds)
    elapsed = time.perf_counter() - t0
    p50, p90 = np.percentile(retrieve_s, [50, 90]).tolist() if retrieve_s else (None, None)
    writer.emit(
        {
            "phase": "answer",
            "seconds": elapsed,
            "queries": len(sample),
            "mean_latency_s": elapsed / len(sample),
            "retrieve_path_answers": len(retrieve_s),
            "retrieve_path_p50_s": p50,
            "retrieve_path_p90_s": p90,
            # Each stage's mean over the answers that ran it.
            "stage_mean_s": {stage: float(np.mean(v)) for stage, v in stage_s.items()},
        }
    )

    t0 = time.perf_counter()
    report = evaluate(components, bundle)
    writer.emit(
        {"phase": "eval", "seconds": time.perf_counter() - t0, **report.to_record()}
    )
    return 0


def cmd_conformance(args, config: PipelineConfig, writer: RecordWriter) -> int:
    # The table goes to stdout; the JSONL duplicate only to --out.
    from .conformance import run_all

    results = run_all(
        seed=args.seed if args.seed is not None else 0, case_filter=args.filter
    )
    if not results:
        raise ConfigurationError(f"filter {args.filter!r} matches no oracle cases")
    width = max(len(res.case) for res in results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status}  {res.case:<{width}}  oracle={res.oracle:.9g}  "
            f"implementation={res.implementation:.9g}  tolerance={res.tolerance:g}"
        )
        writer.emit(res.to_record(), echo=False)
    failed = sum(not res.passed for res in results)
    print(f"{len(results) - failed}/{len(results)} oracle cases passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file mirroring the training configuration")
    shared.add_argument("--seed", type=int, help="override the configured seed")
    shared.add_argument("--out", help="directory for record files and artifacts")

    bundled = argparse.ArgumentParser(add_help=False)
    bundled.add_argument("--bundle", help="corpus bundle directory (default: built-in synthetic bundle)")

    parser = argparse.ArgumentParser(
        prog="hyperrag",
        description="Threshold-gated retrieval-augmented answering over hyperbolic embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[shared], help="generate a synthetic corpus bundle")
    p.add_argument("--queries", type=int, default=SynthSpec.num_queries)
    p.add_argument("--items", type=int, default=SynthSpec.num_items)
    p.add_argument("--clusters", type=int, default=SynthSpec.num_clusters)
    p.add_argument("--graph-size", type=int, default=SynthSpec.graph_size)
    p.add_argument("--noise-frac", type=float, default=SynthSpec.noise_frac)
    p.add_argument("--answer-len", type=int, default=SynthSpec.answer_len)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("crm", parents=[shared, bundled], help="train the relevance head and gate threshold")
    p.set_defaults(func=cmd_crm)

    p = sub.add_parser("refine", parents=[shared, bundled], help="refine the knowledge subgraph for one query")
    p.add_argument("--query", help="query id (default: first query)")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("cheeger", parents=[shared, bundled], help="check the sweep-cut conductance bound")
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("gen", parents=[shared, bundled], help="train the toy generator alone")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-all", parents=[shared, bundled], help="run two-phase end-to-end training")
    p.set_defaults(func=cmd_train_all)

    p = sub.add_parser("answer", parents=[shared, bundled], help="train, then answer one query")
    p.add_argument("--query", help="query id (default: first query)")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("eval", parents=[shared, bundled], help="train, then evaluate on the bundle")
    p.add_argument("--no-crm", action="store_true", help="disable gating and relevance filtering")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", parents=[shared, bundled], help="time each pipeline phase")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("conformance", parents=[shared], help="run the brute-force oracle suite")
    p.add_argument("action", choices=["run"])
    p.add_argument("--filter", help="substring filter on oracle case names")
    p.set_defaults(func=cmd_conformance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.seed)
        writer = RecordWriter(_out_dir(args.out), args.command.replace("-", "_"))
        code = args.func(args, config, writer)
        writer.close()
        return code
    except HyperRagError as exc:
        sys.stderr.write(
            canonical_json_bytes({"category": exc.category, "message": str(exc)}).decode()
        )
        return exc.exit_code
