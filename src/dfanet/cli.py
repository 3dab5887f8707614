"""Command-line interface: compile, verify, experiment, export-dot.

Exit codes: 0 on success (verification exact, experiment bands met), 1 when a
verification finds mismatches or a banded experiment fails its band, 2 for
usage and parse errors, for files that cannot be written and for sizes too
large to allocate. Every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .compiler import (
    DEFAULT_ENUMERATION_BUDGET,
    ProjectionError,
    build_binary_threshold_network,
    build_compressed_embedding,
    build_embedding_head,
    build_transition_layer,
    build_unrolled_acceptor,
    dfa_fingerprint,
    verify_exact,
    verify_sampled,
)
from .formats import (
    DocumentError,
    export_dot,
    format_network_document,
    parse_dfa_document,
    parse_network_document,
)

if TYPE_CHECKING:
    from .experiments import ExperimentReport

USAGE_ERROR = 2
MISMATCH_ERROR = 1

COMPILE_TARGETS = ("unrolled", "transition", "binary", "embedding", "compressed")
# protocol -> runner in dfanet.experiments; only the experiment command imports it, so the
# other commands start without its process-pool modules (concurrent.futures, multiprocessing)
EXPERIMENTS = dict(
    thm1="run_theorem1", lemma1="run_lemma1", lemma2="run_lemma2", thm2="run_theorem2",
    cor21="run_corollary21", thm3="run_theorem3", cor31="run_corollary31",
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}", 1) from None


def cmd_compile(args: argparse.Namespace) -> int:
    doc = parse_dfa_document(_read(args.dfa))
    dfa = doc.dfa
    if args.target in ("unrolled", "embedding", "compressed") and args.length is None:
        print("error: --length is required for this target", file=sys.stderr)
        return USAGE_ERROR
    if args.target == "unrolled":
        net = build_unrolled_acceptor(dfa, args.length)
    elif args.target == "transition":
        net = build_transition_layer(dfa)
    elif args.target == "binary":
        net = build_binary_threshold_network(dfa)
    elif args.target == "embedding":
        net = build_embedding_head(dfa, args.length)
    else:
        projection, achieved = build_compressed_embedding(
            dfa, epsilon=args.epsilon, seed=args.seed
        )
        net = build_embedding_head(dfa, args.length, head=projection)
        meta = dict(net.metadata)
        meta.update(
            construction="compressed-embedding",
            epsilon=args.epsilon,
            seed=args.seed,
            achieved_min_distance=achieved,
        )
        net = dataclasses.replace(net, metadata=meta)
        print(f"projection separation: {achieved!r} (epsilon {args.epsilon})")

    out_path = Path(args.out) if args.out else Path(args.dfa).with_suffix(f".{args.target}.net")
    out_path.write_text(format_network_document(net))

    widths = [net.input_dim] + [layer.output_dim for layer in net.layers]
    depth = net.metadata.get("depth", len(net.layers))
    print(f"wrote {out_path}")
    print(f"construction: {net.metadata.get('construction')}")
    print(f"depth: {depth} (affine stages: {len(net.layers)})")
    print(f"widths: {' -> '.join(map(str, widths))}")
    print(f"parameters: {net.parameter_count}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    net = parse_network_document(_read(args.network))
    doc = parse_dfa_document(_read(args.dfa))
    recorded, fingerprint = net.metadata.get("dfa_sha256"), dfa_fingerprint(doc.dfa)
    if recorded is not None and str(recorded) != fingerprint:
        print(f"warning: {args.network} was compiled from another automaton "
              f"(meta dfa_sha256 {recorded}, {args.dfa} has {fingerprint})", file=sys.stderr)
    if args.sampled is not None:
        report = verify_sampled(net, doc.dfa, args.length, count=args.sampled, seed=args.seed)
        mode = "sampled"
    else:
        report = verify_exact(net, doc.dfa, args.length, budget=args.budget)
        mode = "exhaustive"
    matched = report.total_strings - report.mismatch_count
    print(f"{matched}/{report.total_strings} {mode} checks match")
    if report.exact:
        print("exact" if mode == "exhaustive" else "no mismatch found")
        return 0
    witness, expected, got = report.witness
    rendered = "".join(doc.symbol_names[s] for s in witness) if witness else "(empty string)"
    print(f"first witness: {rendered!r} automaton={expected} network={got}")
    return MISMATCH_ERROR


def _config_label(report: ExperimentReport) -> str:
    parts = []
    for key in ("T", "n", "k", "d"):
        if key in report.config:
            parts.append(f"{key}={report.config[key]}")
    return ",".join(parts) if parts else "default"


def _write_csv(reports: list[ExperimentReport], path: Path) -> None:
    rows = []
    for report in reports:
        label = _config_label(report)
        for metric, values in sorted(report.metrics.items()):
            for seed, value in zip(report.seeds, values):
                rows.append((label, seed, metric, repr(float(value))))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["config", "seed", "metric", "value"])
        writer.writerows(rows)


def _primary_metric(report: ExperimentReport) -> str:
    return "held_out_accuracy" if "held_out_accuracy" in report.metrics else "accuracy"


def _render_table(reports: list[ExperimentReport]) -> str:
    lines = [f"{'config':<14} {'mean':>8} {'std':>8} {'ci95':>8}"]
    for report in reports:
        metric = _primary_metric(report)
        stats = report.summary[metric]
        lines.append(
            f"{_config_label(report):<14} {stats.mean:8.4f} {stats.std:8.4f} {stats.ci95:8.4f}"
        )
    return "\n".join(lines)


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.seeds < 2:
        print("error: --seeds must be at least 2 for summary statistics", file=sys.stderr)
        return USAGE_ERROR
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)  # before the sweep, so a bad --out fails at once
    from . import experiments

    runner = getattr(experiments, EXPERIMENTS[args.name])
    result = runner(seeds=tuple(range(args.seeds)), jobs=args.jobs, progress=args.progress)
    reports = result if isinstance(result, list) else [result]

    csv_path = out_dir / f"{args.name}.csv"
    _write_csv(reports, csv_path)

    print(_render_table(reports))
    print(f"wrote {csv_path}")

    exit_code = 0
    for report in reports:
        for key in ("constructive_accuracy", "verdict", "held_out_mean"):
            if key in report.extras:
                print(f"{_config_label(report)} {key}: {report.extras[key]}")
    if args.name == "thm3":
        mean = reports[0].summary["held_out_accuracy"].mean
        lo, hi = experiments.CHANCE_BAND
        in_band = lo <= mean <= hi
        print(f"chance band [{lo}, {hi}]: {'PASS' if in_band else 'FAIL'} (mean {mean:.4f})")
        exit_code = 0 if in_band else MISMATCH_ERROR
    if args.name == "cor31":
        verdict = reports[0].extras["verdict"]
        print(f"composite verdict: {verdict}")
        exit_code = 0 if verdict == "PASS" else MISMATCH_ERROR
    return exit_code


def cmd_export_dot(args: argparse.Namespace) -> int:
    doc = parse_dfa_document(_read(args.dfa))
    rendered = export_dot(doc)
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}")
    else:
        print(rendered, end="")
    return 0


@functools.cache  # built by the first main call, then reused; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfanet",
        description="Compile finite automata into exact feedforward networks, "
        "verify the compiled weights exhaustively, and run the training "
        "experiment suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile an automaton file into a network file")
    p_compile.add_argument("dfa", help="automaton file")
    p_compile.add_argument("--target", choices=COMPILE_TARGETS, required=True)
    p_compile.add_argument("--length", type=int, default=None, help="input length T")
    p_compile.add_argument("--seed", type=int, default=0, help="seed for sampled projections")
    p_compile.add_argument("--epsilon", type=float, default=0.1, help="separation for compressed embeddings")
    p_compile.add_argument("--out", "-o", default=None, help="output network file")
    p_compile.set_defaults(func=cmd_compile)

    p_verify = sub.add_parser("verify", help="check a network file against an automaton file")
    p_verify.add_argument("network", help="network file")
    p_verify.add_argument("dfa", help="automaton file")
    p_verify.add_argument("--length", type=int, required=True, help="input length T")
    p_verify.add_argument("--sampled", type=int, default=None, help="sample count instead of exhaustion")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET,
                          help="maximum strings to enumerate; a network that the layer walk "
                          "decides is not enumerated, so this does not limit it")
    p_verify.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("experiment", help="run one experiment protocol")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.add_argument("--seeds", type=int, default=5, help="number of seeds (0..N-1)")
    p_exp.add_argument("--out", default=None, help="output directory for CSV")
    p_exp.add_argument("--jobs", type=int, default=1, help="parallel seed workers")
    p_exp.add_argument("--progress", action="store_true", help="emit per-epoch loss lines")
    p_exp.set_defaults(func=cmd_experiment)

    p_dot = sub.add_parser("export-dot", help="render an automaton as graph description text")
    p_dot.add_argument("dfa", help="automaton file")
    p_dot.add_argument("--out", "-o", default=None)
    p_dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProjectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISMATCH_ERROR
    # ValueError also covers DocumentError and EnumerationBudgetError; MemoryError is a size too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
