"""Benchmark of dfanet's three user paths: verify, train and compile.

    python3 dfabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dfanet checkout; the program is imported from ./src.
Every workload runs in fresh processes of worker.py, which call dfanet's
public API in-process. With ``--trace 0`` this prints the end-to-end metrics
of the named workload; with ``--trace 1`` it replays one round of every
workload with spans and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
Full results, spans and the environment go to dfabench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-exhaustive", "train-protocols", "compile-roundtrip")
SETUP_SAMPLES = 2  # set-up-only processes per run; the measuring process adds a third
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "network.forward_batch.ms": "ms",
    "network.layer_ms.relu": "ms",
    "network.layer_ms.identity": "ms",
    "network.layer_ms.step": "ms",
    "network.macs_per_string": "count",
    "network.nonzero_weights": "count",
    "compiler.verify_exact.ms": "ms",
    "compiler.verify_exact.self_ms": "ms",
    "compiler.mismatches": "count",
    "automata.accepts_batch.ms": "ms",
    "encodings.encode_strings.ms": "ms",
    "compiler.build_unrolled_acceptor.ms": "ms",
    "compiler.build_embedding_head.ms": "ms",
    "compiler.build_compressed_embedding.ms": "ms",
    "compiler.build_transition_layer.ms": "ms",
    "compiler.build_binary_threshold_network.ms": "ms",
    "compiler.net_params": "count",
    "formats.format_network_document.ms": "ms",
    "formats.format_network_document.mb_per_s": "MB/s",
    "formats.parse_network_document.ms": "ms",
    "formats.parse_network_document.mb_per_s": "MB/s",
    "formats.parse_dfa_document.ms": "ms",
    "formats.doc_bytes": "count",
    "cli.import_s": "s",
    "cli.import_experiments_s": "s",
    "cli.main.ms": "ms",
    "nn.UnrolledNet.trunk_batch.ms_per_position": "ms",
    "nn.UnrolledNet.loss_and_gradients.ms_per_position": "ms",
    "nn.TrainableMlp.loss_and_gradients.ms": "ms",
    "nn.adam_step.ms": "ms",
    "nn.adam_step.arrays": "count",
    "nn.train.ms_per_epoch": "ms",
    "experiments.run_theorem1.s": "s",
    "experiments.run_lemma1.s": "s",
    "experiments.run_lemma2.s": "s",
    "experiments.run_theorem2.s": "s",
    "experiments.run_corollary21.s": "s",
    "experiments.run_theorem3.s": "s",
    "experiments.run_corollary31.s": "s",
    "experiments.gen_dfa_dataset.ms": "ms",
    "experiments.gen_dfa_state_dataset.ms": "ms",
    "experiments.gen_anbn_dataset.ms": "ms",
    "experiments.split_dataset.ms": "ms",
    "trace.overhead_pct": "%",
}


class ChildError(RuntimeError):
    pass


def child(phase: str, workload: str | None, seed: int, seconds: float = 0.0) -> tuple[float, dict]:
    """Start worker.py in a fresh interpreter; return its start time and its JSON result."""
    argv = [sys.executable, str(HERE / "worker.py"), "--phase", phase, "--seed", str(seed),
            "--seconds", str(seconds), "--out", str(OUT)]
    if workload:
        argv += ["--workload", workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    started = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"worker {phase} {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def fill_bytecode_cache() -> None:
    """Compile dfanet and the benchmark first, so no sample depends on a cold cache.

    The installed libraries ship their bytecode already.
    """
    for directory in (ROOT / "src", HERE):
        compileall.compile_dir(directory, quiet=1)


def measure(workload: str, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES):
        started, result = child("setup", workload, seed)
        setups.append(result["ready"] - started)
    started, result = child("run", workload, seed, seconds)
    setups.append(result["ready"] - started)
    times = result["op_seconds"]
    metrics = {
        "setup_s": statistics.median(setups),
        # the median round, so that a burst of load on the machine moves it little
        "work_per_s": statistics.median(work / elapsed for work, elapsed in result["rounds"]),
        "op_ms_p50": 1000.0 * statistics.median(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {"env": result["env"], "setup_samples": setups, "op_seconds": times,
              "rounds": result["rounds"], "problems": result["problems"]}
    return {"metrics": metrics, "units": END_TO_END, "attempted": result["attempted"],
            "failed": result["failed"], "detail": detail}


def trace(seed: int) -> dict:
    samples = [child("imports", None, seed)[1] for _ in range(IMPORT_SAMPLES)]
    metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    attempted = failed = spans = 0
    untraced = traced = overhead = 0.0
    problems, env = [], None
    for workload in WORKLOADS:
        result = child("trace", workload, seed)[1]
        metrics.update(result["metrics"])
        attempted += result["attempted"]
        failed += result["failed"]
        untraced += result["untraced_s"]
        traced += result["traced_s"]
        spans += result["op_path_spans"]
        overhead += result["op_path_spans"] * result["span_cost_s"]
        problems += result["problems"]
        env = env or result["env"]
    # One traced round against one untraced round differs mostly by the host's
    # noise, so the overhead is the measured cost of the spans on the op paths.
    metrics["trace.overhead_pct"] = 100.0 * overhead / untraced
    detail = {"env": env, "untraced_s": untraced, "traced_s": traced, "op_path_spans": spans,
              "problems": problems}
    return {"metrics": metrics, "units": PER_LAYER, "attempted": attempted, "failed": failed,
            "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "dfanet" / "__init__.py").is_file():
        print(f"error: no dfanet sources under {ROOT / 'src'}; run from a dfanet checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    fill_bytecode_cache()
    try:
        outcome = trace(args.seed) if args.trace else measure(args.workload, args.seed, args.seconds)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units, detail = outcome["units"], outcome["detail"]
    missing = set(units) - set(outcome["metrics"])
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not detail["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, detail=detail)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("env: " + json.dumps(detail["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
