"""One workload in one fresh process; started by run.py, never by hand.

    python3 dfabench/worker.py --workload NAME --seed N --phase PHASE [--seconds S] --out DIR

Phases:
  setup   import the workload's entry point, build its inputs, print when ready
  run     setup, then whole rounds of timed ops until --seconds of op time
  trace   setup, a warm-up round, one untraced round, then one traced round
          with layer replays
  imports time the import of dfanet.cli and of the dfanet.experiments part of it

Each phase prints one JSON object as its last line. Only the standard library
is imported at module level, so the setup phase measures the workload's own
imports.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

MODULES = {
    "verify-exhaustive": "verify_wl",
    "compile-roundtrip": "compile_wl",
    "train-protocols": "train_wl",
}
MIN_ROUNDS = 2  # so every run repeats each op at least once
SPAN_COST_SPANS = 2000
REPEATS = 5  # of each short timing below; the median is kept


def environment(seed: int) -> dict:
    """Library versions, BLAS library and thread count, CPU count and the seed."""
    import ctypes
    import glob
    import platform
    from importlib import metadata

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def load(name: str, seed: int, workdir: Path, tiny: bool = False):
    module = importlib.import_module(MODULES[name])
    return module.Workload(seed, workdir, module.TINY if tiny else module.FULL)


class Tally:
    """Ops attempted and failed, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, verdict: str | None) -> None:
        """Count one checked op: None is right, anything else failed; only "known-fault" is expected."""
        self.attempted += 1
        if verdict is not None:
            self.failed += 1
            if verdict != "known-fault":
                self.problems.append(verdict)


def attempt(workload, op, tally: Tally, tracer=None):
    """Run one op and check it; an exception counts as a failed op and a problem."""
    try:
        elapsed, outcome = workload.run_op(op, tracer)
    except Exception:
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append(traceback.format_exc(limit=3))
        return None
    try:
        verdict = workload.check(op, outcome)
    except Exception:
        verdict = traceback.format_exc(limit=3)
    tally.record(verdict)
    return elapsed


def run_rounds(workload, seconds: float) -> dict:
    """Whole rounds of the workload's ops until their summed time reaches ``seconds``."""
    tally, times, rounds = Tally(), [], []  # rounds: (work, seconds) of each round
    while len(rounds) < MIN_ROUNDS or sum(times) < seconds:
        work = elapsed_in_round = 0
        for op in workload.ops:
            elapsed = attempt(workload, op, tally)
            if elapsed is not None:
                times.append(elapsed)
                work += op.work
                elapsed_in_round += elapsed
        rounds.append((work, elapsed_in_round))
    final = getattr(workload, "final_checks", None)
    tally.problems.extend(final() if final else [])
    return {"op_seconds": times, "rounds": rounds, "attempted": tally.attempted,
            "failed": tally.failed, "problems": tally.problems}


def trace_round(workload, spans_path: Path | None = None) -> dict:
    """A warm-up round, one untraced round, then the same round traced with each op's parts replayed.

    ``op_path_spans`` counts the spans that sit on the op paths of the traced
    round (each op's root span and the spans inside its run), which the
    untraced round does not have; their cost is the tracing overhead.
    """
    from spans import Tracer

    tally = Tally()
    for op in workload.ops:  # first calls are slower; neither measured round should pay for them
        attempt(workload, op, tally)
    untraced = [attempt(workload, op, tally) for op in workload.ops]
    tracer = Tracer()
    traced, op_path_spans = [], 0
    for op in workload.ops:
        before = len(tracer.spans)
        with tracer.span(f"{workload.name}.op"):
            traced.append(attempt(workload, op, tally, tracer))
            op_path_spans += len(tracer.spans) - before
            with tracer.span("replay"):
                problem = workload.replay(op, tracer)
        if problem:
            tally.problems.append(problem)
    if spans_path is not None:
        tracer.dump(spans_path)
    return {"metrics": workload.trace_metrics(tracer), "untraced_s": sum(t or 0.0 for t in untraced),
            "traced_s": sum(t or 0.0 for t in traced), "op_path_spans": op_path_spans,
            "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems}


def span_cost_s() -> float:
    """Median cost in seconds of opening and closing one empty span."""
    from spans import Tracer

    costs = []
    for _ in range(REPEATS):
        tracer = Tracer()
        start = time.perf_counter()
        for _ in range(SPAN_COST_SPANS):
            with tracer.span("empty"):
                pass
        costs.append((time.perf_counter() - start) / SPAN_COST_SPANS)
    return statistics.median(costs)


def calibration_ms() -> dict:
    """Median times of a fixed pure-Python loop and a fixed numpy matmul.

    They tell apart runs made while the host was quiet and runs made while it
    was loaded, so that results from different host states are not compared.
    """
    import numpy

    a = numpy.arange(256 * 256, dtype=numpy.float64).reshape(256, 256) / 65536.0
    python, matmul = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        python.append(1000.0 * (time.perf_counter() - start))
        start = time.perf_counter()
        for _ in range(20):
            a @ a
        matmul.append(1000.0 * (time.perf_counter() - start))
    return {"python_loop": statistics.median(python), "matmul_256": statistics.median(matmul)}


def import_times() -> dict:
    """Seconds to import dfanet.cli, and the part of that spent importing dfanet.experiments."""
    start = time.perf_counter()
    import dfanet.compiler, dfanet.formats, dfanet.nn  # noqa: E401,F401  everything cli needs but experiments
    before = time.perf_counter()
    import dfanet.experiments  # noqa: F401
    after = time.perf_counter()
    import dfanet.cli  # noqa: F401
    return {"cli.import_s": time.perf_counter() - start, "cli.import_experiments_s": after - before}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--phase", choices=("setup", "run", "trace", "imports"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True, help="directory for work files and spans")
    args = parser.parse_args()
    if args.phase == "imports":
        print(json.dumps(import_times()))
        return 0
    out = Path(args.out)
    with tempfile.TemporaryDirectory(dir=out, prefix=f"work-{args.workload}-") as workdir:
        workload = load(args.workload, args.seed, Path(workdir))
        ready = time.monotonic()
        if args.phase == "setup":
            result = {"ready": ready}
        elif args.phase == "run":
            result = {"ready": ready, **run_rounds(workload, args.seconds)}
        else:
            result = trace_round(workload, out / f"spans-{args.workload}-seed{args.seed}.json")
            result["span_cost_s"] = span_cost_s()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = dict(environment(args.seed), calibration_ms=calibration_ms())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
