"""train-protocols: every ``experiments.run_*`` protocol over its default grid.

One op is one pass over the seven protocols, each with two seeds drawn from
the workload seed, fewer epochs and samples than the paper's runs, and
``jobs=1``. The time goes to many small matmuls in ``nn`` (unrolled forward
and backward, Adam over 4T+2 arrays) and to dataset generation.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dfanet import experiments
from dfanet.nn import AdamState, TrainableMlp, TrainConfig, UnrolledNet, adam_step, train

import oracles
from convert import to_dfa
from spans import maybe_span

NAME = "train-protocols"
PROBE_REPEATS = 5
GRADIENT_TOLERANCE = 1e-6
DIFFERENCE_STEP = 1e-6

# protocol label, runner, the reduced arguments it takes
PROTOCOLS = (
    ("thm1", "run_theorem1", ("sample_count", "epochs")),
    ("lemma1", "run_lemma1", ("epochs",)),
    ("lemma2", "run_lemma2", ("epochs",)),
    ("thm2", "run_theorem2", ("sample_count", "epochs")),
    ("cor21", "run_corollary21", ("sample_count", "epochs")),
    ("thm3", "run_theorem3", ("sample_count", "epochs")),
    ("cor31", "run_corollary31", ()),
)


@dataclass(frozen=True)
class Sizes:
    epochs: int = 20
    samples: int = 200
    grids: dict = field(default_factory=dict)  # per-protocol grid overrides; the full run keeps the defaults


FULL = Sizes()
TINY = Sizes(epochs=2, samples=20, grids={
    "thm1": {"T_values": (1, 2)}, "lemma1": {"n_values": (1, 2), "k_values": (1, 2)},
    "lemma2": {"n_values": (2, 4)}, "thm2": {"T_values": (1, 2)},
    "cor21": {"n_values": (2, 4), "length": 3}, "cor31": {"max_exact_length": 3, "counter_sizes": (2,)},
})


@dataclass
class Op:
    calls: list  # (label, runner, kwargs)
    work: int


def _arguments(runner, kwargs: dict) -> dict:
    """The runner's keyword arguments with its defaults filled in."""
    bound = inspect.signature(runner).bind_partial(**kwargs)
    bound.apply_defaults()
    return bound.arguments


def sample_epochs(label: str, args: dict) -> int:
    """Dataset size times epochs over every model the protocol trains, from its arguments."""
    seeds = len(args["seeds"])
    if label in ("thm1", "thm2"):
        return seeds * len(tuple(args["T_values"])) * args["sample_count"] * args["epochs"]
    if label == "lemma1":
        return seeds * sum(n * k for n in args["n_values"] for k in args["k_values"]) * args["epochs"]
    if label == "lemma2":
        return seeds * sum(2 * n for n in args["n_values"]) * args["epochs"]
    if label == "cor21":
        return seeds * len(tuple(args["n_values"])) * args["sample_count"] * args["epochs"]
    if label == "thm3":
        return seeds * args["sample_count"] * args["epochs"]
    negative = _arguments(experiments.run_theorem3, {"seeds": args["seeds"]})  # cor31 runs thm3 at defaults
    return seeds * negative["sample_count"] * negative["epochs"]


def _snapshot(reports) -> str:
    """Exact text of every per-seed metric: equal snapshots mean bit-identical values."""
    reports = reports if isinstance(reports, list) else [reports]
    return repr([(repr(r.config), r.seeds, {k: [repr(v) for v in vs] for k, vs in sorted(r.metrics.items())})
                 for r in reports])


def _held_out_mean(report) -> float:
    values = report.metrics["held_out_accuracy"]
    return math.fsum(values) / len(values)


class Workload:
    name = NAME

    def __init__(self, seed: int, workdir: Path, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        seeds = (seed, seed + 1)
        reduced = {"sample_count": sizes.samples, "epochs": sizes.epochs}
        calls, work = [], 0
        for label, runner_name, takes in PROTOCOLS:
            runner = getattr(experiments, runner_name)
            kwargs = {"seeds": seeds, "jobs": 1, **{k: reduced[k] for k in takes}, **sizes.grids.get(label, {})}
            calls.append((label, runner, kwargs))
            work += sample_epochs(label, _arguments(runner, kwargs))
            if label == "thm1":
                self.probe_length = max(_arguments(runner, kwargs)["T_values"])  # its largest model
        self.ops = [Op(calls, work)]
        self.first: dict | None = None

    def run_op(self, op: Op, tracer=None):
        reports = {}
        start = perf_counter()
        for label, runner, kwargs in op.calls:
            with maybe_span(tracer, f"experiments.{runner.__name__}"):
                reports[label] = runner(**kwargs)
        return perf_counter() - start, reports

    def check(self, op: Op, reports) -> str | None:
        for report in reports["thm1"]:
            if report.extras.get("constructive_accuracy") != 1.0 or report.extras.get("constructive_exact") is not True:
                return f"thm1 {report.config}: compiled acceptor not exact"
        for label in ("lemma1", "lemma2"):
            for report in reports[label]:
                if report.extras.get("constructive_accuracy") != 1.0:
                    return f"{label} {report.config}: compiled counterpart not exact"
        composite = reports["cor31"]
        if composite.extras.get("exactness_pass") is not True or composite.extras.get("mismatches") != 0:
            return "cor31: compiled acceptors not exact"
        low, high = experiments.CHANCE_BAND
        for label, mean in (("thm3", _held_out_mean(reports["thm3"])), ("cor31", _held_out_mean(composite))):
            if not low <= mean <= high:
                return f"{label}: held-out mean {mean} outside the chance band {experiments.CHANCE_BAND}"
        snapshot = {label: _snapshot(r) for label, r in reports.items()}
        if self.first is None:
            self.first = snapshot
        changed = [label for label in snapshot if snapshot[label] != self.first[label]]
        return f"repeated runs changed metrics of {changed}" if changed else None

    def final_checks(self) -> list[str]:
        """Dataset labels against the plain fold, gradients against central differences."""
        problems = []
        rng = random.Random(self.seed)
        rows = [[rng.randrange(5) for _ in range(3)] for _ in range(5)]
        automata = [oracles.PARITY, oracles.Automaton.from_rows(rows, 0, {0, 2})]
        for a in automata:
            dfa = to_dfa(a)
            data = experiments.gen_dfa_dataset(dfa, 7, 64, seed=(self.seed, 1))
            states = experiments.gen_dfa_state_dataset(dfa, 7, 64, seed=(self.seed, 2))
            for inputs, labels, want in ((data.inputs, data.labels, "accept"), (states.inputs, states.labels, "state")):
                for vector, label in zip(inputs.tolist(), labels.tolist()):
                    string = oracles.decode_blocks(vector, a.symbols)
                    if string is None:
                        problems.append(f"gen_dfa_{want}: input is not one-hot blocks")
                        break
                    final = oracles.plain_fold(a, string)
                    expected = [float(final in a.accepting)] if want == "accept" else oracles.one_hot_blocks([final], a.states)
                    if label != expected:
                        problems.append(f"gen_dfa_{want}: label {label} for {string}, expected {expected}")
                        break
            for generator, code in ((experiments.gen_transition_dataset, None),
                                    (experiments.gen_binary_transition_dataset, oracles.state_bits(a.states))):
                pairs = generator(dfa)
                for vector, label in zip(pairs.inputs.tolist(), pairs.labels.tolist()):
                    width = a.states if code is None else code
                    state_part, symbol = vector[:width], vector[width:].index(1.0)
                    state = state_part.index(1.0) if code is None else sum(int(b) << i for i, b in enumerate(state_part))
                    target = a.delta[(state, symbol)]
                    expected = oracles.one_hot_blocks([target], a.states) if code is None else oracles.binary_code(target, code)
                    if label != expected:
                        problems.append(f"{generator.__name__}: wrong label for ({state}, {symbol})")
                        break
            split_train, split_eval = experiments.split_dataset(data, 0.8, seed=(self.seed, 3))
            joined = sorted(map(tuple, split_train.inputs.tolist() + split_eval.inputs.tolist()))
            if joined != sorted(map(tuple, data.inputs.tolist())):
                problems.append("split_dataset: parts do not partition the dataset")
        anbn = experiments.gen_anbn_dataset((1, 5), 64, max_len=12, seed=(self.seed, 4))
        for vector, label in zip(anbn.inputs.tolist(), anbn.labels.tolist()):
            string = oracles.decode_blocks(vector, 3)
            if string is None or label != [float(oracles.is_anbn(string, experiments.PAD_SYMBOL))]:
                problems.append(f"gen_anbn_dataset: label {label} for {string}")
                break
        problems.extend(gradient_problems())
        return problems

    def replay(self, op: Op, tracer) -> str | None:
        """Dataset generators and the nn calls of the largest thm1 config, each in a span."""
        length = self.probe_length
        samples, epochs = self.sizes.samples, self.sizes.epochs
        dfa = to_dfa(oracles.PARITY)
        for _ in range(PROBE_REPEATS):
            with tracer.span("experiments.gen_dfa_dataset"):
                data = experiments.gen_dfa_dataset(dfa, length, samples, seed=(self.seed, 1))
            with tracer.span("experiments.gen_dfa_state_dataset"):
                experiments.gen_dfa_state_dataset(dfa, length, samples, seed=(self.seed, 2))
            with tracer.span("experiments.gen_anbn_dataset"):
                anbn = experiments.gen_anbn_dataset((1, 5), samples, seed=(self.seed, 3))
            with tracer.span("experiments.split_dataset"):
                part, _ = experiments.split_dataset(data, 0.8, seed=(self.seed, 4))
        model = UnrolledNet(state_dim=experiments.DEFAULT_STATE_WIDTH, alphabet_size=2, length=length,
                            start_state=0, head_dims=[1], head_activations=["sigmoid"], seed=(self.seed, 5),
                            hidden_width=experiments.DEFAULT_HIDDEN_WIDTH)
        mlp = TrainableMlp([anbn.inputs.shape[1], experiments.DEFAULT_HIDDEN_WIDTH, 1], ["relu", "sigmoid"],
                           seed=(self.seed, 6))
        adam = AdamState.for_parameters(model.parameters, TrainConfig())
        for _ in range(PROBE_REPEATS):
            with tracer.span("nn.UnrolledNet.trunk_batch"):
                model.trunk_batch(part.inputs)
            with tracer.span("nn.UnrolledNet.loss_and_gradients"):
                _, grads = model.loss_and_gradients(part.inputs, part.labels, "bce")
            with tracer.span("nn.adam_step"):
                adam_step(model.parameters, grads, adam)
            with tracer.span("nn.TrainableMlp.loss_and_gradients"):
                mlp.loss_and_gradients(anbn.inputs, anbn.labels, "bce")
        with tracer.span("nn.train"):
            train(model, part.inputs, part.labels, TrainConfig(epochs=epochs, loss="bce"))
        self.adam_arrays = len(model.parameters)
        return None

    def trace_metrics(self, tracer) -> dict:
        metrics = {
            f"experiments.{runner}.s": tracer.mean_ms(f"experiments.{runner}") / 1000.0
            for _, runner, _ in PROTOCOLS
        }
        metrics.update({
            f"experiments.{name}.ms": tracer.mean_ms(f"experiments.{name}")
            for name in ("gen_dfa_dataset", "gen_dfa_state_dataset", "gen_anbn_dataset", "split_dataset")
        })
        metrics.update({
            "nn.UnrolledNet.trunk_batch.ms_per_position":
                tracer.mean_ms("nn.UnrolledNet.trunk_batch") / self.probe_length,
            "nn.UnrolledNet.loss_and_gradients.ms_per_position":
                tracer.mean_ms("nn.UnrolledNet.loss_and_gradients") / self.probe_length,
            "nn.TrainableMlp.loss_and_gradients.ms": tracer.mean_ms("nn.TrainableMlp.loss_and_gradients"),
            "nn.adam_step.ms": tracer.mean_ms("nn.adam_step"),
            "nn.adam_step.arrays": self.adam_arrays,
            "nn.train.ms_per_epoch": tracer.mean_ms("nn.train") / self.sizes.epochs,
        })
        return metrics


def central_difference_error(model, inputs, targets, loss: str) -> float:
    """Largest gap between reverse-mode gradients and central differences, relative to scale."""
    _, grads = model.loss_and_gradients(inputs, targets, loss)
    worst = 0.0
    for param, grad in zip(model.parameters, grads):
        flat, gflat = param.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + DIFFERENCE_STEP
            up, _ = model.loss_and_gradients(inputs, targets, loss)
            flat[i] = saved - DIFFERENCE_STEP
            down, _ = model.loss_and_gradients(inputs, targets, loss)
            flat[i] = saved
            numeric = (up - down) / (2 * DIFFERENCE_STEP)
            worst = max(worst, abs(numeric - gflat[i]) / max(1.0, abs(numeric), abs(gflat[i])))
    return worst


def gradient_problems() -> list[str]:
    """Central-difference checks on small models with fixed seeds (the same every run)."""
    rng = np.random.default_rng(0)
    strings = rng.integers(0, 2, size=(6, 3))
    inputs = np.eye(2)[strings].reshape(6, 6)
    cases = [
        ("UnrolledNet bce", UnrolledNet(3, 2, 3, 0, [1], ["sigmoid"], seed=1, hidden_width=4),
         inputs, rng.integers(0, 2, size=(6, 1)).astype(float), "bce"),
        ("UnrolledNet softmax_ce", UnrolledNet(3, 2, 3, 0, [2, 3], ["identity", "identity"], seed=2, hidden_width=4),
         inputs, np.eye(3)[rng.integers(0, 3, size=6)], "softmax_ce"),
        ("TrainableMlp mse", TrainableMlp([6, 5, 2], ["relu", "identity"], seed=3),
         inputs, rng.standard_normal((6, 2)), "mse"),
        ("TrainableMlp bce", TrainableMlp([6, 5, 1], ["relu", "sigmoid"], seed=4),
         inputs, rng.integers(0, 2, size=(6, 1)).astype(float), "bce"),
    ]
    problems = []
    for label, model, x, y, loss in cases:
        # the last head layer starts at zero, so move every weight off its initial point first
        for param in model.parameters:
            param += 0.1 * rng.standard_normal(param.shape)
        error = central_difference_error(model, x, y, loss)
        if not error < GRADIENT_TOLERANCE:
            problems.append(f"{label}: gradient differs from central differences by {error:.3g}")
    return problems
