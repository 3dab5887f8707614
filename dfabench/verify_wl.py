"""verify-exhaustive: `dfanet verify` of network files against their automata.

Each op is one ``dfanet.cli.main(["verify", NET, DFA, "--length", T])`` that
enumerates all k^T strings. A round verifies the exact unrolled acceptor of
every automaton (parity, the mod-4 counter and seeded random automata), the
same acceptor with one entry of the readout's accepting indicator flipped for
three of them, and an embedding-head network of the two fixed automata, which
is not an acceptor and must not be judged "exact".

All automata have two symbols and at most four states, and the random ones
are permutation automata whose strings of length T spread evenly over the
states, so every flipped readout mismatches on a near-fixed share of the
strings and each kind of op costs the same for every seed. Flipped readouts
are slower (every mismatch is collected), so they are only three of the
eleven ops and the median op lies inside the cluster of four-state exact ops.
"""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from time import perf_counter

import numpy as np

from dfanet import cli
from dfanet.automata import accepts_batch
from dfanet.compiler import build_embedding_head, build_unrolled_acceptor, verify_exact
from dfanet.encodings import encode_strings
from dfanet.formats import format_network_document, parse_dfa_document, parse_network_document
from dfanet.network import LayerSpec, NetworkSpec, forward_batch

import oracles
from convert import to_dfa
from spans import maybe_span

NAME = "verify-exhaustive"
SYMBOL_NAMES = "abcdefgh"
CHUNK = 1 << 16  # verify_exact's default chunk size

MOD4 = oracles.Automaton.from_rows([[0, 1], [1, 2], [2, 3], [3, 0]], start=0, accepting={0})
FIXED = ("parity", "mod4")  # embedding-head ops use only these, so that op class is the same every run
CORRUPTED = ("parity", "mod4", "perm0")
RANDOM_STATES = 4


@dataclass(frozen=True)
class Sizes:
    length: int = 15
    random_automata: int = 4
    balance: float = 0.1  # every state's share of strings within this fraction of 1/n


FULL = Sizes()
TINY = Sizes(length=6, random_automata=1, balance=0.5)


@dataclass
class Op:
    kind: str  # "exact" | "corrupted" | "embedding"
    label: str
    automaton: oracles.Automaton
    net: NetworkSpec
    argv: list
    work: int
    flipped: int | None = None
    witnesses: dict = field(default_factory=dict)


def automaton_text(a: oracles.Automaton) -> str:
    """The automaton in dfanet's text format, written without the program's formatter."""
    names = [f"s{i}" for i in range(a.states)]
    lines = [
        "states: " + " ".join(names),
        "symbols: " + " ".join(SYMBOL_NAMES[: a.symbols]),
        f"start: {names[a.start]}",
        "accept: " + " ".join(names[q] for q in sorted(a.accepting)),
        "transitions:",
    ]
    for (state, symbol), target in sorted(a.delta.items()):
        lines.append(f"  {names[state]} {SYMBOL_NAMES[symbol]} -> {names[target]}")
    return "\n".join(lines) + "\n"


def balanced_permutation_automaton(rng: random.Random, n: int, length: int, balance: float):
    """A random 2-symbol permutation automaton whose length-T strings spread evenly."""
    target = 2**length / n
    for _ in range(10_000):
        perms = [rng.sample(range(n), n) for _ in range(2)]
        accepting = {q for q in range(n) if rng.random() < 0.5}
        if not 0 < len(accepting) < n:
            continue
        a = oracles.Automaton.from_rows([[perms[0][i], perms[1][i]] for i in range(n)], 0, accepting)
        if all(abs(c - target) <= balance * target for c in oracles.final_state_counts(a, length)):
            return a
    raise RuntimeError("no balanced permutation automaton found")


def flip_readout(net: NetworkSpec, state: int) -> NetworkSpec:
    readout = net.layers[-1]
    weights = readout.weights.copy()
    weights[0, state] = 1.0 - weights[0, state]
    flipped = LayerSpec(weights=weights, bias=readout.bias, activation=readout.activation,
                        thresholds=readout.thresholds, strict=readout.strict)
    return NetworkSpec(layers=net.layers[:-1] + (flipped,), input_dim=net.input_dim,
                       output_dim=net.output_dim, metadata=dict(net.metadata))


def enumerate_chunks(k: int, length: int):
    """All k^T strings in lexicographic order, in verify_exact's chunks."""
    powers = k ** np.arange(length - 1, -1, -1, dtype=np.int64)
    total = k**length
    for start in range(0, total, CHUNK):
        indices = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        yield (indices[:, None] // powers[None, :]) % k


class Workload:
    name = NAME

    def __init__(self, seed: int, workdir: Path, sizes: Sizes) -> None:
        rng = random.Random(seed)
        self.length = length = sizes.length
        automata = [("parity", oracles.PARITY), ("mod4", MOD4)] + [
            (f"perm{i}", balanced_permutation_automaton(rng, RANDOM_STATES, length, sizes.balance))
            for i in range(sizes.random_automata)
        ]
        self.ops: list[Op] = []
        self.stats = {"verify_self_s": [], "mismatches": 0, "macs": [], "nonzero": []}
        for label, a in automata:
            dfa_path = workdir / f"{label}.dfa"
            dfa_path.write_text(automaton_text(a))
            dfa = to_dfa(a)
            exact = build_unrolled_acceptor(dfa, length)
            flipped = rng.randrange(a.states)
            nets = [("exact", exact, None)]
            if label in CORRUPTED:
                nets.append(("corrupted", flip_readout(exact, flipped), flipped))
            if label in FIXED:
                nets.append(("embedding", build_embedding_head(dfa, length), None))
            for kind, net, flip in nets:
                net_path = workdir / f"{label}.{kind}.net"
                net_path.write_text(format_network_document(net))
                argv = ["verify", str(net_path), str(dfa_path), "--length", str(length)]
                work = 0 if kind == "embedding" else a.symbols**length
                self.ops.append(Op(kind, label, a, net, argv, work, flip))

    def run_op(self, op: Op, tracer=None):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = perf_counter()
            with maybe_span(tracer, "cli.main"):
                code = cli.main(op.argv)
            elapsed = perf_counter() - start
        return elapsed, (code, out.getvalue())

    def check(self, op: Op, outcome) -> str | None:
        """None when the output is right, "known-fault" for the embedding fault, else a problem."""
        code, text = outcome
        lines = text.splitlines()
        if op.kind == "embedding":
            if code == 0 and "exact" in lines:
                return "known-fault"
            return None if code != 0 else f"{op.label} embedding: exit 0 without a verdict"
        total = op.automaton.symbols**self.length
        m = re.fullmatch(r"(\d+)/(\d+) exhaustive checks match", lines[0]) if lines else None
        if m is None or int(m.group(2)) != total:
            return f"{op.label} {op.kind}: unexpected summary {lines[:1]}"
        matched = int(m.group(1))
        if op.kind == "exact":
            if code == 0 and matched == total and lines[1:2] == ["exact"]:
                return None
            return f"{op.label} exact: exit {code}, {matched}/{total} matched"
        counts = oracles.final_state_counts(op.automaton, self.length)
        if code != 1 or matched != total - counts[op.flipped]:
            return (f"{op.label} corrupted: exit {code}, {matched} matched, "
                    f"expected {total - counts[op.flipped]}")
        return self._check_witness(op, lines[1:2])

    def _check_witness(self, op: Op, lines) -> str | None:
        m = re.fullmatch(r"first witness: '([a-h]*)' automaton=(True|False) network=(True|False)",
                         lines[0]) if lines else None
        if m is None:
            return f"{op.label} corrupted: no witness line in {lines}"
        rendered = m.group(1)
        if rendered not in op.witnesses:
            string = [SYMBOL_NAMES.index(c) for c in rendered]
            layers = oracles.dense_layers(op.net.layers)
            verdict = oracles.reference_forward(layers, oracles.one_hot_blocks(string, op.automaton.symbols))
            op.witnesses[rendered] = (len(string), oracles.plain_fold(op.automaton, string), verdict[0] > 0.5)
        length, state, network_says = op.witnesses[rendered]
        automaton_says = state in op.automaton.accepting
        if (length != self.length or state != op.flipped or automaton_says == network_says
                or m.group(2) != str(automaton_says) or m.group(3) != str(network_says)):
            return f"{op.label} corrupted: witness {rendered!r} is not a mismatch ({m.group(0)})"
        return None

    def replay(self, op: Op, tracer) -> str | None:
        """The public calls a verify op consists of, each in its own span."""
        net_text, dfa_text = Path(op.argv[1]).read_text(), Path(op.argv[2]).read_text()
        with tracer.span("formats.parse_network_document"):
            net = parse_network_document(net_text)
        with tracer.span("formats.parse_dfa_document"):
            dfa = parse_dfa_document(dfa_text).dfa
        with tracer.span("compiler.verify_exact") as whole:
            report = verify_exact(net, dfa, self.length)
        with tracer.span("compiler.verify_exact.parts") as parts:
            for strings in enumerate_chunks(dfa.alphabet_size, self.length):
                with tracer.span("encodings.encode_strings"):
                    inputs = encode_strings(strings, dfa.alphabet_size)
                with tracer.span("automata.accepts_batch"):
                    accepts_batch(dfa, strings)
                with tracer.span("network.forward_batch"):
                    outputs = forward_batch(net, inputs)
        activations = inputs
        with tracer.span("network.layers"):
            for layer in net.layers:
                single = NetworkSpec(layers=(layer,), input_dim=layer.input_dim, output_dim=layer.output_dim)
                with tracer.span(f"network.layer.{layer.activation}"):
                    activations = forward_batch(single, activations)
        stats = self.stats
        stats["verify_self_s"].append(whole["end"] - whole["start"] - tracer.covered_seconds(parts))
        stats["mismatches"] += len(report.mismatches)
        stats["macs"].append(sum(layer.weights.size for layer in net.layers))
        stats["nonzero"].append(sum(int(np.count_nonzero(layer.weights)) for layer in net.layers))
        if not np.array_equal(activations, outputs):
            return f"{op.label} {op.kind}: layer-by-layer forward differs from forward_batch"
        return None

    def trace_metrics(self, tracer) -> dict:
        stats = self.stats
        return {
            "network.forward_batch.ms": tracer.mean_ms("network.forward_batch"),
            "network.layer_ms.relu": tracer.mean_ms("network.layer.relu"),
            "network.layer_ms.identity": tracer.mean_ms("network.layer.identity"),
            "network.layer_ms.step": tracer.mean_ms("network.layer.step"),
            "network.macs_per_string": fmean(stats["macs"]),
            "network.nonzero_weights": fmean(stats["nonzero"]),
            "compiler.verify_exact.ms": tracer.mean_ms("compiler.verify_exact"),
            "compiler.verify_exact.self_ms": 1000.0 * fmean(stats["verify_self_s"]),
            "compiler.mismatches": stats["mismatches"],
            "automata.accepts_batch.ms": tracer.mean_ms("automata.accepts_batch"),
            "encodings.encode_strings.ms": tracer.mean_ms("encodings.encode_strings"),
        }
