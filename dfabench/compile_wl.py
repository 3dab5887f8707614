"""compile-roundtrip: `dfanet compile` to all five targets, then load each back.

Each op compiles one seeded random automaton (all of one state count and
alphabet) through ``dfanet.cli.main(["compile", ...])`` to the unrolled,
transition, binary, embedding and compressed targets at one length in the
tens, and loads every written document with ``formats.parse_network_document``.
Document size grows as T^2, so the time goes to the compiler's Python loops
and to formatting and parsing text.
"""

from __future__ import annotations

import io
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from time import perf_counter

from dfanet import cli
from dfanet.compiler import (
    build_binary_threshold_network,
    build_compressed_embedding,
    build_embedding_head,
    build_transition_layer,
    build_unrolled_acceptor,
)
from dfanet.formats import format_network_document, parse_dfa_document, parse_network_document
from dfanet.network import NetworkSpec

import oracles
from convert import to_dfa
from spans import maybe_span
from verify_wl import automaton_text

NAME = "compile-roundtrip"
TARGETS = ("unrolled", "transition", "binary", "embedding", "compressed")
BUILDERS = ("build_unrolled_acceptor", "build_embedding_head", "build_compressed_embedding",
            "build_transition_layer", "build_binary_threshold_network")
EPSILON = 0.1
SAMPLED_STRINGS = 8
STATES, SYMBOLS = 4, 2


@dataclass(frozen=True)
class Sizes:
    length: int = 20
    automata: int = 8


FULL = Sizes()
TINY = Sizes(length=4, automata=2)


@dataclass
class Op:
    automaton: oracles.Automaton
    dfa_path: Path
    projection_seed: int
    argvs: list
    outputs: dict
    rng: random.Random  # draws the strings the acceptor is checked on
    work: int = 1
    expected: dict | None = None
    checked_oracles: bool = False


def random_automaton(rng: random.Random, n: int, k: int) -> oracles.Automaton:
    rows = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    return oracles.Automaton.from_rows(rows, 0, {q for q in range(n) if rng.random() < 0.5})


def reference_specs(op: Op, length: int) -> dict:
    """What each target should hold, built with the public compiler calls."""
    dfa = to_dfa(op.automaton)
    projection, achieved = build_compressed_embedding(dfa, epsilon=EPSILON, seed=op.projection_seed)
    compressed = build_embedding_head(dfa, length, head=projection)
    metadata = dict(compressed.metadata)
    metadata.update(construction="compressed-embedding", epsilon=EPSILON, seed=op.projection_seed,
                    achieved_min_distance=achieved)
    return {
        "unrolled": build_unrolled_acceptor(dfa, length),
        "transition": build_transition_layer(dfa),
        "binary": build_binary_threshold_network(dfa),
        "embedding": build_embedding_head(dfa, length),
        "compressed": NetworkSpec(layers=compressed.layers, input_dim=compressed.input_dim,
                                  output_dim=compressed.output_dim, metadata=metadata),
    }


def bit_equal(a: NetworkSpec, b: NetworkSpec) -> bool:
    if (a.input_dim, a.output_dim, len(a.layers), a.metadata) != (b.input_dim, b.output_dim, len(b.layers), b.metadata):
        return False
    for x, y in zip(a.layers, b.layers):
        if (x.activation, x.strict, x.weights.shape) != (y.activation, y.strict, y.weights.shape):
            return False
        if x.weights.tobytes() != y.weights.tobytes() or x.bias.tobytes() != y.bias.tobytes():
            return False
        if (x.thresholds is None) != (y.thresholds is None):
            return False
        if x.thresholds is not None and x.thresholds.tobytes() != y.thresholds.tobytes():
            return False
    return True


class Workload:
    name = NAME

    def __init__(self, seed: int, workdir: Path, sizes: Sizes) -> None:
        rng = random.Random(seed)
        self.length = sizes.length
        self.ops: list[Op] = []
        self.stats = {"doc_bytes": [], "net_params": [], "format_bytes": 0, "parse_bytes": 0}
        for index in range(sizes.automata):
            a = random_automaton(rng, STATES, SYMBOLS)
            dfa_path = workdir / f"a{index}.dfa"
            dfa_path.write_text(automaton_text(a))
            projection_seed = rng.randrange(2**31)
            outputs = {t: workdir / f"a{index}.{t}.net" for t in TARGETS}
            argvs = [
                ["compile", str(dfa_path), "--target", t, "--length", str(sizes.length),
                 "--seed", str(projection_seed), "--epsilon", str(EPSILON), "-o", str(outputs[t])]
                for t in TARGETS
            ]
            self.ops.append(Op(a, dfa_path, projection_seed, argvs, outputs, random.Random(rng.random())))

    def run_op(self, op: Op, tracer=None):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = perf_counter()
            codes = []
            for argv in op.argvs:
                with maybe_span(tracer, "cli.main"):
                    codes.append(cli.main(argv))
            loaded = {}
            for target, path in op.outputs.items():
                text = path.read_text()
                with maybe_span(tracer, "formats.parse_network_document"):
                    loaded[target] = parse_network_document(text)
                if tracer is not None:
                    self.stats["parse_bytes"] += len(text.encode())
            elapsed = perf_counter() - start
        return elapsed, (codes, out.getvalue(), loaded)

    def check(self, op: Op, outcome) -> str | None:
        codes, text, loaded = outcome
        if codes != [0] * len(TARGETS):
            return f"{op.dfa_path.name}: compile exit codes {codes}"
        if op.expected is None:
            op.expected = reference_specs(op, self.length)
        for target in TARGETS:
            if not bit_equal(loaded[target], op.expected[target]):
                return f"{op.dfa_path.name}: loaded {target} document differs from the compiled network"
        if not op.checked_oracles:
            problem = self._check_oracles(op, text)
            if problem:
                return problem
            op.checked_oracles = True
        return None

    def _check_oracles(self, op: Op, text: str) -> str | None:
        a, nets = op.automaton, op.expected
        n, k, length = a.states, a.symbols, self.length
        acceptor = nets["unrolled"]
        if acceptor.parameter_count != oracles.unrolled_parameter_count(n, k, length):
            return f"{op.dfa_path.name}: acceptor has {acceptor.parameter_count} parameters"
        layers = oracles.dense_layers(acceptor.layers)
        for _ in range(SAMPLED_STRINGS):
            string = [op.rng.randrange(k) for _ in range(length)]
            out = oracles.reference_forward(layers, oracles.one_hot_blocks(string, k))
            if (out == [1.0]) != oracles.plain_accepts(a, string) or out not in ([0.0], [1.0]):
                return f"{op.dfa_path.name}: acceptor output {out} on {string}"
        transition = oracles.dense_layers(nets["transition"].layers)
        binary = oracles.dense_layers(nets["binary"].layers)
        bits = oracles.state_bits(n)
        for (state, symbol), target in a.delta.items():
            symbol_block = oracles.one_hot_blocks([symbol], k)
            state_one_hot = oracles.one_hot_blocks([state], n)
            if oracles.reference_forward(transition, state_one_hot + symbol_block) != oracles.one_hot_blocks([target], n):
                return f"{op.dfa_path.name}: transition net wrong on ({state}, {symbol})"
            got = oracles.reference_forward(binary, oracles.binary_code(state, bits) + symbol_block)
            if got != oracles.binary_code(target, bits):
                return f"{op.dfa_path.name}: binary net wrong on ({state}, {symbol})"
        compressed = nets["compressed"]
        head = compressed.layers[-1].weights.T.tolist()  # one column per state
        distance = oracles.min_pairwise_distance(head)
        recorded = compressed.metadata["achieved_min_distance"]
        printed = re.search(r"projection separation: (\S+) \(epsilon", text)
        if not (distance > EPSILON and math.isclose(distance, recorded, rel_tol=1e-12)
                and printed and float(printed.group(1)) == recorded):
            return f"{op.dfa_path.name}: projection distance {distance} vs recorded {recorded}"
        return None

    def replay(self, op: Op, tracer) -> str | None:
        """The compiler and formatter calls behind the op's five compiles."""
        dfa_text = op.dfa_path.read_text()
        with tracer.span("formats.parse_dfa_document"):
            dfa = parse_dfa_document(dfa_text).dfa
        nets = {}
        with tracer.span("compiler.build_unrolled_acceptor"):
            nets["unrolled"] = build_unrolled_acceptor(dfa, self.length)
        with tracer.span("compiler.build_transition_layer"):
            nets["transition"] = build_transition_layer(dfa)
        with tracer.span("compiler.build_binary_threshold_network"):
            nets["binary"] = build_binary_threshold_network(dfa)
        with tracer.span("compiler.build_embedding_head"):
            nets["embedding"] = build_embedding_head(dfa, self.length)
        with tracer.span("compiler.build_compressed_embedding"):
            projection, _ = build_compressed_embedding(dfa, epsilon=EPSILON, seed=op.projection_seed)
        with tracer.span("compiler.build_embedding_head"):
            nets["compressed"] = build_embedding_head(dfa, self.length, head=projection)
        sizes = 0
        for net in nets.values():
            with tracer.span("formats.format_network_document"):
                sizes += len(format_network_document(net).encode())
        self.stats["format_bytes"] += sizes
        self.stats["doc_bytes"].append(sizes)
        self.stats["net_params"].append(sum(net.parameter_count for net in nets.values()))
        return None

    def trace_metrics(self, tracer) -> dict:
        stats = self.stats
        seconds = tracer.total_seconds
        # cli.main's own time: each of its compiles parses the automaton, builds and formats
        parts = (seconds("formats.format_network_document") + len(TARGETS) * seconds("formats.parse_dfa_document")
                 + sum(seconds(f"compiler.{name}") for name in BUILDERS))
        calls = len(tracer.named("cli.main"))
        metrics = {f"compiler.{name}.ms": tracer.mean_ms(f"compiler.{name}") for name in BUILDERS}
        metrics.update({
            "compiler.net_params": fmean(stats["net_params"]),
            "formats.format_network_document.ms": tracer.mean_ms("formats.format_network_document"),
            "formats.format_network_document.mb_per_s":
                stats["format_bytes"] / 1e6 / seconds("formats.format_network_document"),
            "formats.parse_network_document.ms": tracer.mean_ms("formats.parse_network_document"),
            "formats.parse_network_document.mb_per_s":
                stats["parse_bytes"] / 1e6 / seconds("formats.parse_network_document"),
            "formats.parse_dfa_document.ms": tracer.mean_ms("formats.parse_dfa_document"),
            "formats.doc_bytes": fmean(stats["doc_bytes"]),
            "cli.main.ms": 1000.0 * (seconds("cli.main") - parts) / calls,
        })
        return metrics
