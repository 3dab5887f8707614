"""Checks of the benchmark itself: its oracles, its output checks and a tiny run.

These run with the repository's test suite (pytest from the root), so they
stay at a few seconds: every workload runs at its TINY size.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from dfanet.automata import all_strings, random_dfa, run, run_batch
from dfanet.compiler import (
    build_binary_threshold_network,
    build_compressed_embedding,
    build_embedding_head,
    build_transition_layer,
    build_unrolled_acceptor,
)
from dfanet.encodings import encode_strings
from dfanet.network import forward_batch

import compile_wl
from convert import from_dfa, to_dfa
import oracles
import run as bench
import train_wl
import verify_wl
import worker
from spans import Tracer

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("seed", range(6))
def test_oracles_agree_with_library(seed):
    dfa = random_dfa(3 + seed % 3, 1 + seed % 3, seed)
    a = from_dfa(dfa)
    assert from_dfa(to_dfa(a)) == a
    length = 5
    strings = all_strings(dfa.alphabet_size, length)
    finals = run_batch(dfa, strings)
    assert [oracles.plain_fold(a, s) for s in strings.tolist()] == finals.tolist()
    assert oracles.final_state_counts(a, length) == np.bincount(finals, minlength=dfa.state_count).tolist()
    for net in (build_unrolled_acceptor(dfa, length), build_embedding_head(dfa, length)):
        layers = oracles.dense_layers(net.layers)
        expected = forward_batch(net, encode_strings(strings, dfa.alphabet_size)).tolist()
        got = [oracles.reference_forward(layers, oracles.one_hot_blocks(s, a.symbols)) for s in strings.tolist()]
        assert got == expected
    assert build_unrolled_acceptor(dfa, length).parameter_count == oracles.unrolled_parameter_count(
        a.states, a.symbols, length)
    transition = oracles.dense_layers(build_transition_layer(dfa).layers)
    binary = oracles.dense_layers(build_binary_threshold_network(dfa).layers)
    bits = oracles.state_bits(a.states)
    for (state, symbol), target in a.delta.items():
        block = oracles.one_hot_blocks([symbol], a.symbols)
        assert oracles.reference_forward(transition, oracles.one_hot_blocks([state], a.states) + block) == \
            oracles.one_hot_blocks([target], a.states)
        assert oracles.reference_forward(binary, oracles.binary_code(state, bits) + block) == \
            oracles.binary_code(target, bits)
    projection, achieved = build_compressed_embedding(dfa, seed=seed)
    assert oracles.min_pairwise_distance(projection.T.tolist()) == pytest.approx(achieved, rel=1e-12)
    assert run(dfa, strings[0]) == oracles.plain_fold(a, strings[0])


def test_unrolled_parameter_count_closed_form_grid():
    for n, k, length in itertools.product((1, 2, 5), (1, 3), (1, 2, 7)):
        dfa = random_dfa(n, k, n * k * length)
        assert build_unrolled_acceptor(dfa, length).parameter_count == oracles.unrolled_parameter_count(n, k, length)


def test_span_children_cover_only_their_own_time():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("inner"):
            pass
    inner = tracer.named("inner")
    assert all(s["parent"] == outer["id"] for s in inner)
    covered = sum(s["end"] - s["start"] for s in inner)
    assert tracer.covered_seconds(outer) == pytest.approx(covered)
    assert covered <= outer["end"] - outer["start"]


@pytest.fixture(scope="module")
def verify_workload(tmp_path_factory):
    return verify_wl.Workload(5, tmp_path_factory.mktemp("verify"), verify_wl.TINY)


def _op(workload, label, kind):
    return next(op for op in workload.ops if op.label == label and op.kind == kind)


def test_verify_check_rejects_wrong_verdicts(verify_workload):
    wl = verify_workload
    total = 2**wl.length
    corrupted = _op(wl, "parity", "corrupted")
    exact = _op(wl, "mod4", "exact")
    # a corrupted acceptor judged exact, and an exact one judged wrong
    assert wl.check(corrupted, (0, f"{total}/{total} exhaustive checks match\nexact\n")) is not None
    assert wl.check(exact, (1, f"{total - 1}/{total} exhaustive checks match\n")) is not None
    # the real program output passes
    assert wl.check(corrupted, wl.run_op(corrupted)[1]) is None
    assert wl.check(exact, wl.run_op(exact)[1]) is None
    # a witness whose verdicts are misreported is caught
    code, text = wl.run_op(corrupted)[1]
    summary, witness = text.splitlines()[:2]
    swapped = witness.replace("True", "?").replace("False", "True").replace("?", "False")
    assert wl.check(corrupted, (code, f"{summary}\n{swapped}\n")) is not None
    # the embedding fault is reported as the known fault, a refusal passes
    embedding = _op(wl, "parity", "embedding")
    assert wl.check(embedding, wl.run_op(embedding)[1]) == "known-fault"
    assert wl.check(embedding, (2, "")) is None


def test_compile_check_rejects_wrong_networks(tmp_path):
    wl = compile_wl.Workload(3, tmp_path, compile_wl.TINY)
    op = wl.ops[0]
    _, (codes, text, loaded) = wl.run_op(op)
    assert wl.check(op, (codes, text, loaded)) is None
    damaged = loaded["unrolled"]
    for state in range(op.automaton.states):  # now rejects exactly what the automaton accepts
        damaged = verify_wl.flip_readout(damaged, state)
    assert wl.check(op, (codes, text, dict(loaded, unrolled=damaged))) is not None
    again = tmp_path / "again"
    again.mkdir()
    fresh = compile_wl.Workload(3, again, compile_wl.TINY)
    op = fresh.ops[0]
    op.expected = compile_wl.reference_specs(op, fresh.length)
    op.expected["unrolled"] = damaged  # a wrong acceptor that matches its document bit for bit
    _, (codes, text, loaded) = fresh.run_op(op)
    assert fresh.check(op, (codes, text, dict(loaded, unrolled=damaged))) is not None


class _Report:
    def __init__(self, metrics, extras=None):
        self.config, self.seeds, self.metrics, self.extras = {}, (0, 1), metrics, extras or {}


def _train_reports(accuracy=1.0, held_out=(0.5, 0.5)):
    exact = _Report({"accuracy": (0.9, 0.8)}, {"constructive_accuracy": accuracy, "constructive_exact": accuracy == 1.0})
    return {
        "thm1": [exact], "lemma1": [exact], "lemma2": [exact], "thm2": [_Report({"accuracy": (1.0, 1.0)})],
        "cor21": [_Report({"accuracy": (1.0, 1.0)})], "thm3": _Report({"held_out_accuracy": held_out}),
        "cor31": _Report({"held_out_accuracy": held_out}, {"exactness_pass": True, "mismatches": 0}),
    }


def test_train_check_rejects_wrong_reports(tmp_path):
    wl = train_wl.Workload(0, tmp_path, train_wl.TINY)
    op = wl.ops[0]
    assert wl.check(op, _train_reports()) is None
    assert wl.check(op, _train_reports(accuracy=0.75)) is not None
    assert wl.check(op, _train_reports(held_out=(0.9, 0.95))) is not None
    assert wl.check(op, _train_reports(held_out=(0.5, 0.51))) is not None  # not bit-identical to the first


@pytest.mark.parametrize("name", sorted(worker.MODULES))
def test_tiny_run_of_each_workload(name, tmp_path):
    workload = worker.load(name, 7, tmp_path, tiny=True)
    result = worker.run_rounds(workload, 0.0)
    assert result["problems"] == []
    assert len(result["rounds"]) == worker.MIN_ROUNDS
    assert len(result["op_seconds"]) == result["attempted"] == worker.MIN_ROUNDS * len(workload.ops)
    known = sum(getattr(op, "kind", None) == "embedding" for op in workload.ops)
    assert result["failed"] == worker.MIN_ROUNDS * known
    traced = worker.trace_round(workload, tmp_path / "spans.json")
    assert traced["problems"] == []
    assert json.loads((tmp_path / "spans.json").read_text())
    assert set(traced["metrics"]) <= set(bench.PER_LAYER)


def test_wrong_outputs_count_as_failed(verify_workload):
    tally = worker.Tally()
    for verdict in (None, "known-fault", "wrong"):
        tally.record(verdict)
    assert (tally.attempted, tally.failed, tally.problems) == (3, 2, ["wrong"])
    right = worker.run_rounds(verify_workload, 0.0)
    wl = verify_workload
    original = wl.run_op
    try:  # every verify now claims that no string matched
        wl.run_op = lambda op, tracer=None: (0.0, (1, f"0/{2**wl.length} exhaustive checks match\n"))
        wrong = worker.run_rounds(wl, 0.0)
    finally:
        wl.run_op = original
    acceptor_ops = worker.MIN_ROUNDS * sum(op.kind != "embedding" for op in wl.ops)
    assert wrong["attempted"] == right["attempted"]
    assert wrong["failed"] == acceptor_ops  # the embedding ops now refuse, which is right
    assert wrong["failed"] > right["failed"] and len(wrong["problems"]) == acceptor_ops


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
