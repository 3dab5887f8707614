"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The trained-replication tests use the default five seeds and take
a few minutes on a laptop CPU; everything else is seconds.
"""

import numpy as np
import pytest

from dfanet.automata import (
    make_mod_counter_dfa,
    make_parity_dfa,
    minimize,
    random_dfa,
)
from dfanet.compiler import (
    build_binary_threshold_network,
    build_compressed_embedding,
    build_embedding_head,
    build_transition_layer,
    build_unrolled_acceptor,
    verify_exact,
)
from dfanet.formats import format_network_document, parse_network_document
from dfanet.network import forward_batch
from dfanet.nn import TrainableMlp
from dfanet import experiments

from conftest import table_filling_minimal_count
from test_nn import finite_difference_grads, max_relative_error

SEEDS = (0, 1, 2, 3, 4)

COUNTER_SIZES = (2, 4, 8, 16, 32)
MAX_EXACT_LENGTH = 12

TABLE_ACCEPTOR = {8: 0.9975, 9: 0.9942, 10: 0.9817}     # reference means, T > 7
TABLE_BINARY = {8: 0.9781, 16: 0.9202, 32: 0.9320}      # reference means, n > 4
TABLE_EMBEDDING = {7: 0.9877, 8: 0.9890, 9: 0.9958}     # reference means, 6 < T < 10
EMBEDDING_T10 = 0.9283
TABLE_COMPRESSED = {2: 0.8639, 4: 0.9956, 8: 0.9961}
ACCEPTOR_TOL = 0.05
BINARY_TOL = 0.08
EMBEDDING_TOL = 0.05
EMBEDDING_T10_TOL = 0.12
COMPRESSED_TOL = 0.05
CHANCE_BAND = (0.40, 0.65)


def report_line(number: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:>2} {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def acceptor_reports():
    return experiments.run_theorem1(T_values=range(1, 11), seeds=SEEDS)


@pytest.fixture(scope="module")
def embedding_reports():
    return experiments.run_theorem2(T_values=range(1, 11), seeds=SEEDS)


@pytest.fixture(scope="module")
def compressed_reports():
    return experiments.run_corollary21(n_values=(2, 4, 8), seeds=SEEDS)


@pytest.fixture(scope="module")
def negative_report():
    return experiments.run_theorem3(seeds=SEEDS)


def test_criterion_01_constructive_exactness():
    families = [("parity", make_parity_dfa())] + [
        (f"mod{n}", make_mod_counter_dfa(n)) for n in COUNTER_SIZES
    ]
    checked = 0
    for name, dfa in families:
        for length in range(MAX_EXACT_LENGTH + 1):
            report = verify_exact(build_unrolled_acceptor(dfa, length), dfa, length)
            assert report.exact, f"{name} at T={length}: {report.mismatches[:3]}"
            checked += report.total_strings
    report_line(1, True, f"compiled acceptors exact on {checked} strings "
                         f"({len(families)} automata, T<= {MAX_EXACT_LENGTH})")


def test_criterion_02_transition_layer_exactness():
    for n in range(1, 33):
        for k in range(1, 4):
            dfa = random_dfa(n, k, seed=(n, k))
            net = build_transition_layer(dfa)
            assert net.layers[0].output_dim == n * k
            inputs = experiments.gen_transition_dataset(dfa)
            outputs = forward_batch(net, inputs.inputs)
            assert np.array_equal(outputs, inputs.labels), f"n={n} k={k}"
    for n in COUNTER_SIZES:
        dfa = make_mod_counter_dfa(n)
        data = experiments.gen_transition_dataset(dfa)
        assert np.array_equal(forward_batch(build_transition_layer(dfa), data.inputs), data.labels)
    report_line(2, True, "lookup layers exact on all n*k inputs, n<=32, k<=3; width == n*k")


def test_criterion_03_threshold_circuit_exactness():
    for n in range(1, 33):
        dfa = make_mod_counter_dfa(n)
        data = experiments.gen_binary_transition_dataset(dfa)
        outputs = forward_batch(build_binary_threshold_network(dfa), data.inputs)
        assert np.array_equal(outputs, data.labels), f"counter n={n}"
    for n, k in [(5, 3), (12, 2), (20, 3), (32, 3)]:
        dfa = random_dfa(n, k, seed=(3, n, k))
        data = experiments.gen_binary_transition_dataset(dfa)
        outputs = forward_batch(build_binary_threshold_network(dfa), data.inputs)
        assert np.array_equal(outputs, data.labels), f"random n={n} k={k}"
    report_line(3, True, "threshold circuits exact on all transitions up to n=32 "
                         "(dominates the trained binary accuracies)")


def test_criterion_04_trained_acceptor_replication(acceptor_reports):
    details = []
    for report in acceptor_reports:
        length = report.config["T"]
        mean = report.summary["accuracy"].mean
        if length <= 7:
            assert mean == 1.0, f"T={length}: mean {mean} != 1.0"
        else:
            target = TABLE_ACCEPTOR[length]
            assert abs(mean - target) <= ACCEPTOR_TOL, (
                f"T={length}: mean {mean:.4f} not within {ACCEPTOR_TOL} of {target}"
            )
        assert report.extras["constructive_exact"] is True
        details.append(f"T{length}={mean:.4f}")
    report_line(4, True, "trained acceptor sweep in band: " + " ".join(details))


def test_criterion_05_transition_grid_perfect():
    reports = experiments.run_lemma1(n_values=range(1, 9), k_values=range(1, 4), seeds=SEEDS)
    assert len(reports) == 24
    for report in reports:
        assert all(a == 1.0 for a in report.metrics["accuracy"]), (
            f"n={report.config['n']} k={report.config['k']}: {report.metrics['accuracy']}"
        )
    report_line(5, True, "one-step transition grid perfect on all 24 cells x 5 seeds")


def test_criterion_06_binary_transition_replication():
    reports = experiments.run_lemma2(n_values=COUNTER_SIZES, seeds=SEEDS)
    details = []
    for report in reports:
        n = report.config["n"]
        mean = report.summary["accuracy"].mean
        if n in (2, 4):
            assert mean == 1.0, f"n={n}: mean {mean} != 1.0"
        else:
            target = TABLE_BINARY[n]
            assert abs(mean - target) <= BINARY_TOL, (
                f"n={n}: mean {mean:.4f} not within {BINARY_TOL} of {target}"
            )
        assert report.extras["constructive_accuracy"] == 1.0
        details.append(f"n{n}={mean:.4f}")
    report_line(6, True, "binary transition sweep in band: " + " ".join(details))


def test_criterion_07_embedding_replication(embedding_reports):
    details = []
    for report in embedding_reports:
        length = report.config["T"]
        mean = report.summary["accuracy"].mean
        if length <= 6:
            assert mean == 1.0, f"T={length}: mean {mean} != 1.0"
        elif length <= 9:
            target = TABLE_EMBEDDING[length]
            assert abs(mean - target) <= EMBEDDING_TOL, (
                f"T={length}: mean {mean:.4f} not within {EMBEDDING_TOL} of {target}"
            )
        else:
            assert abs(mean - EMBEDDING_T10) <= EMBEDDING_T10_TOL, (
                f"T=10: mean {mean:.4f} not within {EMBEDDING_T10_TOL} of {EMBEDDING_T10}"
            )
        details.append(f"T{length}={mean:.4f}")
        # a perfect classifier implies linearly separable (not compact)
        # classes; the strict intra<inter contract is certified on the
        # compiled embedding head, where same-class embeddings coincide
        for acc, inter in zip(report.metrics["accuracy"], report.metrics["inter_class_min"]):
            if acc == 1.0:
                assert inter > 0.0
    report_line(7, True, "embedding sweep in band: " + " ".join(details))


def test_criterion_08_compressed_replication(compressed_reports):
    details = []
    centroid_means = []
    for report in compressed_reports:
        n = report.config["n"]
        mean = report.summary["accuracy"].mean
        target = TABLE_COMPRESSED[n]
        assert abs(mean - target) <= COMPRESSED_TOL, (
            f"n={n}: mean {mean:.4f} not within {COMPRESSED_TOL} of {target}"
        )
        centroid = report.summary["centroid_distance"].mean
        assert centroid > 0.0
        centroid_means.append(centroid)
        details.append(f"n{n}={mean:.4f}/dist={centroid:.2f}")
    assert centroid_means == sorted(centroid_means), "centroid distances must grow with n"
    report_line(8, True, "compressed embedding sweep in band: " + " ".join(details))


def test_criterion_09_counting_negative_result(negative_report):
    mean = negative_report.summary["held_out_accuracy"].mean
    assert CHANCE_BAND[0] <= mean <= CHANCE_BAND[1], f"held-out mean {mean:.4f} outside band"
    assert mean <= 0.8, "generalizing on the counting task would contradict the expected limit"
    report_line(9, True, f"counting task stays at chance: held-out mean {mean:.4f} "
                         f"in [{CHANCE_BAND[0]}, {CHANCE_BAND[1]}]")


def test_criterion_10_boundary_composite():
    report = experiments.run_corollary31(seeds=SEEDS)
    assert report.extras["exactness_pass"] is True
    assert report.extras["negative_result_pass"] is True
    assert report.extras["verdict"] == "PASS"
    report_line(10, True, f"composite boundary verdict PASS "
                          f"({report.extras['strings_checked']} exact checks, "
                          f"held-out mean {report.extras['held_out_mean']:.4f})")


def test_criterion_11a_gradient_check_hundred_cases():
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng((101, case))
        dims = [int(rng.integers(2, 7)), int(rng.integers(2, 9)), int(rng.integers(1, 5))]
        hidden = "relu" if case % 2 else "sigmoid"
        loss, final = [("mse", "identity"), ("bce", "sigmoid"), ("softmax_ce", "identity")][case % 3]
        mlp = TrainableMlp(dims, [hidden, final], seed=(102, case))
        batch = int(rng.integers(1, 6))
        for attempt in range(20):
            inputs = rng.normal(size=(batch, dims[0]))
            pre = inputs @ mlp.weights[0].T + mlp.biases[0]
            if hidden != "relu" or np.abs(pre).min() > 1e-3:
                break
        if loss == "softmax_ce":
            targets = np.eye(dims[2])[rng.integers(0, dims[2], batch)]
        elif loss == "bce":
            targets = rng.integers(0, 2, (batch, dims[2])).astype(float)
        else:
            targets = rng.normal(size=(batch, dims[2]))
        _, analytic = mlp.loss_and_gradients(inputs, targets, loss)
        numeric = finite_difference_grads(mlp, inputs, targets, loss)
        worst = max(worst, max_relative_error(analytic, numeric))
    assert worst < 1e-4, f"worst relative error {worst:.2e}"
    report_line(11, True, f"gradients match central differences on 100 cases "
                          f"(worst relative error {worst:.1e})")


def test_criterion_11b_minimization_oracle_fifty_dfas():
    from dfanet.automata import accepts_batch, all_strings

    for case in range(50):
        rng = np.random.default_rng((7, case))
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, 4))
        dfa = random_dfa(n, k, seed=(8, case))
        minimal = minimize(dfa)
        assert minimal.state_count == table_filling_minimal_count(dfa), f"case {case}"
        for length in range(9):
            strings = all_strings(k, length)
            assert np.array_equal(
                accepts_batch(dfa, strings), accepts_batch(minimal, strings)
            ), f"case {case} length {length}"
    report_line(11, True, "minimization matches the table-filling oracle on 50 random "
                          "automata (state counts and language up to length 8)")


def test_criterion_11c_projection_separation_up_to_64():
    for n in range(2, 65):
        dfa = make_mod_counter_dfa(n)
        projection, achieved = build_compressed_embedding(dfa, epsilon=0.1, seed=n)
        assert achieved > 0.1
        assert projection.shape == (int(np.ceil(np.log2(n))) + 1, n)
        worst = min(
            float(np.linalg.norm(projection[:, i] - projection[:, j]))
            for i in range(n)
            for j in range(i + 1, n)
        )
        assert worst == pytest.approx(achieved) and worst > 0.1
    report_line(11, True, "projection separation postcondition holds for n=2..64")


def test_criterion_11d_serialization_round_trip_twenty_networks():
    networks = []
    parity = make_parity_dfa()
    for length in (0, 1, 3, 6):
        networks.append(build_unrolled_acceptor(parity, length))
    for n in (2, 5, 8, 16):
        networks.append(build_binary_threshold_network(make_mod_counter_dfa(n)))
    for seed in range(4):
        networks.append(build_transition_layer(random_dfa(seed + 2, (seed % 3) + 1, seed=seed)))
    for n in (3, 4):
        networks.append(build_embedding_head(make_mod_counter_dfa(n), 4))
    for n, seed in [(4, 0), (8, 1), (16, 2)]:
        dfa = make_mod_counter_dfa(n)
        projection, _ = build_compressed_embedding(dfa, epsilon=0.1, seed=seed)
        networks.append(build_embedding_head(dfa, 3, head=projection))
    for length in (2, 9):
        networks.append(build_unrolled_acceptor(make_mod_counter_dfa(6), length))
    networks.append(build_transition_layer(make_mod_counter_dfa(32)))
    assert len(networks) == 20

    for index, net in enumerate(networks):
        loaded = parse_network_document(format_network_document(net))
        assert loaded.input_dim == net.input_dim and loaded.output_dim == net.output_dim
        for a, b in zip(loaded.layers, net.layers):
            assert np.array_equal(a.weights, b.weights), f"network {index}"
            assert np.array_equal(a.bias, b.bias)
            assert a.activation == b.activation and a.strict == b.strict
            if a.thresholds is not None:
                assert np.array_equal(a.thresholds, b.thresholds)
    report_line(11, True, "serialization round-trips 20 compiled networks bit-exactly")
