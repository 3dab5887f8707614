import numpy as np
import pytest

import dfanet.experiments
from dfanet.automata import accepts_batch, all_strings, make_mod_counter_dfa, make_parity_dfa
from dfanet.compiler import verify_exact
from dfanet.encodings import decode_string, encode_strings
from dfanet.experiments import (
    CHANCE_BAND,
    gen_anbn_dataset,
    gen_binary_transition_dataset,
    gen_dfa_dataset,
    gen_dfa_state_dataset,
    gen_transition_dataset,
    run_corollary31,
    run_lemma1,
    run_theorem1,
    run_theorem2,
    split_dataset,
    summarize,
    _binary_accuracy,
    _centroid_distance,
    _class_distances,
    _map_jobs,
)
from dfanet.network import forward_batch
from dfanet.nn import UnrolledNet


def test_gen_dfa_dataset_label_mean_near_half():
    data = gen_dfa_dataset(make_parity_dfa(), 1, 2000, seed=0)
    assert abs(data.labels.mean() - 0.5) <= 0.05  # binomial concentration


def test_gen_dfa_dataset_rejects_empty():
    with pytest.raises(ValueError):
        gen_dfa_dataset(make_parity_dfa(), 3, 0, seed=0)


def test_gen_dfa_dataset_deterministic():
    a = gen_dfa_dataset(make_parity_dfa(), 4, 100, seed=5)
    b = gen_dfa_dataset(make_parity_dfa(), 4, 100, seed=5)
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)
    c = gen_dfa_dataset(make_parity_dfa(), 4, 100, seed=6)
    assert not np.array_equal(a.inputs, c.inputs)


def test_gen_dfa_dataset_labels_match_acceptance():
    parity = make_parity_dfa()
    data = gen_dfa_dataset(parity, 3, 50, seed=1)
    for row, label in zip(data.inputs, data.labels):
        string = decode_string(row, 2)
        ones = sum(string)
        assert label[0] == (1.0 if ones % 2 == 0 else 0.0)


def test_gen_state_dataset_one_hot_labels():
    counter = make_mod_counter_dfa(4)
    data = gen_dfa_state_dataset(counter, 5, 40, seed=2)
    assert data.labels.shape == (40, 4)
    assert np.all(data.labels.sum(axis=1) == 1.0)
    for row, label in zip(data.inputs, data.labels):
        ones = sum(decode_string(row, 2))
        assert label.argmax() == ones % 4


def test_gen_transition_dataset_covers_all_pairs():
    counter = make_mod_counter_dfa(3)
    data = gen_transition_dataset(counter)
    assert data.inputs.shape == (6, 5)
    assert np.all(data.inputs.sum(axis=1) == 2.0)  # state one-hot + symbol one-hot


def test_gen_binary_transition_dataset_shapes():
    counter = make_mod_counter_dfa(8)
    data = gen_binary_transition_dataset(counter)
    assert data.inputs.shape == (16, 5)  # 3 state bits + 2 symbol slots
    assert data.labels.shape == (16, 3)


def test_anbn_examples_and_balance():
    data = gen_anbn_dataset((1, 5), count=400, max_len=20, seed=0)
    assert data.labels.mean() == 0.5  # exactly balanced
    positives = 0
    for row, label in zip(data.inputs, data.labels):
        string = decode_string(row, 3)
        body = [s for s in string if s != 2]
        a_count = sum(1 for s in body if s == 0)
        b_count = len(body) - a_count
        assert body == [0] * a_count + [1] * b_count  # a-block then b-block
        assert label[0] == (1.0 if a_count == b_count else 0.0)
        positives += label[0] == 1.0
        if body == [0, 0, 1, 1]:
            assert label[0] == 1.0  # aabb is in the language
        if body == [0, 0, 1]:
            assert label[0] == 0.0  # aab is not
    assert positives == 200


def test_anbn_range_validation():
    with pytest.raises(ValueError):
        gen_anbn_dataset((1, 11), count=10, max_len=20, seed=0)
    with pytest.raises(ValueError):
        gen_anbn_dataset((1, 5), count=3, max_len=20, seed=0)  # odd count
    with pytest.raises(ValueError):
        gen_anbn_dataset((0, 5), count=10, max_len=20, seed=0)


def test_split_dataset_partitions():
    data = gen_dfa_dataset(make_parity_dfa(), 3, 100, seed=0)
    train, evaluation = split_dataset(data, 0.8, seed=1)
    assert train.count == 80 and evaluation.count == 20
    again_train, again_eval = split_dataset(data, 0.8, seed=1)
    assert np.array_equal(train.inputs, again_train.inputs)
    assert np.array_equal(evaluation.inputs, again_eval.inputs)


def test_summarize_constant_sequence():
    stats = summarize([1.0, 1.0, 1.0, 1.0, 1.0])
    assert (stats.mean, stats.std, stats.ci95) == (1.0, 0.0, 0.0)
    stats = summarize([0.98] * 5)
    assert stats.ci95 == 0.0


def test_summarize_two_values():
    stats = summarize([0.0, 1.0])
    assert stats.mean == 0.5
    assert stats.std == pytest.approx(0.70710678, abs=1e-6)


@pytest.mark.parametrize("dof, t_crit", [  # scipy.stats.t.ppf(0.975, dof)
    (1, 12.706204736174694), (2, 4.302652729749462), (3, 3.1824463052837078),
    (4, 2.7764451051977934), (6, 2.4469118511449786), (9, 2.262157162798205),
    (29, 2.045229642132703), (99, 1.9842169515864174), (999, 1.9623414611334493),
])
def test_summarize_uses_student_t(dof, t_crit):
    values = [0.0] * dof + [1.0]
    stats = summarize(values)
    std = np.std(values, ddof=1)
    assert stats.ci95 == pytest.approx(t_crit * std / np.sqrt(dof + 1), rel=1e-13)


def test_summarize_infinite_value_has_no_spread():
    stats = summarize([np.inf, 1.0])
    assert stats.mean == np.inf
    assert np.isnan(stats.std) and np.isnan(stats.ci95)


def test_run_theorem2_single_class_eval_split_summarizes_without_warning():
    # seed 21's eval split holds one class, so its min inter-class distance is inf
    report = run_theorem2(T_values=(1,), seeds=(21, 0), sample_count=20, epochs=1)[0]
    assert report.metrics["inter_class_min"][0] == np.inf
    assert report.summary["inter_class_min"].mean == np.inf


def test_summarize_needs_two_values():
    with pytest.raises(ValueError):
        summarize([1.0])


def test_class_distance_helpers():
    embeddings = np.array([[0.0], [0.1], [5.0], [5.3]])
    labels = np.array([0, 0, 1, 1])
    intra_max, inter_min = _class_distances(embeddings, labels)
    assert intra_max == pytest.approx(0.3)
    assert inter_min == pytest.approx(4.9)
    assert _centroid_distance(embeddings, labels) == pytest.approx(5.1)


def test_run_theorem1_report_structure():
    reports = run_theorem1(T_values=[1], seeds=(0, 1), sample_count=200, epochs=20)
    assert len(reports) == 1
    report = reports[0]
    assert report.config["T"] == 1
    assert len(report.metrics["accuracy"]) == 2
    assert report.extras["constructive_exact"] is True
    assert "accuracy" in report.summary
    assert report.runtime_seconds > 0


def test_run_theorem1_worker_processes_match_in_process_run():
    kwargs = dict(T_values=(5,), seeds=(0, 1), sample_count=200, epochs=20)
    serial = run_theorem1(jobs=1, **kwargs)[0]
    pooled = run_theorem1(jobs=2, **kwargs)[0]
    assert serial.metrics["accuracy"] == pooled.metrics["accuracy"] == (0.9, 0.875)


def test_map_jobs_starts_no_more_workers_than_seeds(monkeypatch):
    class SerialPool:
        """Records ``max_workers`` and maps in this process, starting none."""

        started: list[int] = []

        def __init__(self, max_workers):
            self.started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, seeds):
            return map(worker, seeds)

    monkeypatch.setattr(dfanet.experiments, "ProcessPoolExecutor", SerialPool)
    assert _map_jobs(lambda seed: seed * 10, (3, 4), jobs=10_000) == [30, 40]
    assert SerialPool.started == [2]


def test_run_lemma1_trivial_single_state():
    reports = run_lemma1(n_values=(1,), k_values=(2,), seeds=(0, 1), epochs=5)
    assert reports[0].metrics["accuracy"] == (1.0, 1.0)  # single state, argmax trivially right


def test_run_corollary31_composite_structure():
    report = run_corollary31(seeds=(0, 1), max_exact_length=3, counter_sizes=(2,))
    assert report.extras["exactness_pass"] is True
    assert report.extras["mismatches"] == 0
    assert report.extras["verdict"] in ("PASS", "FAIL")
    lo, hi = CHANCE_BAND
    assert report.extras["negative_result_pass"] == (lo <= report.extras["held_out_mean"] <= hi)


def test_binary_accuracy_reads_the_verdict_verify_exact_reads():
    """An untrained acceptor's zeroed last head layer outputs 0.5 exactly: both read it as "reject"."""
    dfa = make_mod_counter_dfa(3)
    net = UnrolledNet(4, 2, 4, 0, [1], ["sigmoid"], seed=0, hidden_width=8).to_network()
    strings = all_strings(2, 4)
    outputs = forward_batch(net, encode_strings(strings, 2))
    assert np.all(outputs == 0.5)
    accuracy = _binary_accuracy(outputs, accepts_batch(dfa, strings)[:, None].astype(float))
    assert accuracy == 1 - verify_exact(net, dfa, 4).mismatch_count / 16 == 0.6875
