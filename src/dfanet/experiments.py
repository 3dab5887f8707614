"""Experiment harness: dataset generation, training protocols, statistics.

Each ``run_*`` entry point sweeps its configurations across a set of seeds,
trains the matching architecture with full-batch Adam (lr 0.01, 200 epochs by
default), and aggregates per-seed metrics into mean / sample std / 95%
confidence intervals (Student's t). The thm1, lemma1 and lemma2 sweeps also
evaluate the exact compiled counterpart, so their reports carry both the
learned and the constructive numbers; cor31 verifies its compiled acceptors
itself, and thm2 and cor21 carry no counterpart yet. Every worker scores its
trained model as a network: ``to_network()`` exports it and
``network.forward_batch``, the evaluator of compiled networks, runs it.

A generated ``Dataset`` is only its input and label rows. What made it, the
seed tuple and the automaton, is known to the worker that called the
generator, and any record of a run takes it from there.

The t critical value is found by bisection on the t CDF, which for integer
degrees of freedom is a finite sum (Abramowitz & Stegun 26.7.3-26.7.4).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .automata import (
    Dfa,
    make_mod_counter_dfa,
    make_parity_dfa,
    random_dfa,
    run_batch,
)
from .compiler import (
    _verdicts,
    build_binary_threshold_network,
    build_transition_layer,
    build_unrolled_acceptor,
    verify_exact,
)
from .encodings import binary_state_encoding, bits_for_state_count, encode_strings
from .encodings import one_hot_state_encoding, transition_table
from .network import NetworkSpec, forward_batch
from .nn import TrainableMlp, TrainConfig, UnrolledNet, train

DEFAULT_SEEDS: tuple[int, ...] = (0, 1, 2, 3, 4)
DEFAULT_SAMPLE_COUNT = 2000
DEFAULT_TRAIN_FRACTION = 0.8
DEFAULT_HIDDEN_WIDTH = 32
DEFAULT_STATE_WIDTH = 32

# rng stream tags so data / split / init draws never alias within a seed
_DATA, _SPLIT, _INIT, _TEST = 11, 13, 17, 19


@dataclass(frozen=True)
class Dataset:
    """Encoded input rows and their label rows, aligned by index."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels must have the same count")

    @property
    def count(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    std: float
    ci95: float


def _t_cdf(t: float, dof: int) -> float:
    """Student-t CDF at ``t >= 0`` for integer ``dof`` (Abramowitz & Stegun 26.7.3-26.7.4)."""
    theta = math.atan(t / math.sqrt(dof))
    c, odd = math.cos(theta) ** 2, dof % 2
    term, total = 1.0, 0.0
    for j in range(dof // 2):
        total += term
        term *= c * (2 * j + 1 + odd) / (2 * j + 2 + odd)
    if odd:
        return 0.5 + (theta + math.sin(theta) * math.cos(theta) * total) / math.pi
    return 0.5 + 0.5 * math.sin(theta) * total


def _t_critical_975(dof: int) -> float:
    """The t with CDF 0.975, by bisection on [0, 13] (t(0.975, 1) is 12.71) to adjacent floats."""
    lo, hi = 0.0, 13.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _t_cdf(mid, dof) < 0.975:
            lo = mid
        else:
            hi = mid
    return hi


def summarize(values: Sequence[float]) -> SummaryStats:
    """Sample statistics: mean, std (n-1 denominator), t-based 95% CI half-width."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two values to summarize")
    if np.all(arr == arr[0]):
        # avoid rounding residue in the mean: a constant sequence has zero spread
        return SummaryStats(mean=float(arr[0]), std=0.0, ci95=0.0)
    if not np.isfinite(arr).all():  # an inf or nan value leaves no finite spread
        return SummaryStats(mean=float(arr.mean()), std=math.nan, ci95=math.nan)
    std = float(arr.std(ddof=1))
    t_crit = _t_critical_975(arr.size - 1)
    return SummaryStats(
        mean=float(arr.mean()), std=std, ci95=t_crit * std / float(np.sqrt(arr.size))
    )


@dataclass(frozen=True)
class ExperimentReport:
    """Per-seed metrics for one configuration, with summary statistics."""

    name: str
    config: dict
    seeds: tuple[int, ...]
    metrics: dict[str, tuple[float, ...]]
    summary: dict[str, SummaryStats]
    extras: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0


def _make_report(
    name: str,
    config: dict,
    seeds: Sequence[int],
    metrics: dict[str, Sequence[float]],
    extras: dict | None = None,
    runtime_seconds: float = 0.0,
) -> ExperimentReport:
    frozen = {k: tuple(float(x) for x in v) for k, v in metrics.items()}
    summary = {k: summarize(v) for k, v in frozen.items() if len(v) >= 2}
    return ExperimentReport(
        name=name,
        config=config,
        seeds=tuple(int(s) for s in seeds),
        metrics=frozen,
        summary=summary,
        extras=extras or {},
        runtime_seconds=runtime_seconds,
    )


# ---------------------------------------------------------------------------
# dataset generators


def _uniform_dataset(dfa: Dfa, length: int, count: int, seed, table: np.ndarray) -> Dataset:
    """Uniform i.i.d. strings of ``length``; a string's label is ``table[reached state]``."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    strings = rng.integers(0, dfa.alphabet_size, size=(count, length))
    return Dataset(encode_strings(strings, dfa.alphabet_size), table[run_batch(dfa, strings)])


def gen_dfa_dataset(dfa: Dfa, length: int, count: int, seed) -> Dataset:
    """Uniform i.i.d. strings of ``length`` labeled by acceptance (0/1)."""
    return _uniform_dataset(dfa, length, count, seed, dfa.accepting_mask[:, None].astype(float))


def gen_dfa_state_dataset(dfa: Dfa, length: int, count: int, seed) -> Dataset:
    """Uniform i.i.d. strings labeled by the one-hot of the reached state."""
    return _uniform_dataset(dfa, length, count, seed, np.eye(dfa.state_count))


def gen_transition_dataset(dfa: Dfa) -> Dataset:
    """All n*k one-hot pairs [e_state; u_symbol] -> one-hot next state, row i*k + j."""
    return Dataset(*transition_table(dfa, one_hot_state_encoding(dfa.state_count)))


def gen_binary_transition_dataset(dfa: Dfa) -> Dataset:
    """All n*k pairs [binary state code; one-hot symbol] -> next state code, row i*k + j."""
    return Dataset(*transition_table(dfa, binary_state_encoding(dfa.state_count)))


PAD_SYMBOL = 2  # alphabet for the counting task: a=0, b=1, PAD=2


def gen_anbn_dataset(
    n_range: tuple[int, int], count: int = DEFAULT_SAMPLE_COUNT, max_len: int = 20, seed=0
) -> Dataset:
    """Balanced a^n b^n membership set, padded to ``max_len`` with the PAD symbol.

    Positives are a^n b^n for n in the range; negatives are a^n b^m with
    m != n drawn from the same range (subject to the length cap). Classes are
    exactly 50/50. Strings are one-hot over {a, b, PAD}.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo < 1 or hi < lo:
        raise ValueError("n_range must satisfy 1 <= lo <= hi")
    if 2 * hi > max_len:
        raise ValueError(f"2*{hi} exceeds max_len {max_len}")
    if count < 2 or count % 2:
        raise ValueError("count must be even and at least 2 for exact class balance")

    negatives = [
        (n, m)
        for n in range(lo, hi + 1)
        for m in range(lo, hi + 1)
        if m != n and n + m <= max_len
    ]
    if not negatives:
        raise ValueError("range admits no negative examples")
    rng = np.random.default_rng(seed)
    half = count // 2
    pos_n = rng.integers(lo, hi + 1, size=half)
    neg_idx = rng.integers(0, len(negatives), size=half)

    strings = np.full((count, max_len), PAD_SYMBOL, dtype=np.int64)
    labels = np.zeros((count, 1))
    rows = rng.permutation(count)
    for row, n in zip(rows[:half], pos_n):
        strings[row, : 2 * n] = [0] * int(n) + [1] * int(n)
        labels[row, 0] = 1.0
    for row, idx in zip(rows[half:], neg_idx):
        n, m = negatives[int(idx)]
        strings[row, : n + m] = [0] * n + [1] * m

    return Dataset(encode_strings(strings, 3), labels)


def split_dataset(dataset: Dataset, train_fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Uniform shuffle split into (train, eval) parts."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.count)
    cut = int(round(train_fraction * dataset.count))
    if cut == 0 or cut == dataset.count:
        raise ValueError("split leaves one side empty")
    return tuple(Dataset(dataset.inputs[part], dataset.labels[part]) for part in (perm[:cut], perm[cut:]))


# ---------------------------------------------------------------------------
# per-seed workers (module level so seed sweeps can run in worker processes)
#
# Each worker takes the seed first and returns {metric: value}; every rng
# stream it draws from is seeded (seed, tag, *grid key).


def _binary_accuracy(outputs: np.ndarray, labels: np.ndarray) -> float:
    return float((_verdicts(outputs) == labels).all(axis=1).mean())


def _argmax_accuracy(outputs: np.ndarray, labels: np.ndarray) -> float:
    return float((outputs.argmax(axis=1) == labels.argmax(axis=1)).mean())


def _fit(model: TrainableMlp | UnrolledNet, data: Dataset, loss: str, epochs: int, label) -> None:
    """Full-batch Adam on ``data``; a ``label`` prints one tagged loss line per epoch."""

    def report(epoch: int, value: float) -> None:
        print(f"[{label}] epoch {epoch} loss {value:.6f}", flush=True)

    config = TrainConfig(epochs=epochs, loss=loss)
    train(model, data.inputs, data.labels, config, progress=report if label else None)


def _fit_unrolled(
    dfa, generator, key, heads, loss, length, samples, epochs, state_width, label
) -> tuple[UnrolledNet, Dataset]:
    """Train an UnrolledNet on the train split of ``generator``'s strings.

    ``key`` is (seed, *grid key) and ``heads`` is (head_dims, head_activations).
    Returns the model and the eval split. The strings are drawn with repeats,
    so the eval split shares most of its strings with the train split.
    """
    seed, *point = key
    data = generator(dfa, length, samples, seed=(seed, _DATA, *point))
    train_part, eval_part = split_dataset(data, DEFAULT_TRAIN_FRACTION, seed=(seed, _SPLIT, *point))
    model = UnrolledNet(
        state_width, dfa.alphabet_size, length, dfa.start_state, *heads,
        seed=(seed, _INIT, *point), hidden_width=DEFAULT_HIDDEN_WIDTH,
    )
    _fit(model, train_part, loss, epochs, label)
    return model, eval_part


def _acceptor_seed(seed, length, samples, epochs, progress) -> dict:
    model, evaluation = _fit_unrolled(
        make_parity_dfa(), gen_dfa_dataset, (seed, length), ([1], ["sigmoid"]), "bce",
        length, samples, epochs, DEFAULT_STATE_WIDTH,
        f"T={length} seed={seed}" if progress else None,
    )
    outputs = forward_batch(model.to_network(), evaluation.inputs)
    return {"accuracy": _binary_accuracy(outputs, evaluation.labels)}


def _embedding_seed(
    seed, dfa, key, label, length, samples, epochs, state_width, embedding_dim, centroid, progress
) -> dict:
    """Eval-split state accuracy of an embedding head, plus one embedding distance.

    ``centroid`` reports the mean centroid distance (cor21) in place of the
    class separation, max intra and min inter distance (thm2).
    """
    heads = ([embedding_dim, dfa.state_count], ["identity", "identity"])
    model, evaluation = _fit_unrolled(
        dfa, gen_dfa_state_dataset, (seed, *key), heads, "softmax_ce",
        length, samples, epochs, state_width, f"{label} seed={seed}" if progress else None,
    )
    net = model.to_network()
    embeddings = forward_batch(NetworkSpec(net.layers[:-1], net.input_dim, embedding_dim), evaluation.inputs)
    logits = forward_batch(NetworkSpec(net.layers[-1:], embedding_dim, net.output_dim), embeddings)
    classes = evaluation.labels.argmax(axis=1)
    row = {"accuracy": _argmax_accuracy(logits, evaluation.labels)}
    if centroid:
        row["centroid_distance"] = _centroid_distance(embeddings, classes)
    else:
        row["intra_class_max"], row["inter_class_min"] = _class_distances(embeddings, classes)
    return row


def _transition_seed(seed, n, k, epochs, progress) -> dict:
    data = gen_transition_dataset(random_dfa(n, k, seed=(seed, _DATA, n, k)))
    model = TrainableMlp([n + k, DEFAULT_HIDDEN_WIDTH, n], ["relu", "identity"], seed=(seed, _INIT, n, k))
    _fit(model, data, "mse", epochs, f"n={n} k={k} seed={seed}" if progress else None)
    return {"accuracy": _argmax_accuracy(forward_batch(model.to_network(), data.inputs), data.labels)}


def _binary_transition_seed(seed, n, epochs, progress) -> dict:
    data = gen_binary_transition_dataset(make_mod_counter_dfa(n))
    dims = [data.inputs.shape[1], DEFAULT_HIDDEN_WIDTH, data.labels.shape[1]]
    model = TrainableMlp(dims, ["relu", "sigmoid"], seed=(seed, _INIT, n))
    _fit(model, data, "bce", epochs, f"n={n} seed={seed}" if progress else None)
    return {"accuracy": _binary_accuracy(forward_batch(model.to_network(), data.inputs), data.labels)}


def _anbn_seed(seed, train_range, test_range, samples, epochs, progress) -> dict:
    train_data, test_data = (
        gen_anbn_dataset(span, samples, seed=(seed, tag))
        for span, tag in ((train_range, _DATA), (test_range, _TEST))
    )
    dims = [train_data.inputs.shape[1], DEFAULT_HIDDEN_WIDTH, 1]
    model = TrainableMlp(dims, ["relu", "sigmoid"], seed=(seed, _INIT))
    _fit(model, train_data, "bce", epochs, f"seed={seed}" if progress else None)
    held_out, trained = (
        _binary_accuracy(forward_batch(model.to_network(), data.inputs), data.labels)
        for data in (test_data, train_data)
    )
    return {"held_out_accuracy": held_out, "train_accuracy": trained}


def _class_distances(embeddings: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(max intra-class distance, min inter-class distance) over the batch."""
    diffs = np.linalg.norm(embeddings[:, None, :] - embeddings[None, :, :], axis=2)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, True)
    intra = diffs[same & ~np.eye(len(labels), dtype=bool)]
    inter = diffs[~same]
    intra_max = float(intra.max()) if intra.size else 0.0
    inter_min = float(inter.min()) if inter.size else float("inf")
    return intra_max, inter_min


def _centroid_distance(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Mean pairwise Euclidean distance between per-class centroids."""
    classes = np.unique(labels)
    centroids = np.stack([embeddings[labels == c].mean(axis=0) for c in classes])
    if len(classes) < 2:
        return 0.0
    dists = [
        float(np.linalg.norm(centroids[i] - centroids[j]))
        for i in range(len(classes))
        for j in range(i + 1, len(classes))
    ]
    return float(np.mean(dists))


def _compiled_accuracy(net: NetworkSpec, data: Dataset) -> float:
    """Share of rows whose label the compiled network reproduces exactly."""
    return float((forward_batch(net, data.inputs) == data.labels).all(axis=1).mean())


# ---------------------------------------------------------------------------
# sweep driver


def _map_jobs(worker: Callable, seeds: Sequence[int], jobs: int) -> list:
    if jobs <= 1:
        return [worker(seed) for seed in seeds]
    # a pool forks all of its workers at the first submit, so start no more than there are seeds
    with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
        return list(pool.map(worker, seeds))


def _sweep(
    name: str,
    worker: Callable[..., dict],
    grid: Iterable[tuple[dict, dict]],
    seeds: Sequence[int],
    jobs: int,
    progress: bool,
    counterpart: Callable[[dict], dict] | None = None,
) -> list[ExperimentReport]:
    """One report per grid point: ``worker`` over every seed, plus compiled extras.

    Each grid point is (config, params): the config its report carries and the
    keyword arguments ``worker`` takes at that point. ``counterpart(config)``
    returns the report's extras.
    """
    reports = []
    for config, params in grid:
        start = time.perf_counter()
        rows = _map_jobs(partial(worker, progress=progress, **params), seeds, jobs)
        metrics = {metric: [row[metric] for row in rows] for metric in rows[0]} if rows else {}
        extras = counterpart(config) if counterpart else None
        runtime = time.perf_counter() - start
        reports.append(_make_report(name, config, seeds, metrics, extras, runtime))
    return reports


# ---------------------------------------------------------------------------
# experiment protocols


def run_theorem1(
    T_values: Iterable[int] = range(1, 11),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    epochs: int = 200,
    jobs: int = 1,
    progress: bool = False,
) -> list[ExperimentReport]:
    """Trained and compiled fixed-length acceptors for the parity automaton.

    Per length T: train the unrolled architecture on uniformly sampled
    strings and report eval-split accuracy; alongside, compile the exact
    acceptor and verify it on all 2^T strings. The eval split is not unseen
    data: at seed 0 every eval string also occurs in the train split for
    T <= 7, 99.5% at T=8 and 79.8% at T=10.
    """
    dfa = make_parity_dfa()

    def counterpart(config: dict) -> dict:
        verification = verify_exact(build_unrolled_acceptor(dfa, config["T"]), dfa, config["T"])
        total = verification.total_strings
        return {
            "constructive_accuracy": (total - verification.mismatch_count) / total,
            "constructive_exact": verification.exact,
        }

    sizes = dict(samples=sample_count, epochs=epochs)
    config = dict(**sizes, hidden_width=DEFAULT_HIDDEN_WIDTH)
    grid = [(dict(dfa="parity", T=T, **config), dict(length=T)) for T in T_values]
    worker = partial(_acceptor_seed, **sizes)
    return _sweep("unrolled-acceptor", worker, grid, seeds, jobs, progress, counterpart)


def run_lemma1(
    n_values: Iterable[int] = range(1, 9),
    k_values: Iterable[int] = range(1, 4),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    epochs: int = 200,
    jobs: int = 1,
    progress: bool = False,
) -> list[ExperimentReport]:
    """One-step transition learning on one-hot pairs, over an (n, k) grid.

    The dataset is the full transition table of a seeded random automaton;
    accuracy is the fraction of argmax-correct successor states. The compiled
    lookup layer is checked exhaustively alongside.
    """

    def counterpart(config: dict) -> dict:
        n, k = config["n"], config["k"]
        dfas = [random_dfa(n, k, seed=(s, _DATA, n, k)) for s in seeds]
        accuracies = [
            _compiled_accuracy(build_transition_layer(dfa), gen_transition_dataset(dfa))
            for dfa in dfas
        ]
        return {"constructive_accuracy": min(accuracies)}

    config = dict(epochs=epochs, hidden_width=DEFAULT_HIDDEN_WIDTH)
    grid = [(dict(n=n, k=k, **config), dict(n=n, k=k)) for n in n_values for k in k_values]
    worker = partial(_transition_seed, epochs=epochs)
    return _sweep("transition-lookup", worker, grid, seeds, jobs, progress, counterpart)


def run_lemma2(
    n_values: Iterable[int] = (2, 4, 8, 16, 32),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    epochs: int = 200,
    jobs: int = 1,
    progress: bool = False,
) -> list[ExperimentReport]:
    """Binary-coded transition learning for mod-n counters.

    Sigmoid outputs are rounded at inference; a sample counts as correct only
    when every output bit matches. The compiled threshold circuit for the
    same automaton is evaluated alongside (always exact).
    """

    def counterpart(config: dict) -> dict:
        dfa = make_mod_counter_dfa(config["n"])
        net, data = build_binary_threshold_network(dfa), gen_binary_transition_dataset(dfa)
        return {"constructive_accuracy": _compiled_accuracy(net, data)}

    config = dict(epochs=epochs, hidden_width=DEFAULT_HIDDEN_WIDTH)
    grid = [(dict(n=n, k=2, **config), dict(n=n)) for n in n_values]
    worker = partial(_binary_transition_seed, epochs=epochs)
    return _sweep("binary-transition", worker, grid, seeds, jobs, progress, counterpart)


def run_theorem2(
    T_values: Iterable[int] = range(1, 11),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    epochs: int = 200,
    jobs: int = 1,
    progress: bool = False,
) -> list[ExperimentReport]:
    """State-class embeddings from unrolled networks, per sequence length.

    The network embeds the carried state and a linear classifier on the
    embedding predicts the reached state; accuracy is on the eval split,
    which repeats train strings as in ``run_theorem1``. Per-seed
    class-separation distances (max intra, min inter) let callers check that
    same-state strings embed closer than different-state ones whenever the
    classifier is perfect.
    """
    sizes = dict(samples=sample_count, epochs=epochs, embedding_dim=2)
    grid = [
        (dict(dfa="parity", T=T, **sizes), dict(length=T, key=(T,), label=f"T={T}"))
        for T in T_values
    ]
    worker = partial(
        _embedding_seed, dfa=make_parity_dfa(), state_width=DEFAULT_STATE_WIDTH, centroid=False, **sizes
    )
    return _sweep("equivalence-embedding", worker, grid, seeds, jobs, progress)


def run_corollary21(
    n_values: Iterable[int] = (2, 4, 8),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    length: int = 10,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    epochs: int = 200,
    jobs: int = 1,
    progress: bool = False,
) -> list[ExperimentReport]:
    """Compressed state embeddings (ceil(log2 n) dims) for mod-n counters.

    Reports classifier accuracy on the compressed embedding and the mean
    pairwise distance between class centroids in the compressed space. The
    carried state is narrower here than in the other unrolled runs: squeezing
    through a ceil(log2 n)-dim code is the point of the protocol, and with
    the narrower carrier the scalar-code case (n=2) is markedly harder than
    the wider ones, which is the regime this suite characterizes.
    """
    sizes = dict(samples=sample_count, epochs=epochs)
    grid = []
    for n in n_values:
        d = bits_for_state_count(n)
        params = dict(dfa=make_mod_counter_dfa(n), key=(n,), label=f"n={n}", embedding_dim=d)
        grid.append((dict(n=n, d=d, T=length, **sizes), params))
    worker = partial(_embedding_seed, length=length, state_width=20, centroid=True, **sizes)
    return _sweep("compressed-embedding", worker, grid, seeds, jobs, progress)


def run_theorem3(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    epochs: int = 200,
    jobs: int = 1,
    progress: bool = False,
) -> ExperimentReport:
    """Negative control: fixed-size MLP on the a^n b^n counting task.

    Trained on short instances, evaluated on longer unseen ones; the expected
    outcome is chance-level held-out accuracy, certifying that this
    architecture class does not generalize counting.
    """
    sizes = dict(train_range=(1, 5), test_range=(6, 10), samples=sample_count, epochs=epochs)
    config = dict(**sizes, max_len=20, pad_mode="token")  # gen_anbn_dataset's padding
    worker = partial(_anbn_seed, **sizes)
    return _sweep("anbn-negative-control", worker, [(config, {})], seeds, jobs, progress)[0]


CHANCE_BAND = (0.40, 0.65)


def run_corollary31(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    max_exact_length: int = 12,
    counter_sizes: Iterable[int] = (2, 4, 8, 16, 32),
    jobs: int = 1,
    progress: bool = False,
) -> ExperimentReport:
    """Composite boundary check: exactness on regular, failure on non-regular.

    PASS requires (a) compiled acceptors to match their automata on every
    string up to ``max_exact_length`` for the parity and counter families,
    and (b) the counting-task held-out accuracy to sit in the chance band.
    """
    start = time.perf_counter()
    families = [("parity", make_parity_dfa())] + [
        (f"mod{n}", make_mod_counter_dfa(n)) for n in counter_sizes
    ]
    mismatch_total = 0
    checked = 0
    for _, dfa in families:
        for length in range(max_exact_length + 1):
            report = verify_exact(build_unrolled_acceptor(dfa, length), dfa, length)
            mismatch_total += report.mismatch_count
            checked += report.total_strings
    exactness_pass = mismatch_total == 0

    negative = run_theorem3(seeds=seeds, jobs=jobs, progress=progress)
    held_out_mean = summarize(negative.metrics["held_out_accuracy"]).mean
    negative_pass = CHANCE_BAND[0] <= held_out_mean <= CHANCE_BAND[1]

    return _make_report(
        name="expressivity-boundary",
        config={
            "max_exact_length": max_exact_length,
            "families": [name for name, _ in families],
            "chance_band": CHANCE_BAND,
        },
        seeds=seeds,
        metrics={"held_out_accuracy": negative.metrics["held_out_accuracy"]},
        extras={
            "strings_checked": checked,
            "mismatches": mismatch_total,
            "exactness_pass": exactness_pass,
            "held_out_mean": held_out_mean,
            "negative_result_pass": negative_pass,
            "verdict": "PASS" if (exactness_pass and negative_pass) else "FAIL",
        },
        runtime_seconds=time.perf_counter() - start,
    )
