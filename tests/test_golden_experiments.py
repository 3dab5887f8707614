"""Golden per-seed metrics of the seven experiment protocols.

Each digest is the sha256 of the ``repr`` of every per-seed metric of one
``run_*`` protocol, on a reduced grid: seeds (11, 12), 20 epochs, 200
samples where the protocol samples, one job, and cor31 at its defaults. A
change to training, to a dataset generator or to a protocol that moves one
bit of one seed's metric fails here; a refactor that claims bit-identical
training proves it by leaving this file alone.
"""

import hashlib

import pytest

from dfanet import experiments

SEEDS = (11, 12)
REDUCED = {"sample_count": 200, "epochs": 20}

# protocol, runner, the reduced arguments it takes
PROTOCOLS = {
    "thm1": ("run_theorem1", ("sample_count", "epochs")),
    "lemma1": ("run_lemma1", ("epochs",)),
    "lemma2": ("run_lemma2", ("epochs",)),
    "thm2": ("run_theorem2", ("sample_count", "epochs")),
    "cor21": ("run_corollary21", ("sample_count", "epochs")),
    "thm3": ("run_theorem3", ("sample_count", "epochs")),
    "cor31": ("run_corollary31", ()),
}

GOLDEN = {
    "thm1": "4bd776db6ba85cff663044341a9e24d525aaf5e240bda16770783775325b65cf",
    "lemma1": "fd403d443334a7cd509dc33eae745ff81baccdd8ee464035a15e150f781f8fd8",
    "lemma2": "5073dae3c3cb208dc8af3514d972feb50ca0cf1ad15f6f4f73a21425cdd89508",
    "thm2": "6d7f1eb4cbb4b32c8f849d4abb48d2162e88d21f73818310f5cc7265db045e13",
    "cor21": "ef679adcefca9809be2391f2b2c66470fd58c4849f5d5ebb555e665d5622cc62",
    "thm3": "0d995967274d52cc29f563aeff6de76408e3c657a38b79e1eee8ae7167c64ba9",
    "cor31": "6a544861117696e27b356e201fa9d34646be3df47091df742eee76fca04aeeb8",
}


def metrics_digest(reports) -> str:
    reports = reports if isinstance(reports, list) else [reports]
    text = repr([(repr(r.config), r.seeds, {k: [repr(v) for v in vs] for k, vs in sorted(r.metrics.items())})
                 for r in reports])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_per_seed_metrics_are_unchanged(protocol):
    runner, takes = PROTOCOLS[protocol]
    kwargs = {"seeds": SEEDS, "jobs": 1, **{name: REDUCED[name] for name in takes}}
    assert metrics_digest(getattr(experiments, runner)(**kwargs)) == GOLDEN[protocol]
