"""Where the approach stops: a^n b^n needs unbounded counting.

A fixed-size feedforward network trained on short instances of the a^n b^n
membership task memorizes them perfectly, then performs at chance on longer
unseen instances: there is no finite-state shortcut for comparing two
unbounded counts. Contrast with the regular-language demos, where compiled
networks are exact at every length.
"""

import numpy as np

from dfanet import TrainableMlp, TrainConfig, train
from dfanet.experiments import gen_anbn_dataset

train_data = gen_anbn_dataset((1, 5), count=2000, max_len=20, seed=0)
test_data = gen_anbn_dataset((6, 10), count=2000, max_len=20, seed=1)

model = TrainableMlp([train_data.inputs.shape[1], 32, 1], ["relu", "sigmoid"], seed=2)
train(model, train_data.inputs, train_data.labels, TrainConfig(epochs=200, loss="bce"))


def accuracy(data):
    predictions = np.floor(model.forward_batch(data.inputs) + 0.5)
    return float((predictions == data.labels).mean())


print(f"training range  n in [1, 5]:  accuracy {accuracy(train_data):.4f} (memorized)")
print(f"held-out range  n in [6, 10]: accuracy {accuracy(test_data):.4f} (chance is 0.5)")
