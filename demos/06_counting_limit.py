"""Where training stops generalising: counting in a^n b^n.

A width-32 MLP trained on a^n b^n membership for n in [1, 5] memorizes the
training range, then scores near chance on n in [6, 10]: it has not learned to
compare the two counts. This is a limit of what training found, not of the
architecture. Padded to 20 symbols the language is finite, hence regular, and
a compiled acceptor of its DFA labels both ranges exactly. The paper's
boundary is about a^n b^n at unbounded length, where no automaton, and so no
fixed network, suffices.
"""

import numpy as np

from dfanet import TrainableMlp, TrainConfig, train
from dfanet.experiments import gen_anbn_dataset
from dfanet.network import forward_batch

train_data = gen_anbn_dataset((1, 5), count=2000, max_len=20, seed=0)
test_data = gen_anbn_dataset((6, 10), count=2000, max_len=20, seed=1)

model = TrainableMlp([train_data.inputs.shape[1], 32, 1], ["relu", "sigmoid"], seed=2)
train(model, train_data.inputs, train_data.labels, TrainConfig(epochs=200, loss="bce"))


def accuracy(data):
    predictions = np.floor(forward_batch(model.to_network(), data.inputs) + 0.5)
    return float((predictions == data.labels).mean())


print(f"training range  n in [1, 5]:  accuracy {accuracy(train_data):.4f} (memorized)")
print(f"held-out range  n in [6, 10]: accuracy {accuracy(test_data):.4f} (chance is 0.5)")
