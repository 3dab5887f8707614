"""Train the unrolled architecture instead of compiling it.

Same shape as the compiled acceptor (one two-layer ReLU block per position,
sigmoid readout), but the weights start random and full-batch Adam has to
find the automaton's logic from labeled samples. On short strings it reaches
the compiled network's exactness; the compiled path is the reference.
"""

import numpy as np

from dfanet import TrainConfig, UnrolledNet, train
from dfanet.automata import make_parity_dfa
from dfanet.compiler import build_unrolled_acceptor, verify_exact
from dfanet.experiments import gen_dfa_dataset, split_dataset
from dfanet.network import forward_batch

LENGTH = 6
parity = make_parity_dfa()

data = gen_dfa_dataset(parity, LENGTH, 2000, seed=0)
train_part, eval_part = split_dataset(data, 0.8, seed=1)

model = UnrolledNet(
    state_dim=32,
    alphabet_size=2,
    length=LENGTH,
    start_state=parity.start_state,
    head_dims=[1],
    head_activations=["sigmoid"],
    seed=2,
)
trace = train(model, train_part.inputs, train_part.labels, TrainConfig(epochs=200, loss="bce"))

for epoch in (0, 10, 50, 100, 199):
    print(f"epoch {epoch:3d}: loss {trace[epoch]:.6f}")

predictions = np.floor(forward_batch(model.to_network(), eval_part.inputs) + 0.5)
accuracy = float((predictions == eval_part.labels).mean())
print(f"\ntrained accuracy on held-out strings: {accuracy:.4f}")

compiled = verify_exact(build_unrolled_acceptor(parity, LENGTH), parity, LENGTH)
print(f"compiled acceptor on all {compiled.total_strings} strings: exact={compiled.exact}")
