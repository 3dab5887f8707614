"""Compile an automaton into an exact acceptor network and verify it.

The compiled network reads a whole fixed-length string at once (concatenated
one-hot symbol blocks) and outputs exactly 1 or 0 according to acceptance.
Exactness is not approximate: the verifier enumerates every string of the
given length and finds zero mismatches. We then corrupt one weight to show
the verifier producing a witness.
"""

from dfanet import (
    build_unrolled_acceptor,
    encode_string,
    forward,
    make_parity_dfa,
    verify_exact,
)
from dfanet.network import LayerSpec, NetworkSpec

parity = make_parity_dfa()

for length in (0, 3, 7, 12):
    net = build_unrolled_acceptor(parity, length)
    report = verify_exact(net, parity, length)
    print(
        f"T={length:2d}: depth {net.metadata['depth']:2d}, "
        f"{net.parameter_count:5d} parameters, "
        f"{report.total_strings:5d}/{report.total_strings} strings exact={report.exact}"
    )

net = build_unrolled_acceptor(parity, 4)
print("\n'0110' ->", forward(net, encode_string([0, 1, 1, 0], 2).data), "(even number of ones)")
print("'0111' ->", forward(net, encode_string([0, 1, 1, 1], 2).data), "(odd)")

# sabotage: invert the accepting indicator in the readout
readout = net.layers[-1]
corrupted = NetworkSpec(
    layers=net.layers[:-1]
    + (
        LayerSpec(
            weights=1.0 - readout.weights,
            bias=readout.bias,
            activation="step",
            thresholds=readout.thresholds,
            strict=True,
        ),
    ),
    input_dim=net.input_dim,
    output_dim=net.output_dim,
)
report = verify_exact(corrupted, parity, 4)
witness, expected, got = report.witness
print(f"\ncorrupted readout: exact={report.exact}, "
      f"first witness {''.join(map(str, witness))!r} "
      f"(automaton says {expected}, network says {got})")
