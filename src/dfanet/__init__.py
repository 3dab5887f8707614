"""dfanet: compile finite automata into exact feedforward networks.

The library has three layers: symbolic automata (:mod:`dfanet.automata`),
deterministic compilation passes emitting explicit network weights
(:mod:`dfanet.compiler`), and a small numpy training runtime plus experiment
harness (:mod:`dfanet.nn`, :mod:`dfanet.experiments`). File formats and the
command-line interface live in :mod:`dfanet.formats` and :mod:`dfanet.cli`.
"""

from .automata import (
    Dfa,
    NerodePartition,
    accepts,
    make_mod_counter_dfa,
    make_parity_dfa,
    minimize,
    nerode_classes,
    random_dfa,
    run,
    step,
)
from .compiler import (
    EnumerationBudgetError,
    ProjectionError,
    VerificationReport,
    build_binary_threshold_network,
    build_compressed_embedding,
    build_embedding_head,
    build_transition_layer,
    build_unrolled_acceptor,
    verify_exact,
    verify_sampled,
)
from .encodings import (
    EncodedString,
    StateEncoding,
    binary_code,
    binary_state_encoding,
    encode_string,
    encode_strings,
    one_hot,
    one_hot_state_encoding,
)
from .network import LayerSpec, NetworkSpec
from .nn import (
    AdamState,
    TrainableMlp,
    TrainConfig,
    UnrolledNet,
    adam_step,
    forward,
    forward_batch,
    loss_and_gradients,
    train,
)

__all__ = [
    "Dfa",
    "NerodePartition",
    "accepts",
    "make_mod_counter_dfa",
    "make_parity_dfa",
    "minimize",
    "nerode_classes",
    "random_dfa",
    "run",
    "step",
    "EnumerationBudgetError",
    "ProjectionError",
    "VerificationReport",
    "build_binary_threshold_network",
    "build_compressed_embedding",
    "build_embedding_head",
    "build_transition_layer",
    "build_unrolled_acceptor",
    "verify_exact",
    "verify_sampled",
    "EncodedString",
    "StateEncoding",
    "binary_code",
    "binary_state_encoding",
    "encode_string",
    "encode_strings",
    "one_hot",
    "one_hot_state_encoding",
    "LayerSpec",
    "NetworkSpec",
    "AdamState",
    "TrainableMlp",
    "TrainConfig",
    "UnrolledNet",
    "adam_step",
    "forward",
    "forward_batch",
    "loss_and_gradients",
    "train",
]

__version__ = "0.1.0"
