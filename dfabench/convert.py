"""Conversion between the oracles' plain automata and dfanet's ``Dfa``.

Only ``dfanet.automata`` is imported, so train-protocols, which never imports
``dfanet.cli``, does not pay for it in its set-up.
"""

from __future__ import annotations

import numpy as np

from dfanet.automata import Dfa

import oracles


def to_dfa(a: oracles.Automaton) -> Dfa:
    return Dfa(state_count=a.states, alphabet_size=a.symbols, transitions=np.array(a.rows()),
               start_state=a.start, accepting=a.accepting)


def from_dfa(dfa: Dfa) -> oracles.Automaton:
    return oracles.Automaton.from_rows(dfa.transitions.tolist(), dfa.start_state, dfa.accepting)
