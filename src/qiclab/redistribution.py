"""Rate calculators for moving a register between parties of a pure state.

For a pure state on registers A (sender side), C (the register changing
hands), B (receiver side) and R (reference), the achievable region is a
quantum communication rate above half the conditional mutual information
I(C;R|B), with net entanglement consumption half of I(C;A) - I(C;B)
(generation when negative). Applied per message of a protocol this gives
a communication budget matching the protocol's information cost plus an
arbitrarily small overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .hilbert import DEFAULT_MAX_DIM, StateVector
from .measures import cond_entropy, cond_mutual_info, mutual_info
from .protocol import ProtocolSpec, message_entropies


@dataclass(frozen=True)
class MessageRate:
    """Per-message communication and entanglement budget."""

    index: int
    q: float
    f: float


@dataclass(frozen=True)
class RateReport:
    """Single-shot redistribution rates for moving one register block.

    Communication above ``q_min`` qubits with net entanglement ``e_net``
    ebits (generation when negative); communication plus entanglement
    must exceed ``h_c_given_b``.
    """

    q_min: float
    e_net: float
    h_c_given_b: float


@dataclass(frozen=True)
class CompressionBudget:
    """Per-message communication and entanglement budget of a protocol.

    ``total_rate`` includes the even split of the overhead across
    messages plus the blocklength-rounding reserve, so it equals the
    protocol's information cost plus the full overhead.
    """

    per_message: tuple[MessageRate, ...]
    total_rate: float


def redist_rates(
    state: StateVector,
    a: Sequence[str],
    b: Sequence[str],
    c: Sequence[str],
    r: Sequence[str],
) -> RateReport:
    """Rates for sending block ``c`` from the ``a`` side to the ``b`` side.

    The four groups must partition the registers of the pure state.
    """
    if not isinstance(state, StateVector):
        raise ValueError("redistribution rates are defined on a pure global state")
    groups = list(a) + list(b) + list(c) + list(r)
    if sorted(groups) != sorted(state.system.names):
        raise ValueError(
            f"groups {sorted(groups)} do not partition the system {sorted(state.system.names)}"
        )
    q_min = 0.5 * cond_mutual_info(state, list(c), list(r), list(b))
    e_net = 0.5 * (
        mutual_info(state, list(c), list(a)) - mutual_info(state, list(c), list(b))
    )
    h = cond_entropy(state, list(c), list(b))
    return RateReport(q_min=q_min, e_net=e_net, h_c_given_b=h)


def protocol_step_rates(
    p: ProtocolSpec,
    input_state,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> list[RateReport]:
    """Single-shot redistribution rates for every message of a protocol.

    Message i is the moving block, the receiver's holding is the side
    information, the sender's remaining registers the feedback side, and
    the input's purifying registers the reference. With those four groups
    partitioning a pure state, I(C;A) - I(C;B) reduces to
    H(CRB) - H(RB) - H(B) + H(CB), so every rate reads off the message's
    entropies.
    """
    return [
        RateReport(
            q_min=e.cost,
            e_net=0.5 * (e.h_crb - e.h_rb - e.h_b + e.h_cb),
            h_c_given_b=e.h_cb - e.h_b,
        )
        for e in message_entropies(p, input_state, max_dim=max_dim)
    ]


def compression_budget(
    p: ProtocolSpec,
    input_state,
    delta: float,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> CompressionBudget:
    """Per-message rates whose total meets the information cost plus delta.

    Each message budget is its redistribution rate plus delta/(2M); the
    entanglement budget clamps generation to zero (generated entanglement
    is discarded, not reused). The reported total adds the delta/2
    blocklength reserve on top of the summed message rates, giving
    exactly the protocol's information cost plus delta.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    rates = protocol_step_rates(p, input_state, max_dim=max_dim)
    share = delta / (2 * len(rates))
    per = tuple(
        MessageRate(i, rep.q_min + share, max(0.0, rep.e_net) + share)
        for i, rep in enumerate(rates, start=1)
    )
    return CompressionBudget(per, sum(m.q for m in per) + delta / 2.0)
