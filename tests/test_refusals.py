"""Refusals: each malformed argument raises its own error with its own message."""

import numpy as np
import pytest

from qiclab import (
    ALICE,
    BOB,
    ChannelOp,
    QuantumTask,
    Register,
    RegisterSystem,
    StateValidationError,
    StateVector,
    UnitaryOp,
    chain_unitaries,
    channel_from_kraus,
    classical_state,
    run,
)
from qiclab.classical import and_pair, exact_protocol_for, function_channel

MU = np.array([[0.4, 0.3], [0.2, 0.1]])


def _and_input():
    return classical_state(MU, [("A_in", 2, ALICE), ("B_in", 2, BOB)])


def _task(epsilon):
    return lambda: QuantumTask(function_channel(and_pair()), _and_input(), epsilon)


def _basis_state(specs):
    system = RegisterSystem.make(specs)
    amps = np.zeros(system.total_dim, dtype=complex)
    amps[0] = 1.0
    return StateVector(system, amps)


def _run_on(make_input):
    return lambda: run(exact_protocol_for(and_pair()), make_input())


def _chain_mismatch():
    first = UnitaryOp.rename((Register("a", 2),), (Register("b", 2),))
    second = UnitaryOp.rename((Register("b", 3),), (Register("c", 3),))
    return chain_unitaries(first, second)


# a reference register that takes the name of the protocol's first output
TAKEN = exact_protocol_for(and_pair()).unitaries[0].out_names[0]


def _colliding_reference():
    return _basis_state([("A_in", 2, ALICE), ("B_in", 2, BOB), (TAKEN, 2, BOB)])


REFUSALS = {
    "task epsilon below 0": (_task(-0.1), ValueError, r"epsilon must lie in \[0, 2\], got -0.1"),
    "task epsilon above 2": (_task(2.5), ValueError, r"epsilon must lie in \[0, 2\], got 2.5"),
    "task epsilon nan": (_task(float("nan")), ValueError, r"epsilon must lie in \[0, 2\], got nan"),
    "chain dimension mismatch": (
        _chain_mismatch, ValueError, r"dimension mismatch on 'b' when chaining"
    ),
    "input register set": (
        _run_on(lambda: classical_state(MU, [("A_in", 2, ALICE), ("X", 2, BOB)])),
        ValueError,
        r"input registers \{A_in:2, X:2\} do not match protocol inputs \{A_in:2, B_in:2\}",
    ),
    "input register dimension": (
        _run_on(lambda: _basis_state([("A_in", 3, ALICE), ("B_in", 2, BOB)])),
        ValueError,
        r"input register 'A_in' has dim 3, expected 2",
    ),
    "input reference collision": (
        _run_on(_colliding_reference),
        ValueError,
        rf"input reference registers collide with protocol registers: \['{TAKEN}'\]",
    ),
    "input not a state": (
        _run_on(lambda: MU),
        TypeError,
        r"cannot run a protocol on ndarray",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_names_its_fault(case):
    make, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        make()


def test_the_refusals_are_distinct_cases():
    # a task at the bounds and an input that is a state run as expected
    QuantumTask(function_channel(and_pair()), _and_input(), 0.0)
    QuantumTask(function_channel(and_pair()), _and_input(), 2.0)
    assert run(exact_protocol_for(and_pair()), _and_input()).output is not None


# The Choi matrix of a unitary dilation is d M M^dagger, positive and trace
# preserving by construction, so ``check`` is handed each faulty Choi matrix
# directly: the swap (the transpose map's Choi matrix, eigenvalue -1) and
# twice the identity channel's.
SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)


@pytest.mark.parametrize(
    "choi, message",
    [
        (lambda ch: SWAP, r"Choi matrix not PSD: eigenvalue -1"),
        (lambda ch: 2 * ch.choi_matrix(), r"channel is not trace preserving"),
    ],
    ids=["not-psd", "not-trace-preserving"],
)
def test_channel_check_refuses_a_faulty_choi_matrix(monkeypatch, choi, message):
    ch = channel_from_kraus([np.eye(2)], [("a", 2)], [("b", 2)])
    ch.check()
    faulty = choi(ch)
    monkeypatch.setattr(ChannelOp, "choi_matrix", lambda self: faulty)
    with pytest.raises(StateValidationError, match=message):
        ch.check()
