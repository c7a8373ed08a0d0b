"""Classical tasks and classical information cost.

Covers function channels (measure-and-prepare maps for two-party
functions), the average failure probability of a quantum protocol on a
classical task, and the information cost of classical protocols in both
its transcript form and the message-local rewriting, evaluated by exact
joint-table arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np
from scipy.special import xlogy

from .hilbert import (
    ALICE,
    BOB,
    DEFAULT_MAX_DIM,
    TOL_PSD,
    ChannelOp,
    Register,
    Stage,
    UnitaryOp,
    _prod,
    _zero_state,
    classical_state,
)
from .protocol import ProtocolSpec, _output_regs, run

LOG2 = np.log(2.0)

#: Refuse to materialize joint tables larger than this.
MAX_TABLE_SIZE = 10 ** 6


def _int_table(table, name: str) -> np.ndarray:
    """A function table as an int array, refusing entries that are not
    finite integer values (a cast would truncate 1.9 to 1)."""
    arr = np.asarray(table)
    if arr.dtype.kind not in "biu" and not (
        arr.dtype.kind == "f" and np.isfinite(arr).all() and (arr == np.trunc(arr)).all()
    ):
        raise ValueError(f"{name} entries must be finite integer values")
    return arr.astype(int)


@dataclass(frozen=True)
class ClassicalFunctionPair:
    """Total output tables for both parties over a finite input grid."""

    f_a: np.ndarray
    f_b: np.ndarray
    a_size: int
    b_size: int

    def __post_init__(self):
        fa = _int_table(self.f_a, "f_a")
        fb = _int_table(self.f_b, "f_b")
        if fa.ndim != 2 or fa.shape != fb.shape:
            raise ValueError("function tables must be 2-D and share a shape")
        if fa.min() < 0 or fa.max() >= self.a_size:
            raise ValueError(f"f_a values must lie in [0, {self.a_size})")
        if fb.min() < 0 or fb.max() >= self.b_size:
            raise ValueError(f"f_b values must lie in [0, {self.b_size})")
        object.__setattr__(self, "f_a", fa)
        object.__setattr__(self, "f_b", fb)

    @property
    def x_size(self) -> int:
        return self.f_a.shape[0]

    @property
    def y_size(self) -> int:
        return self.f_a.shape[1]


def and_pair() -> ClassicalFunctionPair:
    """Both parties output the AND of their two bits."""
    t = np.array([[0, 0], [0, 1]])
    return ClassicalFunctionPair(t, t, 2, 2)


def disjointness_pair(n: int) -> ClassicalFunctionPair:
    """Both parties output NOT(OR_i x_i AND y_i) on n-bit strings."""
    size = 2 ** n
    t = np.zeros((size, size), dtype=int)
    for x in range(size):
        for y in range(size):
            t[x, y] = 0 if (x & y) else 1
    return ClassicalFunctionPair(t, t, 2, 2)


def _counter_permutation(fp: ClassicalFunctionPair, out_order: str) -> np.ndarray:
    """Index map from |x, y, a, b> to the digits x, y, a + f_a(x, y) mod |A|
    and b + f_b(x, y) mod |B|, laid out in the order ``out_order`` names them."""
    sizes = dict(zip("xyab", fp.f_a.shape + (fp.a_size, fp.b_size)))
    xi, yi, ai, bi = np.indices(tuple(sizes.values())).reshape(4, -1)
    digits = {
        "x": xi,
        "y": yi,
        "a": (ai + fp.f_a[xi, yi]) % fp.a_size,
        "b": (bi + fp.f_b[xi, yi]) % fp.b_size,
    }
    return np.ravel_multi_index([digits[k] for k in out_order], [sizes[k] for k in out_order])


def function_channel(fp: ClassicalFunctionPair) -> ChannelOp:
    """Channel mapping basis input (x, y) on ``A_in``, ``B_in`` to basis
    output (f_a, f_b) on ``A_out``, ``B_out``; ``renamed`` relabels its legs.

    The dilation is a permutation: ancilla counters pick up the function
    values mod the output alphabet while the inputs move to environment
    registers, so tracing the environment dephases superposed inputs.
    """
    x, y, a, b = fp.x_size, fp.y_size, fp.a_size, fp.b_size
    in_regs = (Register("A_in", x), Register("B_in", y))
    anc_regs = (Register("Fa", a), Register("Fb", b))
    out_regs = (Register("A_out", a), Register("B_out", b))
    env_regs = (Register("A_in~env", x), Register("B_in~env", y))
    dil = UnitaryOp.permutation(
        _counter_permutation(fp, "abxy"), in_regs + anc_regs, out_regs + env_regs
    )
    return ChannelOp(
        in_regs, out_regs, _zero_state(anc_regs, BOB), dil, ("A_in~env", "B_in~env")
    )


def failure_probability(
    p: ProtocolSpec,
    fp: ClassicalFunctionPair,
    mu: np.ndarray,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> float:
    """Average probability that measured outputs disagree with the functions.

    Runs the protocol on the classical input distribution, measures both
    output blocks in the computational basis, and averages the error over
    the input distribution carried by the purifying reference.
    """
    mu = np.asarray(mu, dtype=float)
    d_a = _prod(r.dim for r in p.alice_in)
    d_b = _prod(r.dim for r in p.bob_in)
    if mu.shape != (d_a, d_b):
        raise ValueError(f"distribution shape {mu.shape} does not match inputs {(d_a, d_b)}")
    d_aout = _prod(r.dim for r in _output_regs(p, p.alice_out))
    d_bout = _prod(r.dim for r in _output_regs(p, p.bob_out))
    if (d_aout, d_bout) != (fp.a_size, fp.b_size):
        raise ValueError(
            f"protocol output dimensions {(d_aout, d_bout)} do not match the "
            f"function alphabets {(fp.a_size, fp.b_size)}"
        )
    specs = [(r.name, r.dim, ALICE) for r in p.alice_in] + [
        (r.name, r.dim, BOB) for r in p.bob_in
    ]
    rho = classical_state(mu.reshape(-1), specs)
    output = run(p, rho, max_dim=max_dim).output
    # the output keeps Alice's outputs, Bob's outputs, then the reference:
    # the input's canonical purifier, as run gives every other register a party
    # or tags it in flight
    marg = np.diag(output.matrix).real.reshape(d_aout, d_bout, -1)
    # the reference enumerates the support of mu in diagonal order
    support_points = np.nonzero(mu.reshape(-1) > TOL_PSD)[0]
    right = np.zeros(marg.shape, dtype=bool)
    for k, z in enumerate(support_points):
        xi, yi = divmod(int(z), d_b)
        right[int(fp.f_a[xi, yi]), int(fp.f_b[xi, yi]), k] = True
    # the weight on wrong outputs, summed as it is: one minus the weight on
    # right outputs would leave the rounding of the input's normalization
    return float(max(0.0, min(1.0, marg[~right].sum())))


# ---------------------------------------------------------------------------
# Classical protocols and information cost
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalProtocol:
    """Message kernels over finite alphabets with public randomness.

    Kernel ``i`` has axes (speaker input, previous messages..., shared
    randomness, message i); Alice speaks on odd messages, Bob on even.
    """

    x_size: int
    y_size: int
    r_probs: np.ndarray
    kernels: tuple[np.ndarray, ...]

    def __post_init__(self):
        r = np.asarray(self.r_probs, dtype=float)
        if r.ndim != 1 or not np.all(r >= 0) or abs(r.sum() - 1.0) > 1e-9:
            raise ValueError("shared randomness must be a probability vector")
        object.__setattr__(self, "r_probs", r)
        kerns = []
        sizes: list[int] = []
        for i, k in enumerate(self.kernels, start=1):
            k = np.asarray(k, dtype=float)
            speaker = self.x_size if i % 2 == 1 else self.y_size
            want = (speaker, *sizes, r.size)
            if k.shape[:-1] != want:
                raise ValueError(
                    f"kernel {i} has shape {k.shape}, expected {want} + (m_{i},)"
                )
            if not np.all(k >= 0):
                raise ValueError(f"kernel {i} has negative or NaN entries")
            row_sums = k.sum(axis=-1)
            if np.max(np.abs(row_sums - 1.0)) > 1e-12:
                raise ValueError(f"kernel {i} rows are not normalized within 1e-12")
            sizes.append(k.shape[-1])
            kerns.append(k)
        object.__setattr__(self, "kernels", tuple(kerns))

    @property
    def num_messages(self) -> int:
        return len(self.kernels)

    @property
    def message_sizes(self) -> tuple[int, ...]:
        return tuple(k.shape[-1] for k in self.kernels)


_LETTERS = "abcdefghijklmnop"


def joint_distribution(cp: ClassicalProtocol, mu: np.ndarray) -> np.ndarray:
    """Exact joint table over (x, y, r, m_1, ..., m_N)."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (cp.x_size, cp.y_size):
        raise ValueError(
            f"distribution shape {mu.shape} does not match ({cp.x_size}, {cp.y_size})"
        )
    size = mu.size * cp.r_probs.size * _prod(cp.message_sizes)
    if size > MAX_TABLE_SIZE:
        raise ValueError(f"joint table would have {size} entries (limit {MAX_TABLE_SIZE})")
    if cp.num_messages > len(_LETTERS):
        raise ValueError("too many messages")
    joint = mu[:, :, None] * cp.r_probs[None, None, :]
    for i, k in enumerate(cp.kernels, start=1):
        msgs = _LETTERS[: i - 1]
        speaker = "x" if i % 2 == 1 else "y"
        joint_sub = "xyz" + msgs
        kern_sub = speaker + msgs + "z" + _LETTERS[i - 1]
        out_sub = "xyz" + msgs + _LETTERS[i - 1]
        joint = np.einsum(f"{joint_sub},{kern_sub}->{out_sub}", joint, k)
    return joint


def _subset_entropy(joint: np.ndarray, axes: frozenset[int], memo: dict) -> float:
    if axes in memo:
        return memo[axes]
    drop = tuple(i for i in range(joint.ndim) if i not in axes)
    marg = joint.sum(axis=drop) if drop else joint
    p = marg.reshape(-1)
    h = float(-np.sum(xlogy(p, p)) / LOG2)
    memo[axes] = h
    return h


def _cmi_axes(joint, a: set[int], b: set[int], c: set[int], memo) -> float:
    """I(A;B|C) with literal-copy aliasing handled by set union."""
    h = lambda s: _subset_entropy(joint, frozenset(s), memo)
    return h(a | c) + h(b | c) - h(c) - h(a | b | c)


def classical_ic(cp: ClassicalProtocol, mu: np.ndarray) -> float:
    """Transcript information cost: I(T;Y|X) + I(T;X|Y), T = (R, messages)."""
    joint = joint_distribution(cp, mu)
    memo: dict = {}
    transcript = set(range(2, joint.ndim))  # randomness + all messages
    x, y = {0}, {1}
    return _cmi_axes(joint, transcript, y, x, memo) + _cmi_axes(
        joint, transcript, x, y, memo
    )


def classical_ic_prime(cp: ClassicalProtocol, mu: np.ndarray) -> float:
    """Message-local information cost.

    Message i contributes the conditional mutual information between the
    receiver's copy of the message and the speaker's input, copies of the
    earlier messages and randomness, conditioned on the receiver's input
    and their own copies. Copies equal their originals, so the terms are
    evaluated by variable aliasing on the exact joint table.
    """
    joint = joint_distribution(cp, mu)
    memo: dict = {}
    total = 0.0
    for i in range(1, cp.num_messages + 1):
        m_i = {2 + i}
        earlier = set(range(3, 2 + i))  # message axes 1..i-1
        rand = {2}
        speaker_in = {0} if i % 2 == 1 else {1}
        receiver_in = {1} if i % 2 == 1 else {0}
        total += _cmi_axes(
            joint, m_i, speaker_in | earlier | rand, receiver_in | earlier | rand, memo
        )
    return total


def classical_cc(cp: ClassicalProtocol, mu: np.ndarray) -> float:
    """Transcript length in bits under fixed-length per-message encoding.

    Each message symbol costs ceil(log2 alphabet) bits, so the maximum
    over non-zero-probability transcripts equals their average; it is 0
    when no transcript has positive probability.
    """
    bits = sum(math.ceil(math.log2(s)) if s > 1 else 0 for s in cp.message_sizes)
    joint = joint_distribution(cp, mu)
    return float(bits) if joint.max() > 0 else 0.0


# ---------------------------------------------------------------------------
# Reference protocols for classical tasks
# ---------------------------------------------------------------------------


def exact_protocol_for(fp: ClassicalFunctionPair) -> ProtocolSpec:
    """Two-message protocol computing a function pair exactly.

    Alice ships her input; Bob evaluates both outputs reversibly into
    ancilla counters from his pre-shared zero registers and returns
    Alice's output register.
    """
    x, y, a, b = fp.x_size, fp.y_size, fp.a_size, fp.b_size
    regs = {
        "A_in": Register("A_in", x),
        "B_in": Register("B_in", y),
        "Fa": Register("Fa", a),
        "Fb": Register("Fb", b),
    }
    preshared = _zero_state((regs["Fa"], regs["Fb"]), BOB)
    u1 = UnitaryOp.rename((regs["A_in"],), (Register("C_1", x),))
    u2 = UnitaryOp.permutation(
        _counter_permutation(fp, "xyab"),
        (Register("C_1", x), regs["B_in"], regs["Fa"], regs["Fb"]),
        (
            Register("Xc", x),
            Register("Yc", y),
            Register("C_2", a),
            Register("B_out", b),
        ),
    )
    u3 = UnitaryOp.rename((Register("C_2", a),), (Register("A_out", a),))
    return ProtocolSpec(
        num_messages=2,
        preshared=preshared,
        unitaries=(u1, u2, u3),
        alice_in=(regs["A_in"],),
        bob_in=(regs["B_in"],),
        messages=(("C_1",), ("C_2",)),
        alice_out=("A_out",),
        bob_out=("B_out",),
        alice_scratch=(),
        bob_scratch=("Xc", "Yc"),
    )


def noisy_protocol_for(fp: ClassicalFunctionPair, angle: float) -> ProtocolSpec:
    """Like :func:`exact_protocol_for` but Bob rotates both output registers.

    Requires binary output alphabets; the rotation by ``angle`` makes each
    measured output wrong with probability sin(angle)^2.
    """
    if fp.a_size != 2 or fp.b_size != 2:
        raise ValueError("noisy protocol requires binary output alphabets")
    base = exact_protocol_for(fp)
    rot = np.array(
        [
            [math.cos(angle), -math.sin(angle)],
            [math.sin(angle), math.cos(angle)],
        ]
    )
    u1, u2, u3 = base.unitaries
    noisy_u2 = UnitaryOp(
        u2.in_regs,
        u2.out_regs,
        u2.stages
        + (
            Stage(rot, ("C_2",), (Register("C_2", 2),)),
            Stage(rot, ("B_out",), (Register("B_out", 2),)),
        ),
    )
    return replace(base, unitaries=(u1, noisy_u2, u3))
