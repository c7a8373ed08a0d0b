"""Seeded generators for states, channels, protocols and classical protocols.

Everything is driven by a ``numpy.random.Generator`` so runs are
replayable from a single integer seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .hilbert import (
    ALICE,
    BOB,
    ChannelOp,
    DensityOperator,
    Holder,
    Register,
    RegisterSystem,
    StateVector,
    UnitaryOp,
    _dot,
    _eigh,
    _norm,
    _prod,
    channel_from_kraus,
    classical_state,
    haar_random_unitary,
)
from .protocol import ProtocolSpec, Slot, _ProtocolBuilder


def rng_from(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_state_vector(specs: Sequence[tuple[str, int, Holder]], seed) -> StateVector:
    """Haar-random pure state on the given registers."""
    rng = rng_from(seed)
    system = RegisterSystem.make(specs)
    d = system.total_dim
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(system, z / _norm(z))

def random_density_operator(
    specs: Sequence[tuple[str, int, Holder]], seed, rank: int | None = None
) -> DensityOperator:
    """Ginibre-random mixed state of the given rank (full rank by default)."""
    rng = rng_from(seed)
    system = RegisterSystem.make(specs)
    d = system.total_dim
    k = rank or d
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = _dot(g, g, trans_b=2)
    return DensityOperator(system, m / np.trace(m).real)


def random_classical_density(
    specs: Sequence[tuple[str, int, Holder]], seed
) -> DensityOperator:
    """Random diagonal (classical) state on the given registers."""
    rng = rng_from(seed)
    system = RegisterSystem.make(specs)
    p = rng.random(system.total_dim)
    return classical_state(p / p.sum(), specs)


def random_kraus_channel(
    in_regs: Sequence[tuple[str, int]],
    out_regs: Sequence[tuple[str, int]],
    n_kraus: int,
    seed,
) -> ChannelOp:
    """Random channel: Ginibre Kraus operators normalized to completeness."""
    rng = rng_from(seed)
    d_in = int(np.prod([d for _, d in in_regs]))
    d_out = int(np.prod([d for _, d in out_regs]))
    n_kraus = max(n_kraus, -(-d_in // d_out))  # completeness needs full rank
    gs = [
        rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
        for _ in range(n_kraus)
    ]
    s = sum(_dot(g, g, trans_a=2) for g in gs)
    w, v = _eigh(s, vectors=True)
    s_inv_sqrt = _dot(v * (1.0 / np.sqrt(w)), v, trans_b=2)
    ks = [_dot(g, s_inv_sqrt) for g in gs]
    return channel_from_kraus(ks, in_regs, out_regs)


def random_protocol(
    seed,
    num_messages: int = 2,
    *,
    alice_in_dims: Sequence[int] = (2,),
    bob_in_dims: Sequence[int] = (2,),
    preshared_dims: tuple[int, int] = (2, 2),
    msg_dim: int = 2,
) -> ProtocolSpec:
    """Random protocol with Haar unitaries on a power-of-two schedule.

    Message registers carry ``msg_dim`` whenever the speaker's holding
    divides by it, otherwise dimension 1. Inputs land in one slot per
    Alice/Bob register pair when the two sides agree in count.
    """
    rng = rng_from(seed)
    m = num_messages
    if m < 2 or m % 2:
        raise ValueError("num_messages must be a positive even integer")
    alice_in = tuple(Register(f"Xa{k+1}", d) for k, d in enumerate(alice_in_dims))
    bob_in = tuple(Register(f"Yb{k+1}", d) for k, d in enumerate(bob_in_dims))
    ta, tb = preshared_dims
    pres_specs = []
    if ta > 1:
        pres_specs.append(("TA", ta, ALICE))
    if tb > 1:
        pres_specs.append(("TB", tb, BOB))
    if pres_specs:
        preshared = random_state_vector(pres_specs, rng)
    else:
        preshared = StateVector(RegisterSystem((), ()), np.array([1.0], complex))

    builder = _ProtocolBuilder(preshared, alice_in, bob_in)
    for i in range(1, m + 2):
        in_regs = builder.inputs()
        d = _prod(r.dim for r in in_regs)
        u_mat = haar_random_unitary(d, rng)
        c = msg_dim if d % msg_dim == 0 else 1
        if i < m:
            out_regs = (Register(f"M{i}", d // c), Register(f"C{i}", c))
        elif i == m:
            # Bob's last unitary carries his outputs alongside the message
            rest = d // c
            d_bout = 2 if rest % 2 == 0 else 1
            out_regs = (
                Register("Bout", d_bout),
                Register("Bscr", rest // d_bout),
                Register(f"C{i}", c),
            )
        else:
            d_out = 2 if d % 2 == 0 else 1
            out_regs = (Register("Aout", d_out), Register("Ascr", d // d_out))
        builder.step(
            UnitaryOp.dense(u_mat, in_regs, out_regs), (f"C{i}",) if i <= m else None
        )
    slots = ()
    if len(alice_in) == len(bob_in) and len(alice_in) > 1:
        slots = tuple(
            Slot((a.name,), (b.name,)) for a, b in zip(alice_in, bob_in)
        )
    return builder.build(("Aout",), ("Bout",), slots)


def random_input_density(p: ProtocolSpec, seed, *, classical: bool = False, rank: int | None = None) -> DensityOperator:
    """Random input state matching a protocol's input registers."""
    specs = [(r.name, r.dim, ALICE) for r in p.alice_in] + [
        (r.name, r.dim, BOB) for r in p.bob_in
    ]
    if classical:
        return random_classical_density(specs, seed)
    return random_density_operator(specs, seed, rank=rank)


def random_classical_protocol(
    seed,
    num_messages: int | None = None,
    *,
    x_size: int = 2,
    y_size: int = 2,
    r_size: int = 2,
    max_alphabet: int = 3,
):
    """Random classical protocol with normalized kernels."""
    from .classical import ClassicalProtocol

    rng = rng_from(seed)
    n = num_messages or int(rng.integers(1, 5))
    r_probs = rng.random(r_size)
    r_probs /= r_probs.sum()
    kernels = []
    sizes: list[int] = []
    for i in range(1, n + 1):
        m = int(rng.integers(2, max_alphabet + 1))
        speaker = x_size if i % 2 == 1 else y_size
        k = rng.random((speaker, *sizes, r_size, m))
        k /= k.sum(axis=-1, keepdims=True)
        kernels.append(k)
        sizes.append(m)
    return ClassicalProtocol(x_size, y_size, r_probs, tuple(kernels))


def random_distribution(shape: Sequence[int], seed) -> np.ndarray:
    """Random probability table of the given shape."""
    rng = rng_from(seed)
    t = rng.random(tuple(shape))
    return t / t.sum()
