"""One way to rename registers: ``renamed`` on every name-carrying object."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from qiclab import (
    ALICE,
    BOB,
    Register,
    RegisterSystem,
    Stage,
    StateVector,
    UnitaryOp,
    and_average_protocol,
    classical_state,
    convex_mix,
    haar_random_unitary,
    parallel_compose,
    qic,
)
from qiclab.fuzz import (
    random_density_operator,
    random_input_density,
    random_protocol,
)


def _build(kind, seed):
    if kind == "fuzz":
        return random_protocol(seed, 2 + 2 * (seed % 3))
    if kind == "parallel":
        p1 = random_protocol(seed, 2 + 2 * (seed % 2))
        return parallel_compose(p1, random_protocol(seed + 1, 2))
    if kind == "mix":
        p1 = random_protocol(seed, 2)
        p2 = random_protocol(seed + 1, 2 + 2 * (seed % 2))
        return convex_mix(p1, p2, 0.3)
    pd = random_protocol(
        seed, 2, alice_in_dims=(2, 2), bob_in_dims=(2, 2), preshared_dims=(1, 1)
    )
    return and_average_protocol(pd, np.array([[1.0, 1.0], [1.0, 0.0]]) / 3.0, 2)


def _assert_same(a, b, where="p"):
    """Field-by-field equality, arrays compared by value."""
    assert type(a) is type(b), where
    if isinstance(a, tuple):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{k}]")
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, StateVector):
        _assert_same(a.system, b.system, f"{where}.system")
        assert (a._coords is None) == (b._coords is None), where
        for x, y in zip(a._support(), b._support()):
            assert np.array_equal(x, y), where
    elif isinstance(a, Stage):
        assert (a.in_names, a.out_regs) == (b.in_names, b.out_regs), where
        assert (a.perm is None) == (b.perm is None), where
        if a.perm is None:
            assert np.array_equal(a.matrix, b.matrix), where
        else:
            assert np.array_equal(a.perm, b.perm), where
    else:
        assert a == b, where


@settings(max_examples=30, deadline=None)
@given(
    hs.sampled_from(["fuzz", "parallel", "mix", "average"]),
    hs.integers(0, 10_000),
    hs.data(),
)
def test_round_trip_through_fresh_names(kind, seed, data):
    p = _build(kind, seed)
    names = sorted(p.all_names)
    chosen = data.draw(hs.lists(hs.sampled_from(names), unique=True))
    targets = data.draw(hs.permutations(range(len(chosen))))
    mapping = {n: f"fresh:{k}" for n, k in zip(chosen, targets)}
    inverse = {v: k for k, v in mapping.items()}
    q = p.renamed(mapping)
    assert not set(mapping) & q.all_names
    _assert_same(q.renamed(inverse), p)
    for u, v in zip(p.unitaries, q.unitaries):
        for sp, sq in zip(u.stages, v.stages):
            if sp.perm is not None:
                assert sq.perm is not None and "matrix" not in sq.__dict__
    rho = random_input_density(p, seed + 7, classical=kind == "average")
    assert qic(q, rho.renamed(mapping)) == qic(p, rho)


class TestDuplicateNames:
    """A mapping that sends two registers to one name is refused, naming it."""

    def test_register_system(self):
        sys_ = RegisterSystem.make([("a", 2, ALICE), ("b", 3, BOB)])
        with pytest.raises(ValueError, match=r"duplicate register names: \['b'\]"):
            sys_.renamed({"a": "b"})

    def test_unitary(self):
        regs = (Register("a", 2), Register("b", 2))
        u = UnitaryOp.dense(haar_random_unitary(4, 3), regs, (Register("c", 4),))
        with pytest.raises(ValueError, match=r"duplicate .*\['b'\]"):
            u.renamed({"a": "b"})
        with pytest.raises(ValueError, match=r"duplicate input register names: \['b'\]"):
            UnitaryOp(regs + (Register("b", 1),), regs + (Register("b", 1),), ())

    def test_protocol(self):
        p = random_protocol(0, 2)
        assert {"Xa1", "TA"} <= set(p.unitaries[0].in_names)
        with pytest.raises(ValueError, match=r"duplicate .*\['Xa1'\]"):
            p.renamed({"TA": "Xa1"})


def test_density_renamed_keeps_its_matrix():
    classical = classical_state(np.array([0.25, 0.75]), [("x", 2, ALICE)])
    quantum = random_density_operator([("x", 2, ALICE), ("y", 3, BOB)], 4)
    for rho in (classical, quantum):
        out = rho.renamed({"x": "z"})
        assert out.system.names[0] == "z"
        assert out.system.holders == rho.system.holders
        assert out.matrix is rho.matrix
        assert out.classical is rho.classical
