"""Register algebra: tensor structure, reductions, purifications, dilations."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from qiclab import (
    ALICE,
    BOB,
    REFERENCE,
    DensityOperator,
    Register,
    RegisterSystem,
    Stage,
    StateValidationError,
    StateVector,
    UnitaryOp,
    apply_unitary,
    canonical_classical_purification,
    channel_from_kraus,
    classical_state,
    haar_random_unitary,
    measurement_channel,
    permute,
    purify,
    reduced_density,
    tensor,
)
from qiclab import hilbert, measures
from qiclab.fuzz import random_density_operator, random_state_vector

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)


def ket(bits, names=None, holders=None):
    n = len(bits)
    names = names or [f"q{i}" for i in range(n)]
    holders = holders or [ALICE] * n
    system = RegisterSystem.make([(nm, 2, h) for nm, h in zip(names, holders)])
    amps = np.zeros(2 ** n, dtype=complex)
    idx = 0
    for b in bits:
        idx = idx * 2 + int(b)
    amps[idx] = 1.0
    return StateVector(system, amps)


def bell_state(names=("q0", "q1")):
    system = RegisterSystem.make([(names[0], 2, ALICE), (names[1], 2, BOB)])
    return StateVector(system, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


class TestTensor:
    def test_basis_product(self):
        out = tensor(ket("0", ["a"]), ket("1", ["b"]))
        assert np.array_equal(out.amplitudes, np.array([0, 1, 0, 0], dtype=complex))

    def test_identity_unitaries(self):
        u = tensor(
            UnitaryOp.rename((Register("a", 2),), (Register("a", 2),)),
            UnitaryOp.rename((Register("b", 3),), (Register("b", 3),)),
        )
        assert np.allclose(u.matrix, np.eye(6))

    def test_density_product_structure(self):
        bell = reduced_density(bell_state(), ["q0", "q1"])
        zero = reduced_density(ket("0", ["z"]), ["z"])
        prod = tensor(bell, zero)
        assert abs(np.trace(prod.matrix) - 1) < 1e-12
        back = reduced_density(prod, ["q0", "q1"])
        assert np.allclose(back.matrix, bell.matrix)

    def test_name_collision_rejected(self):
        with pytest.raises(ValueError, match="collision"):
            tensor(ket("0", ["a"]), ket("0", ["a"]))


class TestPermute:
    def test_identity_permutation_bit_identical(self):
        st = random_state_vector([("a", 2, ALICE), ("b", 3, BOB)], 0)
        out = permute(st, ["a", "b"])
        assert np.array_equal(out.amplitudes, st.amplitudes)

    def test_swap_two_qubits(self):
        out = permute(ket("01", ["a", "b"]), ["b", "a"])
        assert np.array_equal(out.amplitudes, ket("10", ["b", "a"]).amplitudes)

    def test_round_trip_exact(self):
        st = random_state_vector([("a", 2, ALICE), ("b", 3, BOB), ("c", 2, BOB)], 1)
        out = permute(permute(st, ["c", "a", "b"]), ["a", "b", "c"])
        assert np.array_equal(out.amplitudes, st.amplitudes)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            permute(ket("0", ["a"]), ["a", "a"])


class TestApplyUnitary:
    def test_bit_flip(self):
        x = UnitaryOp.dense(np.array([[0, 1], [1, 0]]), (Register("q0", 2),), (Register("q0", 2),))
        out = apply_unitary(ket("0"), x)
        assert np.allclose(out.amplitudes, ket("1").amplitudes)

    def test_bell_circuit(self):
        st = ket("00", ["q0", "q1"], [ALICE, BOB])
        st = apply_unitary(st, UnitaryOp.dense(H, (Register("q0", 2),), (Register("q0", 2),)))
        st = apply_unitary(
            st,
            UnitaryOp.dense(
                CNOT, (Register("q0", 2), Register("q1", 2)), (Register("q0", 2), Register("q1", 2))
            ),
        )
        assert np.allclose(st.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_stage_operand_order_sets_significance(self):
        # applying CNOT with in_names (b, a) makes b the control even
        # though the system stores a first
        st = ket("01", ["a", "b"], [ALICE, BOB])
        u = UnitaryOp.dense(
            CNOT, (Register("b", 2), Register("a", 2)), (Register("b", 2), Register("a", 2))
        )
        out = apply_unitary(st, u)
        out = permute(out, ["a", "b"])
        assert np.allclose(out.amplitudes, ket("11", ["a", "b"]).amplitudes)

    def test_adjoint_round_trip(self):
        rng = np.random.default_rng(7)
        st = random_state_vector([("a", 2, ALICE), ("b", 3, BOB)], rng)
        u_mat = haar_random_unitary(6, rng)
        regs = (Register("a", 2), Register("b", 3))
        u = UnitaryOp.dense(u_mat, regs, regs)
        u_dag = UnitaryOp.dense(u_mat.conj().T, regs, regs)
        out = apply_unitary(apply_unitary(st, u), u_dag)
        assert np.max(np.abs(out.amplitudes - st.amplitudes)) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            st = random_state_vector([("a", 2, ALICE), ("b", 4, BOB)], rng)
            u = UnitaryOp.dense(haar_random_unitary(4, rng), (Register("b", 4),), (Register("b", 4),))
            assert abs(apply_unitary(st, u).norm - 1.0) < 1e-12

    def test_dim_mismatch(self):
        u = UnitaryOp.rename((Register("a", 3),), (Register("a2", 3),))
        with pytest.raises(ValueError, match="dim"):
            apply_unitary(ket("0", ["a"]), u)

    def test_unknown_register(self):
        u = UnitaryOp.rename((Register("zz", 2),), (Register("zz2", 2),))
        with pytest.raises(KeyError):
            apply_unitary(ket("0", ["a"]), u)


class TestReducedDensity:
    def test_bell_half_is_maximally_mixed(self):
        rho = reduced_density(bell_state(), ["q0"])
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_product_state_factor(self):
        plus = StateVector(
            RegisterSystem.make([("p", 2, BOB)]), np.array([1, 1], dtype=complex) / math.sqrt(2)
        )
        st = tensor(ket("0", ["z"]), plus)
        rho = reduced_density(st, ["p"])
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5))

    def test_keep_all_is_projector(self):
        st = random_state_vector([("a", 2, ALICE), ("b", 2, BOB)], 5)
        rho = reduced_density(st, ["a", "b"])
        assert np.allclose(rho.matrix, np.outer(st.amplitudes, st.amplitudes.conj()))

    def test_trace_preserved_over_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dims = rng.integers(2, 4, size=3)
            st = random_state_vector(
                [("a", int(dims[0]), ALICE), ("b", int(dims[1]), BOB), ("c", int(dims[2]), BOB)],
                rng,
            )
            rho = reduced_density(st, ["a", "c"])
            assert abs(np.trace(rho.matrix).real - 1.0) < 1e-8

    def test_density_input_matches_vector_route(self):
        rng = np.random.default_rng(13)
        st = random_state_vector([("a", 2, ALICE), ("b", 3, BOB), ("c", 2, BOB)], rng)
        full = reduced_density(st, ["a", "b", "c"])
        assert np.allclose(
            reduced_density(st, ["b"]).matrix, reduced_density(full, ["b"]).matrix
        )

    def test_linearity(self):
        rng = np.random.default_rng(14)
        specs = [("a", 2, ALICE), ("b", 3, BOB)]
        r1 = random_density_operator(specs, rng)
        r2 = random_density_operator(specs, rng)
        mix = DensityOperator(r1.system, 0.3 * r1.matrix + 0.7 * r2.matrix)
        lhs = reduced_density(mix, ["a"]).matrix
        rhs = 0.3 * reduced_density(r1, ["a"]).matrix + 0.7 * reduced_density(r2, ["a"]).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def _dense_stage(arr, order, st):
    """Reference stage application: move the consumed axes first, matmul."""
    names = [r.name for r in order]
    idx = [names.index(n) for n in st.in_names]
    moved = np.moveaxis(arr, idx, range(len(idx)))
    rest = moved.shape[len(idx):]
    new = (st.matrix @ moved.reshape(st.matrix.shape[0], -1)).reshape(
        tuple(r.dim for r in st.out_regs) + rest
    )
    return new, list(st.out_regs) + [r for i, r in enumerate(order) if i not in idx]


def _dense_reduction(st, keep):
    """Reference partial trace of a pure state: M M^dagger of the (keep, rest) matrix."""
    idx = st.system.positions(keep)
    m = np.moveaxis(st.tensor_view(), idx, range(len(idx)))
    m = m.reshape(math.prod(st.system.dims[i] for i in idx), -1)
    return m @ m.conj().T


def _takes_support_path(st, keep):
    idx = st.system.positions(keep)
    return hilbert._support_matrix(st._data(), idx)[0] is not None


SPARSE_SPECS = [("a", 3, ALICE), ("b", 4, BOB), ("c", 2, ALICE), ("d", 5, BOB), ("e", 3, REFERENCE)]


def _sparse_state(seed, specs=SPARSE_SPECS):
    """Random state with whole zero slices on non-leading axes plus scattered zeros."""
    rng = np.random.default_rng(seed)
    system = RegisterSystem.make(specs)
    amps = rng.standard_normal(system.dims) + 1j * rng.standard_normal(system.dims)
    amps[:, :, 0] = 0  # c = 0 never occurs
    amps[:, :, :, [1, 3]] = 0  # nor d = 1, 3
    amps[..., 1:] = 0  # e is padding in |0>
    amps[rng.random(system.dims) < 0.5] = 0
    amps[0, 1, 1, 0, 0] = 1.0  # never all zero
    return StateVector(system, amps.reshape(-1) / np.linalg.norm(amps))


def _state_with_nonzeros(count, seed, dims=(4, 4, 4)):
    rng = np.random.default_rng(seed)
    system = RegisterSystem.make([(f"r{i}", d, ALICE) for i, d in enumerate(dims)])
    amps = np.zeros(system.total_dim, dtype=complex)
    at = rng.choice(system.total_dim, count, replace=False)
    amps[at] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return StateVector(system, amps / np.linalg.norm(amps))


class TestSupportPath:
    """Stage application and pure-state reductions on the support of the state."""

    def _check_stage(self, st, stage):
        order = list(st.system.registers)
        got, got_order = hilbert._apply_stage_array(st._data(), order, stage)
        want, want_order = _dense_stage(st.tensor_view(), order, stage)
        assert got_order == want_order
        assert got.shape == want.shape
        got = hilbert._dense(got)
        assert np.max(np.abs(got - want)) < 1e-14

    def _check_reductions(self, st, keeps):
        for keep in keeps:
            got = reduced_density(st, keep).matrix
            assert np.max(np.abs(got - _dense_reduction(st, keep))) < 1e-14

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_states_match_dense_reference(self, seed):
        st = _sparse_state(seed)
        rng = np.random.default_rng(100 + seed)
        assert _takes_support_path(st, ["c", "a"])
        stages = [
            Stage(haar_random_unitary(6, rng), ("c", "a"), (Register("p", 6),)),
            Stage(haar_random_unitary(5, rng), ("d",), (Register("d", 5),)),
            Stage(haar_random_unitary(12, rng), ("e", "b"), (Register("q", 2), Register("s", 6))),
            Stage(haar_random_unitary(360, rng), ("a", "b", "c", "d", "e"), (Register("all", 360),)),
        ]
        for stage in stages:
            self._check_stage(st, stage)
        self._check_reductions(st, [["c", "a"], ["d"], ["e", "b", "c"], ["a", "b", "c", "d", "e"]])

    def test_apply_unitary_matches_dense_reference(self):
        st = _sparse_state(4)
        rng = np.random.default_rng(9)
        u = UnitaryOp(
            (Register("d", 5), Register("b", 4)),
            (Register("d", 5), Register("f", 4)),
            (
                Stage(haar_random_unitary(20, rng), ("d", "b"), (Register("d", 5), Register("f", 4))),
                Stage(haar_random_unitary(4, rng), ("f",), (Register("f", 4),)),
            ),
        )
        arr, order = st.tensor_view(), list(st.system.registers)
        for stage in u.stages:
            arr, order = _dense_stage(arr, order, stage)
        out = apply_unitary(st, u)
        assert [r.name for r in order] == list(out.system.names)
        assert np.max(np.abs(out.amplitudes - arr.reshape(-1))) < 1e-14

    def test_stages_with_no_inputs_or_no_outputs(self):
        # the create/drop stages protocols use to adjust empty messages
        st = _sparse_state(5)
        self._check_stage(st, Stage(np.eye(1), (), (Register("new", 1),)))
        grown = apply_unitary(
            st,
            UnitaryOp((), (Register("new", 1),), (Stage(np.eye(1), (), (Register("new", 1),)),)),
            holders={"new": BOB},
        )
        self._check_stage(grown, Stage(np.eye(1), ("new",), ()))
        assert np.array_equal(grown.amplitudes, st.amplitudes)

    def test_unitary_matrix_through_its_identity_axis(self):
        rng = np.random.default_rng(6)
        regs = (Register("a", 2), Register("b", 3), Register("c", 2))
        perm = np.eye(6)[[3, 0, 5, 1, 4, 2]]
        u = UnitaryOp(
            regs,
            (Register("x", 6), Register("c", 2)),
            (
                Stage(perm, ("b", "a"), (Register("x", 6),)),
                Stage(haar_random_unitary(12, rng), ("c", "x"), (Register("c", 2), Register("x", 6))),
            ),
        )
        eye = np.eye(12, dtype=complex).reshape(2, 3, 2, 12)
        # 12 nonzero entries out of 144 take the support path
        assert hilbert._support_matrix(hilbert._in_form(eye), [1, 0])[0] is not None
        arr, order = eye, list(regs)
        for stage in u.stages:
            arr, order = _dense_stage(arr, order, stage)
        pos = [[r.name for r in order].index(n) for n in u.out_names]
        want = np.transpose(arr, pos + [len(order)]).reshape(12, 12)
        assert np.max(np.abs(u.matrix - want)) < 1e-14

    def test_single_amplitude_state(self):
        amps = np.zeros(360, dtype=complex)
        amps[217] = 1j
        st = StateVector(RegisterSystem.make(SPARSE_SPECS), amps)
        assert _takes_support_path(st, ["b"])
        rng = np.random.default_rng(8)
        self._check_stage(st, Stage(haar_random_unitary(8, rng), ("b", "c"), (Register("bc", 8),)))
        self._check_reductions(st, [["b"], ["e", "a"], ["a", "b", "c", "d", "e"]])
        assert measures.entropy(st, ["b", "d"]) == 0.0

    @pytest.mark.parametrize("extra, support", [(0, True), (1, False)])
    def test_either_side_of_the_path_selection(self, extra, support):
        count = 64 // hilbert._SUPPORT_RATIO + extra
        st = _state_with_nonzeros(count, 12 + extra)
        assert _takes_support_path(st, ["r1"]) is support
        rng = np.random.default_rng(20)
        self._check_stage(st, Stage(haar_random_unitary(16, rng), ("r2", "r0"), (Register("t", 16),)))
        self._check_reductions(st, [["r1"], ["r2", "r0"]])

    def test_dense_state_builds_no_index_arrays(self, monkeypatch):
        st = random_state_vector([("a", 3, ALICE), ("b", 4, BOB), ("c", 2, BOB)], 21)
        assert np.all(st.amplitudes != 0)
        u = UnitaryOp.dense(
            haar_random_unitary(6, 22), (Register("c", 2), Register("a", 3)),
            (Register("c", 2), Register("a", 3)),
        )

        def no_index_building(*args, **kwargs):
            raise AssertionError("a dense state reached index building")

        for name in ("flatnonzero", "nonzero", "unravel_index", "ravel_multi_index"):
            monkeypatch.setattr(np, name, no_index_building)
        apply_unitary(st, u)
        reduced_density(st, ["b", "a"])
        measures.entropy(st, ["c"])


@hs.composite
def _permutation_cases(draw):
    """A state (dense or support form), a consumed block and an index map on it."""
    dims = draw(hs.lists(hs.integers(1, 4), min_size=1, max_size=4))
    names = [f"r{i}" for i in range(len(dims))]
    consumed = draw(hs.permutations(range(len(dims))))[: draw(hs.integers(0, len(dims)))]
    d = math.prod(dims[i] for i in consumed)
    perm = np.array(draw(hs.permutations(range(d))), dtype=np.int64)
    out_dims = draw(hs.permutations([dims[i] for i in consumed]))
    out_regs = tuple(Register(f"o{k}", x) for k, x in enumerate(out_dims))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    total = math.prod(dims)
    amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    amps[rng.random(total) < draw(hs.sampled_from([0.0, 0.5, 0.9, 1.0]))] = 0
    amps[rng.integers(total)] = 1.0  # never all zero
    state = StateVector(
        RegisterSystem.make([(n, x, ALICE) for n, x in zip(names, dims)]),
        amps / np.linalg.norm(amps),
    )
    return state, tuple(names[i] for i in consumed), perm, out_regs


class TestPermutationStage:
    """Stages that keep an index map instead of a matrix."""

    @settings(max_examples=200, deadline=None)
    @given(_permutation_cases())
    def test_index_map_matches_its_dense_view(self, case):
        state, in_names, perm, out_regs = case
        stage = UnitaryOp.permutation(
            perm, [state.system.register(n) for n in in_names], out_regs
        ).stages[0]
        dense = Stage(stage.matrix, in_names, out_regs)
        order = list(state.system.registers)
        got, got_order = hilbert._apply_stage_array(state._data(), order, stage)
        want, want_order = hilbert._apply_stage_array(state._data(), order, dense)
        assert got_order == want_order
        assert type(got) is type(want)
        if isinstance(want, hilbert._Coords):
            assert got.shape == want.shape
            assert np.array_equal(got.idx, want.idx)
            assert np.array_equal(got.vals, want.vals)
        else:
            assert np.array_equal(got, want)

    def test_dense_state_moves_rows_without_the_dense_view(self):
        state = random_state_vector([("a", 4, ALICE), ("b", 64, BOB), ("c", 3, BOB)], 24)
        perm = np.random.default_rng(25).permutation(64)
        regs = (Register("b", 64),), (Register("x", 64),)
        stage = UnitaryOp.permutation(perm, *regs).stages[0]
        twin = Stage(UnitaryOp.permutation(perm, *regs).stages[0].matrix, ("b",), regs[1])
        order = list(state.system.registers)
        got, got_order = hilbert._apply_stage_array(state._data(), order, stage)
        want, want_order = hilbert._apply_stage_array(state._data(), order, twin)
        assert got_order == want_order
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
        assert "matrix" not in stage.__dict__

    def test_dense_view_is_the_permutation_matrix(self):
        u = UnitaryOp.permutation([2, 0, 1], (Register("a", 3),), (Register("b", 3),))
        stage = u.stages[0]
        assert "matrix" not in stage.__dict__  # built only when read
        assert np.array_equal(stage.matrix, np.eye(3)[:, [2, 0, 1]])
        assert stage.matrix is stage.matrix
        with pytest.raises(ValueError, match="read-only"):
            stage.matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            stage.perm[0] = 1

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1, 3], [-1, 0, 1]])
    def test_non_bijective_map_rejected(self, perm):
        with pytest.raises(ValueError, match="bijection"):
            UnitaryOp.permutation(perm, (Register("a", 3),), (Register("b", 3),))

    def test_map_must_fit_the_block(self):
        with pytest.raises(ValueError, match="does not match"):
            UnitaryOp.permutation([1, 0], (Register("a", 3),), (Register("b", 3),))

    def test_renamed_keeps_the_index_map(self):
        u = UnitaryOp.permutation(
            [3, 1, 0, 2], (Register("a", 2), Register("b", 2)), (Register("c", 4),)
        )
        v = u.renamed({"a": "x", "c": "z"})
        assert v.in_names == ("x", "b") and v.out_names == ("z",)
        (stage,) = v.stages
        assert stage.in_names == ("x", "b")
        assert stage.perm is u.stages[0].perm
        assert "matrix" not in stage.__dict__
        with pytest.raises(ValueError, match="duplicate"):
            u.renamed({"a": "b"})

    def test_rename_is_the_identity_map(self):
        u = UnitaryOp.rename((Register("a", 2), Register("b", 3)), (Register("c", 6),))
        assert np.array_equal(u.stages[0].perm, np.arange(6))


class TestPurify:
    def test_pure_state_gets_trivial_reference(self):
        st = ket("0", ["a"])
        rho = reduced_density(st, ["a"])
        pure = purify(rho, "R")
        assert pure.system.register("R").dim == 1
        assert pure.system.holder_of("R") is REFERENCE

    def test_maximally_mixed_purifies_to_entangled_pair(self):
        rho = DensityOperator(
            RegisterSystem.make([("a", 2, ALICE)]), np.eye(2, dtype=complex) / 2
        )
        pure = purify(rho, "R")
        assert pure.system.register("R").dim == 2
        back = reduced_density(pure, ["a"])
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12

    def test_diagonal_round_trip(self):
        rho = DensityOperator(
            RegisterSystem.make([("a", 2, ALICE)]),
            np.diag([0.25, 0.75]).astype(complex),
        )
        back = reduced_density(purify(rho, "R"), ["a"])
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12

    def test_random_round_trips(self):
        rng = np.random.default_rng(17)
        for d in range(2, 9):
            rho = random_density_operator([("a", d, ALICE)], rng)
            back = reduced_density(purify(rho, "R"), ["a"])
            assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10

    def test_non_psd_rejected(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        rho = DensityOperator._unchecked(RegisterSystem.make([("a", 2, ALICE)]), mat)
        with pytest.raises(StateValidationError):
            purify(rho, "R")


class TestCanonicalClassicalPurification:
    def test_uniform_on_two_points(self):
        # probability 1/2 each on (x=0,y=0) and (x=1,y=0)
        st = canonical_classical_purification(np.array([[1.0], [1.0]]) / 2)
        assert st.system.names == ("A_in", "B_in", "R")
        assert st.system.dims == (2, 1, 2)
        assert np.allclose(st.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_point_mass(self):
        table = np.zeros((2, 2))
        table[1, 0] = 1.0
        st = canonical_classical_purification(table)
        assert st.system.register("R").dim == 1
        assert abs(abs(st.amplitudes[2]) - 1.0) < 1e-12

    def test_three_point_support(self):
        mu = np.array([[1.0, 1.0], [1.0, 0.0]]) / 3.0
        st = canonical_classical_purification(mu)
        assert st.system.register("R").dim == 3
        nz = st.amplitudes[np.abs(st.amplitudes) > 0]
        assert np.allclose(np.abs(nz), 1 / math.sqrt(3))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            canonical_classical_purification(np.array([[1.5, -0.5], [0.0, 0.0]]))

    def test_holders(self):
        st = canonical_classical_purification(np.ones((2, 2)) / 4)
        assert st.system.holder_of("A_in") is ALICE
        assert st.system.holder_of("B_in") is BOB
        assert st.system.holder_of("R") is REFERENCE


class TestMeasurementChannel:
    def test_diagonal_unchanged(self):
        rho = classical_state(np.array([0.3, 0.7]), [("a", 2, ALICE)])
        out = measurement_channel(rho, "a")
        assert np.array_equal(out.matrix, rho.matrix)

    def test_plus_state_dephases(self):
        plus = StateVector(
            RegisterSystem.make([("a", 2, ALICE)]), np.array([1, 1], dtype=complex) / math.sqrt(2)
        )
        out = measurement_channel(reduced_density(plus, ["a"]), "a")
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_idempotent_exactly(self):
        rho = random_density_operator([("a", 2, ALICE), ("b", 3, BOB)], 23)
        once = measurement_channel(rho, "b")
        twice = measurement_channel(once, "b")
        assert np.array_equal(once.matrix, twice.matrix)


class TestUnitaryExtension:
    def test_unitary_channel_has_trivial_ancilla(self):
        u = haar_random_unitary(3, 5)
        ch = channel_from_kraus([u], [("a", 3)], [("b", 3)])
        assert ch.ancilla_state.system.total_dim == 1
        ch.check()
        rho = random_density_operator([("a", 3, ALICE)], 8)
        out = reduced_density(ch.apply(rho), ["b"])
        assert np.max(np.abs(out.matrix - u @ rho.matrix @ u.conj().T)) < 1e-12

    def test_measurement_channel_dilation_on_operator_basis(self):
        # copy-into-ancilla dilation matches the dephasing map on a basis
        kraus = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        ch = channel_from_kraus(kraus, [("a", 2)], [("a", 2)])
        ch.check()
        paulis = [
            np.zeros((2, 2)),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.diag([1, -1]),
        ]
        for sigma in paulis:
            rho_mat = (np.eye(2) + sigma) / 2
            rho = DensityOperator(RegisterSystem.make([("a", 2, ALICE)]), rho_mat.astype(complex))
            got = reduced_density(ch.apply(rho), ["a"]).matrix
            want = measurement_channel(rho, "a").matrix
            assert np.max(np.abs(got - want)) < 1e-12

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(StateValidationError, match="completeness"):
            channel_from_kraus([np.eye(2) * 0.5], [("a", 2)], [("b", 2)])

    def test_function_table_channel_matches_enumeration(self):
        from qiclab import and_pair, function_channel

        ch = function_channel(and_pair())
        ch.check()
        for x in range(2):
            for y in range(2):
                amps = np.zeros(4, dtype=complex)
                amps[x * 2 + y] = 1.0
                st = StateVector(
                    RegisterSystem.make([("A_in", 2, ALICE), ("B_in", 2, BOB)]), amps
                )
                out = ch.apply(st)
                z = int(np.argmax(np.diag(out.matrix).real))
                assert divmod(z, 2) == (x & y, x & y)


class TestHaarRandomUnitary:
    def test_unitarity(self):
        u = haar_random_unitary(7, 2)
        assert np.max(np.abs(u.conj().T @ u - np.eye(7))) < 1e-10

    def test_deterministic_for_seed(self):
        assert np.array_equal(haar_random_unitary(5, 42), haar_random_unitary(5, 42))

    def test_column_norms(self):
        u = haar_random_unitary(6, 9)
        assert np.max(np.abs(np.linalg.norm(u, axis=0) - 1.0)) < 1e-10


class TestValidationGates:
    def test_unnormalized_vector_rejected(self):
        with pytest.raises(StateValidationError, match="norm"):
            StateVector(RegisterSystem.make([("a", 2, ALICE)]), np.array([1.0, 1.0]))

    def test_non_hermitian_density_rejected(self):
        with pytest.raises(StateValidationError, match="Hermitian"):
            DensityOperator(
                RegisterSystem.make([("a", 2, ALICE)]),
                np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex),
            )

    def test_stage_must_be_unitary(self):
        with pytest.raises(StateValidationError, match="unitary"):
            Stage(np.array([[0.5, 0], [0, 1]]), ("a",), (Register("a", 2),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_vector_rejected(self, bad):
        amps = np.array([bad, 0.0], dtype=complex)
        with pytest.raises(StateValidationError, match="non-finite"):
            StateVector(RegisterSystem.make([("a", 2, ALICE)]), amps)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_density_rejected(self, bad):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            DensityOperator(RegisterSystem.make([("a", 2, ALICE)]), mat)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_stage_rejected(self, bad):
        with pytest.raises(StateValidationError, match="non-finite"):
            Stage(np.array([[1.0, 0.0], [0.0, bad]]), ("a",), (Register("a", 2),))

    def test_register_dim_positive(self):
        with pytest.raises(ValueError):
            Register("a", 0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RegisterSystem.make([("a", 2, ALICE), ("a", 2, BOB)])


class TestChannelStructure:
    def test_choi_psd_and_trace_preserving(self):
        from qiclab.fuzz import random_kraus_channel

        rng = np.random.default_rng(31)
        for _ in range(10):
            ch = random_kraus_channel([("a", 3)], [("b", 2)], 3, rng)
            ch.check()

    def test_renamed_channel_keeps_its_choi_matrix(self):
        from qiclab.fuzz import random_kraus_channel

        rng = np.random.default_rng(32)
        ch = random_kraus_channel([("a", 3)], [("b", 2)], 3, rng)
        names = set(ch.dilation.in_names + ch.dilation.out_names)
        mapping = {n: n + "'" for n in names}
        renamed = ch.renamed(mapping)
        assert renamed.in_names == ("a'",) and renamed.out_names == ("b'",)
        assert set(renamed.dilation.in_names + renamed.dilation.out_names) == set(
            mapping.values()
        )
        assert np.array_equal(renamed.choi_matrix(), ch.choi_matrix())

    def test_apply_rides_spectators_along(self):
        ch = channel_from_kraus([np.eye(2)], [("a", 2)], [("a", 2)])
        st = tensor(ket("0", ["a"]), ket("1", ["spect"]))
        out = ch.apply(st)
        assert set(out.system.names) == {"a", "spect"}


class TestRegisterSystemCache:
    """names, dims, total_dim and the name -> position map are cached per instance."""

    def _system(self):
        return RegisterSystem.make([("a", 2, ALICE), ("b", 3, BOB), ("c", 5, REFERENCE)])

    def _assert_lookups(self, sys_, names, dims):
        assert sys_.names == names
        assert sys_.dims == dims
        assert sys_.total_dim == math.prod(dims)
        assert [sys_.index(n) for n in names] == list(range(len(names)))
        assert sys_.positions(names[::-1]) == list(range(len(names)))[::-1]

    def test_unknown_name_message(self):
        sys_ = self._system()
        sys_.index("a")  # fill the cache first
        with pytest.raises(KeyError) as err:
            sys_.index("z")
        assert err.value.args[0] == "unknown register 'z'; have ('a', 'b', 'c')"
        with pytest.raises(KeyError, match="unknown register"):
            sys_.register(["a"])

    def test_derived_systems_get_fresh_lookups(self):
        sys_ = self._system()
        self._assert_lookups(sys_, ("a", "b", "c"), (2, 3, 5))
        renamed = sys_.renamed({"a": "x", "c": "a"})
        self._assert_lookups(renamed, ("x", "b", "a"), (2, 3, 5))
        assert renamed.register("a") == Register("a", 5)
        with pytest.raises(KeyError):
            renamed.index("c")
        held = sys_.with_holders({"b": REFERENCE})
        self._assert_lookups(held, ("a", "b", "c"), (2, 3, 5))
        assert held.holder_of("b") is REFERENCE
        sub = sys_.subsystem(["c", "a"])
        self._assert_lookups(sub, ("c", "a"), (5, 2))
        with pytest.raises(KeyError):
            sub.index("b")
        replaced = dataclasses.replace(sys_, registers=(Register("q", 7),) + sys_.registers[1:])
        self._assert_lookups(replaced, ("q", "b", "c"), (7, 3, 5))
        with pytest.raises(KeyError):
            replaced.index("a")
        # the source keeps its own lookups
        self._assert_lookups(sys_, ("a", "b", "c"), (2, 3, 5))

    def test_equality_hash_and_pickle_ignore_the_cache(self):
        warm, cold = self._system(), self._system()
        warm.index("c")
        assert "_index" in vars(warm) and "_index" not in vars(cold)
        assert warm == cold and hash(warm) == hash(cold)
        back = pickle.loads(pickle.dumps(warm))
        assert back == cold and hash(back) == hash(cold)
        self._assert_lookups(back, ("a", "b", "c"), (2, 3, 5))
        fresh = pickle.loads(pickle.dumps(cold))
        self._assert_lookups(fresh, ("a", "b", "c"), (2, 3, 5))
