"""Entropies, conditional mutual information and trace distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.linalg import svdvals
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import xlogy

from qiclab import (
    ALICE,
    BOB,
    REFERENCE,
    DensityOperator,
    RegisterSystem,
    StateValidationError,
    StateVector,
    canonical_classical_purification,
    classical_state,
    cond_entropy,
    cond_mutual_info,
    entropy,
    entropy_report,
    mutual_info,
    run,
    tensor,
    trace_distance,
)
from qiclab import hilbert, measures
from qiclab.fuzz import (
    random_density_operator,
    random_input_density,
    random_protocol,
    random_state_vector,
)
from qiclab.measures import _entropy_from_spectrum, trace_norm


def ghz():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / math.sqrt(2)
    return StateVector(
        RegisterSystem.make([("A", 2, ALICE), ("B", 2, BOB), ("C", 2, REFERENCE)]), amps
    )


def bell():
    return StateVector(
        RegisterSystem.make([("A", 2, ALICE), ("B", 2, BOB)]),
        np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    )


class TestEntropy:
    def test_pure_state_full_system_is_zero(self):
        st = random_state_vector([("a", 3, ALICE), ("b", 2, BOB)], 0)
        assert entropy(st) == 0.0

    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            rho = DensityOperator(
                RegisterSystem.make([("a", d, ALICE)]), np.eye(d, dtype=complex) / d
            )
            assert abs(entropy(rho) - math.log2(d)) < 1e-12

    def test_binary_spectrum_value(self):
        # oracle: direct -sum p log2 p over the spectrum {1/4, 3/4}
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert abs(expected - 0.8112781244591328) < 1e-12
        rho = DensityOperator(
            RegisterSystem.make([("a", 2, ALICE)]), np.diag([0.25, 0.75]).astype(complex)
        )
        assert abs(entropy(rho) - expected) < 1e-12

    def test_smaller_side_evaluation_agrees_with_reduction(self):
        rng = np.random.default_rng(5)
        st = random_state_vector([("a", 2, ALICE), ("b", 4, BOB), ("c", 3, BOB)], rng)
        from qiclab import reduced_density

        big = ["b", "c"]  # complement is smaller, so the dual route is used
        direct = entropy(reduced_density(st, big))
        assert abs(entropy(st, big) - direct) < 1e-10

    def test_report_bounds_and_floor(self):
        rep = entropy_report(ghz(), ["A", "B"])
        assert 0 <= rep.value <= math.log2(4) + 1e-12
        assert rep.spectrum_floor > 0
        assert rep.subsystem == ("A", "B")


class TestConditionalQuantities:
    def test_product_state_has_no_mutual_information(self):
        s1 = random_state_vector([("a", 2, ALICE), ("x", 2, REFERENCE)], 1)
        s2 = random_state_vector([("b", 2, BOB), ("y", 2, REFERENCE)], 2)
        st = tensor(s1, s2)
        assert abs(mutual_info(st, ["a"], ["b"])) < 1e-10
        assert abs(cond_mutual_info(st, ["a"], ["b"], ["x"])) < 1e-10

    def test_bell_mutual_information_is_two(self):
        assert abs(mutual_info(bell(), ["A"], ["B"]) - 2.0) < 1e-9

    def test_ghz_conditional_mutual_information(self):
        # oracle: entropy arithmetic on explicit reductions
        # H(AC) = H(BC) = H(C) = 1 (each reduction is an even classical mixture),
        # H(ABC) = 0 (pure), so I(A;B|C) = 1 + 1 - 1 - 0 = 1.
        st = ghz()
        probs_ac = np.diag(np.array([[0.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.5]]))
        h_oracle = -sum(p * math.log2(p) for p in probs_ac if p > 0)
        assert h_oracle == 1.0
        assert abs(cond_mutual_info(st, ["A"], ["B"], ["C"]) - 1.0) < 1e-9

    def test_cond_entropy_of_entangled_pair_is_negative(self):
        assert abs(cond_entropy(bell(), ["A"], ["B"]) + 1.0) < 1e-9

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            cond_mutual_info(ghz(), ["A"], ["A"], ["C"])

    def test_empty_reference_group_gives_zero(self):
        st = random_state_vector([("a", 2, ALICE), ("b", 2, BOB)], 3)
        assert cond_mutual_info(st, ["a"], [], ["b"]) == 0.0

    def test_pure_and_density_routes_agree(self):
        from qiclab import reduced_density

        rng = np.random.default_rng(21)
        st = random_state_vector(
            [("a", 2, ALICE), ("b", 3, BOB), ("c", 2, BOB), ("e", 3, REFERENCE)], rng
        )
        rho = reduced_density(st, ["a", "b", "c"])
        lhs = cond_mutual_info(st, ["a"], ["b"], ["c"])
        rhs = cond_mutual_info(rho, ["a"], ["b"], ["c"])
        assert abs(lhs - rhs) < 1e-10


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_density_operator([("a", 3, ALICE)], 4)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = classical_state(np.array([1.0, 0.0]), [("q", 2, ALICE)])
        b = classical_state(np.array([0.0, 1.0]), [("q", 2, ALICE)])
        assert abs(trace_distance(a, b) - 2.0) < 1e-12

    def test_basis_versus_diagonal_state(self):
        # oracle: eigenvalues of |0><0| - |+><+| are +/- sqrt(1/2)
        delta = np.diag([1.0, 0.0]) - np.full((2, 2), 0.5)
        eig = np.linalg.eigvalsh(delta)
        assert abs(sum(abs(e) for e in eig) - math.sqrt(2)) < 1e-12
        zero = StateVector(RegisterSystem.make([("q", 2, ALICE)]), np.array([1, 0], dtype=complex))
        plus = StateVector(
            RegisterSystem.make([("q", 2, ALICE)]), np.array([1, 1], dtype=complex) / math.sqrt(2)
        )
        assert abs(trace_distance(zero, plus) - math.sqrt(2)) < 1e-9

    def test_subsystem_reduction(self):
        st1 = bell()
        st2 = tensor(
            classical_state(np.array([1.0, 0.0]), [("A", 2, ALICE)]),
            classical_state(np.array([0.5, 0.5]), [("B", 2, BOB)]),
        )
        # both reduce to I/2 on B
        assert abs(trace_distance(st1, st2, ["B"])) < 1e-12

    def test_register_mismatch_rejected(self):
        a = classical_state(np.array([1.0, 0.0]), [("q", 2, ALICE)])
        b = classical_state(np.array([1.0, 0.0, 0.0]), [("q", 3, ALICE)])
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(a, b)


class TestInvalidSpectra:
    def test_negative_eigenvalue_beyond_tolerance_rejected(self):
        mat = np.diag([1.2, -0.2]).astype(complex)
        rho = DensityOperator._unchecked(RegisterSystem.make([("a", 2, ALICE)]), mat)
        with pytest.raises(Exception, match="invalid"):
            entropy(rho)
        with pytest.raises(Exception, match="invalid"):
            entropy_report(rho)

    def test_clamp_stops_at_the_psd_tolerance(self):
        assert _entropy_from_spectrum(np.array([1.0, -0.5e-9])) == (0.0, 1.0)
        with pytest.raises(StateValidationError, match="invalid"):
            _entropy_from_spectrum(np.array([1.0, -2e-9]))


def _keep_matrix(st, keep):
    """The (keep, rest) matrix of a pure state."""
    names = st.system.names
    idx = [names.index(n) for n in keep]
    view = st.amplitudes.reshape(st.system.dims)
    return np.moveaxis(view, idx, range(len(idx))).reshape(
        math.prod(st.system.dims[i] for i in idx), -1
    )


def _svd_entropy(st, keep):
    """Reference: entropy from the singular values of the (keep, rest) matrix."""
    w = svdvals(_keep_matrix(st, keep)) ** 2
    return float(-np.sum(xlogy(w, w)) / math.log(2))


def _support_side(st, keep):
    """min(#nonzero rows, #nonzero columns) of the (keep, rest) matrix."""
    nz = _keep_matrix(st, keep) != 0
    return min(int(nz.any(axis=1).sum()), int(nz.any(axis=0).sum()))


def _component_shapes(st, keep):
    """(rows, columns) of each connected component of the (keep, rest)
    matrix's nonzero pattern, from the support's digits and scipy's graph
    components; none when either side has no registers."""
    dims = st.system.dims
    side = st.system.positions(keep)
    rest = [i for i in range(len(dims)) if i not in side]
    if not side or not rest:
        return []
    digits = np.unravel_index(st._support()[0], dims)
    r, c = (
        np.unique(
            np.ravel_multi_index([digits[i] for i in axes], [dims[i] for i in axes]),
            return_inverse=True,
        )[1]
        for axes in (side, rest)
    )
    n_rows, n = int(r.max()) + 1, int(r.max() + c.max()) + 2
    graph = coo_matrix((np.ones(r.size), (r, n_rows + c)), shape=(n, n))
    k, label = connected_components(graph, directed=False)
    rows = np.bincount(label[:n_rows], minlength=k)
    cols = np.bincount(label[n_rows:], minlength=k)
    return list(zip(rows.tolist(), cols.tolist()))


def _gram_sides(monkeypatch):
    """Record the side of every matrix handed to the eigenvalue kernel."""
    sides = []
    eigh = measures._eigh

    def spy(a, *args, **kwargs):
        assert a.shape[0] == a.shape[1]
        sides.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(measures, "_eigh", spy)
    return sides


def _padded_classical_state():
    """Haar state on a, b times a classical purification and |0> on z."""
    table = np.array([[0.2, 0.0, 0.1, 0.05], [0.0, 0.3, 0.0, 0.1], [0.15, 0.0, 0.1, 0.0]])
    pad = np.zeros(3, dtype=complex)
    pad[0] = 1.0
    return tensor(
        tensor(
            random_state_vector([("a", 6, ALICE), ("b", 5, BOB)], 21),
            canonical_classical_purification(table, "x", "y", "r"),
        ),
        StateVector(RegisterSystem.make([("z", 3, REFERENCE)]), pad),
    )


def _tall_support_state():
    """8 x 64 (a, b) matrix whose support is 8 rows by 4 columns."""
    rng = np.random.default_rng(5)
    m = np.zeros((8, 64), dtype=complex)
    m[:, [3, 17, 40, 63]] = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    m /= np.linalg.norm(m)
    return StateVector(
        RegisterSystem.make([("a", 8, ALICE), ("b", 64, BOB)]), m.reshape(-1)
    )


def _schmidt_state(weights, seed):
    """Bipartite pure state on A, B with the given Schmidt weights."""
    rng = np.random.default_rng(seed)
    d = len(weights)
    unitaries = []
    for _ in range(2):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        unitaries.append(q * (np.diag(r) / np.abs(np.diag(r))))
    u, v = unitaries
    amps = (u * np.sqrt(weights)) @ v.T
    system = RegisterSystem.make([("A", d, ALICE), ("B", d, BOB)])
    return StateVector(system, amps.reshape(-1))


def _in_both_forms(st):
    """The same amplitudes held as a dense array and in support form."""
    held = []
    for ratio in (2 ** 40, 0):  # no array takes the support form; every array does
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hilbert, "_SUPPORT_RATIO", ratio)
            held.append(StateVector._unchecked(st.system, st.amplitudes))
    assert held[0]._coords is None and held[1]._coords is not None
    return held


def _assert_both_sides_match_svd(st, keep):
    """Entropy of ``keep`` and of its complement against the SVD reference,
    with the state held in both forms."""
    ref = _svd_entropy(st, keep)
    comp = [n for n in st.system.names if n not in keep]
    for held in _in_both_forms(st):
        assert abs(entropy(held, keep) - ref) < 1e-12
        assert abs(entropy(held, comp) - ref) < 1e-12


def _shuffled_direct_sum(dims, n_blocks, seed):
    """Pure state whose (a1 a2, b1 b2) matrix is a direct sum of random
    blocks: each row and column joins a random block or stays empty, so the
    blocks interleave. The registers are stored in the order b1, a1, b2, a2."""
    a1, a2, b1, b2 = dims
    rng = np.random.default_rng(seed)
    row_block = rng.integers(-1, n_blocks, a1 * a2)
    col_block = rng.integers(-1, n_blocks, b1 * b2)
    row_block[0] = col_block[0] = 0  # never all zero
    same = (row_block[:, None] == col_block[None, :]) & (row_block[:, None] >= 0)
    m = np.where(same, rng.standard_normal(same.shape) + 1j * rng.standard_normal(same.shape), 0)
    m /= np.linalg.norm(m)
    amps = m.reshape(a1, a2, b1, b2).transpose(2, 0, 3, 1)
    system = RegisterSystem.make(
        [("b1", b1, BOB), ("a1", a1, ALICE), ("b2", b2, BOB), ("a2", a2, ALICE)]
    )
    return StateVector(system, amps.reshape(-1))


class TestGramKernel:
    """Pure-state entropies from the Gram matrix against an SVD reference."""

    @pytest.mark.parametrize("dims", [(24, 6912, 24), (32, 3456, 36)])
    def test_haar_states_at_the_heavy_shapes(self, dims):
        # the kept side a, c is 576 x 6912 or 1152 x 3456, and not leading
        specs = [("a", dims[0], ALICE), ("b", dims[1], BOB), ("c", dims[2], REFERENCE)]
        st = random_state_vector(specs, 11)
        ref = _svd_entropy(st, ["a", "c"])
        assert abs(entropy(st, ["a", "c"]) - ref) < 1e-10
        assert abs(entropy(st, ["b"]) - ref) < 1e-10

    def test_rank_deficient_states(self):
        prod = tensor(
            random_state_vector([("a", 4, ALICE), ("x", 3, REFERENCE)], 1),
            random_state_vector([("b", 6, BOB), ("y", 2, REFERENCE)], 2),
        )
        for keep in (["a", "x"], ["b", "y"], ["a", "b"], ["x", "y", "a"]):
            assert abs(entropy(prod, keep) - _svd_entropy(prod, keep)) < 1e-10
        assert abs(entropy(prod, ["a", "x"])) < 1e-10
        amps = np.zeros(3**4, dtype=complex)
        amps[[0, 40, 80]] = 1 / math.sqrt(3)  # (|0000> + |1111> + |2222>)/sqrt 3
        ghz3 = StateVector(
            RegisterSystem.make([(n, 3, ALICE) for n in "pqrs"]), amps
        )
        for keep in (["p"], ["p", "q"], ["q", "s"], ["p", "q", "r"]):
            assert abs(entropy(ghz3, keep) - math.log2(3)) < 1e-10
            assert abs(entropy(ghz3, keep) - _svd_entropy(ghz3, keep)) < 1e-10

    def test_schmidt_weight_near_1e12(self):
        weights = np.array([0.4, 0.3, 0.2, 0.05, 0.03, 0.015, 0.005, 0.0])
        weights[-1] = 1e-12
        weights[0] -= 1e-12
        st = _schmidt_state(weights, 3)
        exact = float(-np.sum(xlogy(weights, weights)) / math.log(2))
        rep = entropy_report(st, ["A"])
        assert abs(rep.value - exact) < 1e-10
        assert abs(rep.value - _svd_entropy(st, ["A"])) < 1e-10
        assert abs(entropy(st, ["B"]) - exact) < 1e-10
        assert abs(rep.spectrum_floor - 1e-12) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64, 144, 324])
    def test_error_is_within_the_stated_bound(self, n):
        # the bound of _pure_subsystem_spectrum; the states are n x n, so c = 1/2
        t = 0.5 * n * n * np.finfo(float).eps
        bound = t * math.log2(max(n - 1, 1)) - t * math.log2(t) - (1 - t) * math.log2(1 - t)
        weights = 1e-16 ** (np.arange(n) / (n - 1))
        for seed in range(3):
            st = _schmidt_state(weights / weights.sum(), 100 * n + seed)
            ref = _svd_entropy(st, ["A"])
            assert abs(entropy(st, ["A"]) - ref) <= bound
            assert abs(entropy(st, ["B"]) - ref) <= bound

    def test_padded_classical_purification_on_a_non_leading_side(self):
        st = _padded_classical_state()
        for keep in (["z", "x", "b"], ["r", "y"], ["y", "z"], ["b", "r", "z"]):
            m = _keep_matrix(st, keep)
            assert not m.any(axis=1).all() and not m.any(axis=0).all()
            ref = _svd_entropy(st, keep)
            assert abs(entropy(st, keep) - ref) < 1e-10
            comp = [n for n in st.system.names if n not in keep]
            assert abs(entropy(st, comp) - ref) < 1e-10

    def test_more_nonzero_rows_than_columns(self):
        st = _tall_support_state()
        assert _support_side(st, ["a"]) == 4
        ref = _svd_entropy(st, ["a"])
        assert ref > 1.0
        assert abs(entropy(st, ["a"]) - ref) < 1e-10
        assert abs(entropy(st, ["b"]) - ref) < 1e-10

    def test_gram_side_is_the_smaller_support(self, monkeypatch):
        padded = _padded_classical_state()
        cases = [(padded, ["z", "x", "b"]), (padded, ["r", "y"]), (_tall_support_state(), ["a"])]
        sides = _gram_sides(monkeypatch)
        for st, keep in cases:
            sides.clear()
            entropy(st, keep)
            shapes = _component_shapes(st, keep)
            largest = max(min(shape) for shape in shapes)
            assert max(sides) == largest
            if len(shapes) > 1:
                assert largest < _support_side(st, keep)
            else:
                assert largest == _support_side(st, keep)
            assert largest < min(_keep_matrix(st, keep).shape)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=hs.integers(0, 2 ** 31 - 1),
        messages=hs.sampled_from([2, 4]),
        alice_dims=hs.lists(hs.integers(1, 3), min_size=1, max_size=2),
        bob_dims=hs.lists(hs.integers(1, 3), min_size=1, max_size=2),
        preshared=hs.sampled_from([(1, 1), (2, 1), (2, 2)]),
        classical=hs.booleans(),
        data=hs.data(),
    )
    def test_step_states_of_random_protocols_match_svd(
        self, seed, messages, alice_dims, bob_dims, preshared, classical, data
    ):
        p = random_protocol(
            seed, messages, alice_in_dims=alice_dims, bob_in_dims=bob_dims,
            preshared_dims=preshared,
        )
        traj = run(p, random_input_density(p, seed, classical=classical))
        for st in traj.steps + (traj.final_state,):
            names = st.system.names
            mask = data.draw(hs.integers(0, 2 ** len(names) - 1))
            _assert_both_sides_match_svd(st, [n for i, n in enumerate(names) if mask >> i & 1])

    @settings(max_examples=60, deadline=None)
    @given(
        dims=hs.tuples(*[hs.integers(1, 4)] * 4),
        n_blocks=hs.integers(1, 6),
        seed=hs.integers(0, 2 ** 31 - 1),
        mask=hs.integers(0, 15),
    )
    def test_shuffled_direct_sums_match_svd(self, dims, n_blocks, seed, mask):
        st = _shuffled_direct_sum(dims, n_blocks, seed)
        _assert_both_sides_match_svd(st, ["a1", "a2"])
        names = st.system.names
        _assert_both_sides_match_svd(st, [n for i, n in enumerate(names) if mask >> i & 1])

    def test_tiny_amplitude_row_is_kept(self, monkeypatch):
        # row 2's only amplitude is 1e-150; row 3 and column 3 are exactly zero
        amps = np.zeros((4, 4), dtype=complex)
        amps[0, 0] = amps[1, 1] = math.sqrt(0.5)
        amps[2, 2] = 1e-150
        st = StateVector(
            RegisterSystem.make([("A", 4, ALICE), ("B", 4, BOB)]), amps.reshape(-1)
        )
        sides = _gram_sides(monkeypatch)
        rep = entropy_report(st, ["A"])
        assert sides == [1, 1, 1]
        assert abs(rep.value - _svd_entropy(st, ["A"])) < 1e-10
        assert rep.spectrum_floor == pytest.approx(1e-300, rel=1e-12)


class TestEigenvalueKernel:
    """The one LAPACK ``zheevd`` call behind every eigenvalue-only spectrum."""

    def test_nonzero_info_raises(self, monkeypatch):
        def failing(a, **kwargs):
            return np.zeros(a.shape[0]), a, 1

        monkeypatch.setattr(hilbert, "zheevd", failing)
        with pytest.raises(np.linalg.LinAlgError):
            entropy(bell(), ["A"])
        with pytest.raises(np.linalg.LinAlgError):
            entropy(random_density_operator([("a", 3, ALICE)], 2, 1))

    def test_workspace_is_at_least_the_queried_size(self, monkeypatch):
        # the minimal default workspace forces an unblocked reduction that
        # runs about twice as slow as numpy on sides in the hundreds
        seen = []
        zheevd = hilbert.zheevd

        def spy(a, **kwargs):
            queried = hilbert.zheevd_lwork(a.shape[0], compute_v=0, lower=kwargs["lower"])
            seen.append((a.shape[0], kwargs["lwork"], int(queried[0].real)))
            return zheevd(a, **kwargs)

        monkeypatch.setattr(hilbert, "zheevd", spy)
        rng = np.random.default_rng(7)
        for side in (1, 2, 3, 4, 17, 64, 144, 324, 576):
            m = rng.standard_normal((side, side + 1)) + 1j * rng.standard_normal((side, side + 1))
            st = StateVector(
                RegisterSystem.make([("a", side, ALICE), ("b", side + 1, BOB)]),
                (m / np.linalg.norm(m)).reshape(-1),
            )
            entropy(st, ["a"])
        assert [n for n, _, _ in seen] == [1, 2, 3, 4, 17, 64, 144, 324, 576]
        assert all(lwork >= queried for _, lwork, queried in seen)

    def test_trace_norm_leaves_a_fortran_argument_unchanged(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        delta = np.asfortranarray(z + z.conj().T)
        before = delta.copy()
        assert delta.flags.writeable and delta.flags.f_contiguous
        value = trace_norm(delta)
        np.testing.assert_array_equal(delta, before)
        assert value == pytest.approx(np.abs(np.linalg.eigvalsh(before)).sum(), abs=1e-12)
