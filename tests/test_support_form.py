"""The support form of pure states: guards, both forms agreeing, no ambient work."""

import ast
import math
import pickle
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qiclab import (
    ALICE,
    BOB,
    REFERENCE,
    RegisterSystem,
    StateVector,
    and_average_protocol,
    and_pair,
    canonical_purification,
    classical_state,
    failure_probability,
    noisy_protocol_for,
    qic_terms,
    reduced_density,
    run,
    tensor,
)
from qiclab import hilbert
from qiclab.fuzz import random_input_density, random_protocol

ALL_SUPPORT = 0  # every state, however full, takes the support form
ALL_DENSE = 2 ** 40  # no state does (and the count stays in int64)


def _point(name, dim, at, value=1.0):
    """A one-amplitude state made in support form: nothing of size ``dim`` is allocated."""
    system = RegisterSystem.make([(name, dim, ALICE)])
    coords = hilbert._Coords(np.array([at]), np.array([value], dtype=complex), (dim,))
    return StateVector._unchecked(system, coords)


def _sparse_vector(specs, seed, zero_share=0.8):
    rng = np.random.default_rng(seed)
    system = RegisterSystem.make(specs)
    d = system.total_dim
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    amps[rng.random(d) < zero_share] = 0
    amps[rng.integers(d)] = 1.0  # never all zero
    return StateVector(system, amps / np.linalg.norm(amps))


class TestForms:
    def test_sparse_array_takes_the_support_form(self):
        st_ = _sparse_vector([("a", 4, ALICE), ("b", 5, BOB), ("c", 3, REFERENCE)], 1)
        assert st_._coords is not None
        idx, vals, shape = st_._coords
        assert shape == (4, 5, 3)
        assert np.all(np.diff(idx) > 0) and np.all(vals != 0)
        amps = st_.amplitudes
        assert not amps.flags.writeable and st_.amplitudes is amps
        assert np.array_equal(amps[idx], vals)
        assert np.count_nonzero(amps) == idx.size
        assert abs(st_.norm - 1.0) < 1e-12
        back = pickle.loads(pickle.dumps(st_))
        assert back._coords is not None and np.array_equal(back.amplitudes, amps)
        with pytest.raises(AttributeError):
            st_.system = back.system

    def test_relabelling_keeps_the_form(self):
        st_ = _sparse_vector([("a", 4, ALICE), ("b", 5, BOB)], 2)
        for other in (
            st_.with_holders({"a": BOB}),
            st_.renamed({"a": "x"}),
            st_.renamed({"b": "y"}),
        ):
            assert other._coords is st_._coords
        assert st_.renamed({"a": "x"}).system.names == ("x", "b")

    def test_tensor_of_supports_matches_kron(self):
        x = _sparse_vector([("a", 4, ALICE), ("b", 3, BOB)], 3)
        y = _sparse_vector([("c", 6, BOB)], 4)
        xy = tensor(x, y)
        assert xy._coords is not None
        assert np.array_equal(xy.amplitudes, np.kron(x.amplitudes, y.amplitudes))
        assert xy.system.dims == (4, 3, 6)

    def test_dense_product_is_a_kron(self):
        x = StateVector(RegisterSystem.make([("a", 2, ALICE)]), np.array([0.6, 0.8]))
        y = StateVector(RegisterSystem.make([("b", 2, BOB)]), np.array([0.8, 0.6j]))
        xy = tensor(x, y)
        assert xy._coords is None
        assert np.array_equal(xy.amplitudes, np.kron(x.amplitudes, y.amplitudes))

    def test_canonical_purification_matches_a_loop(self):
        probs = np.array([0.1, 0.0, 0.3, 0.0, 0.2, 0.4])
        rho = classical_state(probs, [("x", 6, ALICE)])
        got = canonical_purification(rho, "R")
        support = np.flatnonzero(probs)
        want = np.zeros(probs.size * support.size, dtype=complex)
        for k, z in enumerate(support):
            want[z * support.size + k] = math.sqrt(probs[z])
        assert got._coords is not None
        assert np.max(np.abs(got.amplitudes - want)) < 1e-15


class TestIndexGuards:
    """Support-form factors of dims >= 2^32: no guard can be reached by allocating."""

    def test_tensor_refuses_products_beyond_int64(self):
        x = _point("a", 2 ** 32, 2 ** 32 - 1)
        for dim in (2 ** 31, 2 ** 32, 2 ** 40):
            with pytest.raises(ValueError, match="int64"):
                tensor(x, _point("b", dim, dim - 1))

    def test_largest_product_keeps_exact_indices(self):
        x = _point("a", 2 ** 32, 2 ** 32 - 1, 1j)
        y = _point("b", 2 ** 31 - 1, 2 ** 31 - 2)
        xy = tensor(x, y)
        top = (2 ** 32 - 1) * (2 ** 31 - 1) + 2 ** 31 - 2
        assert top < 2 ** 63
        assert xy._coords.idx.tolist() == [top]
        assert xy._coords.vals.tolist() == [1j]

    def test_amplitudes_refused_above_max_dim(self):
        x = _point("a", 2 ** 32, 7)
        with pytest.raises(ValueError, match="DEFAULT_MAX_DIM"):
            x.amplitudes
        with pytest.raises(ValueError, match="DEFAULT_MAX_DIM"):
            x.tensor_view()
        assert x.norm == 1.0
        big = tensor(x, _point("b", 2 ** 20, 3))
        assert big.system.total_dim == 2 ** 52
        with pytest.raises(ValueError, match="DEFAULT_MAX_DIM"):
            big.amplitudes


def test_failure_probability_above_max_dim_reads_the_output():
    # an idle |0> register of dim 2^25 at Bob makes the final state 2^31
    # amplitudes in support form; the marginal comes from the channel
    # output, never from the dense final state
    fp = and_pair()
    p = noisy_protocol_for(fp, 0.3)
    idle = _point("Idle", 2 ** 25, 0).with_holders({"Idle": BOB})
    u1, u2, u3 = p.unitaries
    big = replace(
        p,
        preshared=tensor(p.preshared, idle),
        unitaries=(u1, u2.extended(idle.system.registers), u3),
        bob_scratch=p.bob_scratch + ("Idle",),
    )
    mu = np.array([[0.4, 0.3], [0.2, 0.1]])
    got = failure_probability(big, fp, mu, max_dim=2 ** 32)
    assert abs(got - failure_probability(p, fp, mu)) < 1e-12


def _run_in_form(p, inp, ratio):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hilbert, "_SUPPORT_RATIO", ratio)
        traj = run(p, inp)
        terms = qic_terms(p, inp)
    forms = {s._coords is None for s in traj.steps + (traj.final_state,)}
    assert forms == {ratio == ALL_DENSE}
    return traj, terms


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31 - 1),
    messages=st.sampled_from([2, 4]),
    alice_dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    bob_dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    preshared=st.sampled_from([(1, 1), (2, 1), (2, 2)]),
    classical=st.booleans(),
)
def test_both_forms_agree_on_random_protocols(
    seed, messages, alice_dims, bob_dims, preshared, classical
):
    p = random_protocol(
        seed, messages, alice_in_dims=alice_dims, bob_in_dims=bob_dims, preshared_dims=preshared
    )
    if classical:
        # the basis-labelled purification: one amplitude per support point
        inp = random_input_density(p, seed, classical=True)
    else:
        specs = [(r.name, r.dim, ALICE) for r in p.alice_in]
        specs += [(r.name, r.dim, BOB) for r in p.bob_in] + [("Rin", 3, REFERENCE)]
        inp = _sparse_vector(specs, seed)
    sparse, sparse_terms = _run_in_form(p, inp, ALL_SUPPORT)
    dense, dense_terms = _run_in_form(p, inp, ALL_DENSE)
    assert np.max(np.abs(np.subtract(sparse_terms, dense_terms))) < 1e-12
    assert len(sparse.steps) == len(dense.steps) == messages
    for a, b in zip(sparse.steps + (sparse.final_state,), dense.steps + (dense.final_state,)):
        assert a.system == b.system
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12
    assert sparse.output.system == dense.output.system
    assert np.max(np.abs(sparse.output.matrix - dense.output.matrix)) < 1e-12


def test_slot_averaged_run_does_no_ambient_work(monkeypatch):
    """The two-slot averaged protocol runs on its 7,776 nonzero amplitudes.

    No ``np.kron`` is called and no ``np.zeros``/``np.empty`` of the
    3,981,312 ambient size. The traced peak stays below a quarter of one
    ambient complex array, so no ambient array of complex entries exists
    during the run, and with it no ``astype`` (such as a boolean scan) of one.
    """
    pd = random_protocol(7, 2, alice_in_dims=(2, 2), bob_in_dims=(2, 2), preshared_dims=(1, 1))
    mu = np.array([[1.0, 1.0], [1.0, 0.0]]) / 3.0
    pa = and_average_protocol(pd, mu, 2)
    sigma = classical_state(mu, [(pa.alice_in[0].name, 2, ALICE), (pa.bob_in[0].name, 2, BOB)])
    ambient = 3_981_312
    sizes = []

    def no_kron(*args, **kwargs):
        raise AssertionError("np.kron called")

    def spy(fn):
        def wrapped(shape, *args, **kwargs):
            sizes.append(math.prod(np.atleast_1d(shape).tolist()))
            return fn(shape, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(np, "kron", no_kron)
    monkeypatch.setattr(np, "zeros", spy(np.zeros))
    monkeypatch.setattr(np, "empty", spy(np.empty))
    tracemalloc.start()
    try:
        traj = run(pa, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = traj.final_state
    assert final.system.total_dim == ambient
    assert final._coords.idx.size == 7776
    assert sizes and max(sizes) < ambient
    assert peak < 16 * ambient // 4
    out = reduced_density(final, list(pa.alice_out) + list(pa.bob_out) + list(final.system.reference_names))
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-12


# -- index arithmetic ---------------------------------------------------------


def _reference_split(nz, shape, row_axes):
    """The digit-by-digit split: each row axis's digit by one division and
    one remainder, and each struck out of the column, most significant first."""
    r, c = np.zeros_like(nz), nz
    for a in row_axes:
        r = r * shape[a] + nz // math.prod(shape[a + 1:]) % shape[a]
    for a in sorted(row_axes):
        low = math.prod(shape[a + 1:])
        c = c // (low * shape[a]) * low + c % low
    return r, c


@st.composite
def _split_cases(draw, small=False):
    """A support over a shape (dim-1 registers included; unless ``small``,
    totals up to 2^63 - 1) and row axes in any order, from none to all."""
    dims = st.integers(1, 4) if small else st.one_of(st.integers(1, 4), st.integers(1, 2 ** 31))
    shape = []
    for d in draw(st.lists(dims, min_size=1, max_size=7)):
        if math.prod(shape) * d >= 2 ** 63:
            break
        shape.append(d)
    total = math.prod(shape)
    near_top = st.integers(max(0, total - 64), total - 1)
    nz = np.unique(
        np.array(
            draw(st.lists(st.one_of(st.integers(0, total - 1), near_top), min_size=1, max_size=40)),
            dtype=np.int64,
        )
    )
    order = draw(st.permutations(range(len(shape))))
    row_axes = order[: draw(st.integers(0, len(shape)))]
    vals = np.arange(1, nz.size + 1) * (1 + 1j)
    return hilbert._Coords(nz, vals, tuple(shape)), list(row_axes)


def _case(shape, idx, row_axes):
    nz = np.array(idx, dtype=np.int64)
    return hilbert._Coords(nz, np.ones(nz.size, dtype=complex), shape), row_axes


@settings(max_examples=300, deadline=None)
@given(case=_split_cases())
@example(case=_case((2 ** 31, 2 ** 31), [0, 2 ** 62 - 2 ** 31, 2 ** 62 - 1], [1]))
@example(case=_case((3, 2 ** 61), [2 ** 61 - 1, 3 * 2 ** 61 - 2, 3 * 2 ** 61 - 1], [1, 0]))
@example(case=_case((2, 1, 3, 1, 2), [0, 5, 11], []))
@example(case=_case((2, 1, 3, 1, 2), [0, 5, 11], [4, 3, 2, 1, 0]))
@example(case=_case((2, 1, 3, 1, 2), [0, 5, 11], [0, 1, 2, 3, 4]))
@example(case=_case((4, 3, 2, 5), [1, 17, 60, 119], [2, 0]))
def test_split_index_matches_the_digit_formula(case):
    data, row_axes = case
    before = data.idx.copy()
    got = hilbert._split_index(data, row_axes)
    want = _reference_split(before, data.shape, row_axes)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)
    assert np.array_equal(data.idx, before)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.one_of(st.integers(0, 7), st.integers(0, 2 ** 62)), min_size=1, max_size=60),
    branch=st.sampled_from(["presence map", "sort"]),
)
def test_distinct_matches_unique(values, branch):
    x = np.array(values, dtype=np.int64)
    ceiling = hilbert._SUPPORT_RATIO * x.size
    if branch == "presence map":
        x %= ceiling
    else:
        x[0] = max(x[0], ceiling)
    assert (int(x.max()) < ceiling) == (branch == "presence map")
    before = x.copy()
    got_values, got_inverse = hilbert._distinct(x)
    want_values, want_inverse = np.unique(x, return_inverse=True)
    assert np.array_equal(got_values, want_values)
    assert np.array_equal(got_inverse, want_inverse)
    assert np.array_equal(x, before)


@settings(max_examples=200, deadline=None)
@given(case=_split_cases(small=True), seed=st.integers(0, 2 ** 32 - 1))
def test_index_map_stage_orders_its_output(case, seed):
    data, consumed = case
    if not consumed:
        consumed = [0]
    shape = data.shape
    order = [hilbert.Register(f"q{a}", d) for a, d in enumerate(shape)]
    d = math.prod(shape[a] for a in consumed)
    perm = np.random.default_rng(seed).permutation(d)
    stage = hilbert.Stage._permutation(perm, [f"q{a}" for a in consumed], [hilbert.Register("out", d)])
    new, new_order = hilbert._apply_stage_array(data, order, stage)
    rest = [a for a in range(len(shape)) if a not in consumed]
    assert new.shape == (d,) + tuple(shape[a] for a in rest)
    assert [r.name for r in new_order] == ["out"] + [f"q{a}" for a in rest]
    r, c = _reference_split(data.idx, shape, consumed)
    flat = perm[r] * math.prod(shape[a] for a in rest) + c
    at = np.argsort(flat)
    assert np.all(np.diff(new.idx) > 0)
    assert np.array_equal(new.idx, flat[at])
    assert np.array_equal(new.vals, data.vals[at])


# The support form's index arithmetic stays remainder-free and sort-light:
# numpy's integer remainder costs ~4x its floor division, and these functions
# run over every coordinate of every support-form stage and entropy.
_GUARDED = (
    "_split_index",
    "_distinct",
    "_support_matrix",
    "_support_blocks",
    "_apply_stage_array",
    "reduced_density",
)
_REMAINDERS = {"divmod", "mod", "remainder", "fmod"}


def _index_arithmetic_faults(source: str) -> list[tuple[int, str]]:
    """(line, what) of each remainder, ``np.unique`` or non-stable sort in the
    guarded functions of ``source``: a ``%``, ``divmod``, ``np.divmod``,
    ``np.mod``, ``np.remainder``, ``np.fmod``, ``np.unique``, or an
    ``argsort`` or ``sort`` call without ``kind="stable"``."""
    hits = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in _GUARDED):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
                hits.append((node.lineno, "%"))
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            on_np = (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id in ("np", "numpy")
            )
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            stable = any(
                k.arg == "kind" and isinstance(k.value, ast.Constant) and k.value.value == "stable"
                for k in node.keywords
            )
            if isinstance(f, ast.Name) and name == "divmod":
                hits.append((node.lineno, "divmod"))
            elif on_np and name in _REMAINDERS | {"unique"}:
                hits.append((node.lineno, f"np.{name}"))
            elif name in ("argsort", "sort") and not stable:
                hits.append((node.lineno, f"{name} without kind='stable'"))
    return sorted(hits)


class TestIndexArithmeticGuard:
    def test_support_form_functions_take_no_remainder_and_no_unstable_sort(self):
        source = Path(hilbert.__file__).read_text()
        defined = {n.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)}
        assert set(_GUARDED) <= defined
        hits = [f"hilbert.py:{line}: {what}" for line, what in _index_arithmetic_faults(source)]
        assert not hits, "remainders or sorts in the support-form arithmetic:\n" + "\n".join(hits)

    def test_guard_names_each_fault(self):
        source = "\n".join(
            [
                "import numpy as np",
                "def _split_index(x, p):",
                "    a = x % p",
                "    x %= p",
                "    q, j = divmod(x, p)",
                "    q, j = np.divmod(x, p)",
                "    j = np.mod(x, p)",
                "    j = numpy.remainder(x, p)",
                "    j = np.fmod(x, p)",
                "    v, i = np.unique(x, return_inverse=True)",
                "    o = np.argsort(x)",
                "    o = x.argsort(kind='quicksort')",
                "    x.sort()",
                "    s = np.sort(x, kind='mergesort')",
                "    o = np.argsort(x, kind='stable')",
                "    q = x // p",
                "    return sorted(q), f'{q % 2}'",
                "def elsewhere(x, p):",
                "    return x % p, np.unique(x), np.argsort(x)",
            ]
        )
        assert _index_arithmetic_faults(source) == [
            (3, "%"),
            (4, "%"),
            (5, "divmod"),
            (6, "np.divmod"),
            (7, "np.mod"),
            (8, "np.remainder"),
            (9, "np.fmod"),
            (10, "np.unique"),
            (11, "argsort without kind='stable'"),
            (12, "argsort without kind='stable'"),
            (13, "sort without kind='stable'"),
            (14, "sort without kind='stable'"),
            (17, "%"),
        ]
