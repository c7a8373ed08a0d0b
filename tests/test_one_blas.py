"""One BLAS library: no numpy product or solver in the package, and the
scipy BLAS/LAPACK helpers that replace them agree with numpy's."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from qiclab import (
    ALICE,
    BOB,
    canonical_purification,
    classical_state,
    purify,
    reduced_density,
    tensor,
)
from qiclab import hilbert
from qiclab.fuzz import random_density_operator, random_state_vector

SRC = Path(__file__).resolve().parents[1] / "src" / "qiclab"

# numpy calls that reach numpy's bundled BLAS or LAPACK
_NP_PRODUCTS = {"dot", "vdot", "matmul", "inner", "tensordot"}


def _numpy_blas_calls(source: str) -> list[tuple[int, str]]:
    """(line, what) of each numpy BLAS/LAPACK call in ``source``: an ``@``,
    an ``np.linalg`` name other than ``LinAlgError``, a ``.dot`` method or
    one of numpy's product functions."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            hits.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if (
                isinstance(owner, ast.Attribute)
                and owner.attr == "linalg"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy")
                and node.attr != "LinAlgError"
            ):
                hits.append((node.lineno, f"np.linalg.{node.attr}"))
            elif node.attr == "dot":
                hits.append((node.lineno, ".dot"))
            elif (
                node.attr in _NP_PRODUCTS
                and isinstance(owner, ast.Name)
                and owner.id in ("np", "numpy")
            ):
                hits.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            names = [a.name for a in node.names if a.name != "LinAlgError"]
            if names:
                hits.append((node.lineno, f"from numpy.linalg import {', '.join(names)}"))
    return sorted(hits)


class TestOneBlasLibrary:
    def test_package_makes_no_numpy_blas_call(self):
        hits = [
            f"{path.name}:{line}: {what}"
            for path in sorted(SRC.glob("*.py"))
            for line, what in _numpy_blas_calls(path.read_text())
        ]
        assert not hits, "numpy BLAS/LAPACK calls in src/qiclab:\n" + "\n".join(hits)

    def test_guard_names_each_kind_of_call(self):
        source = "\n".join(
            [
                "import numpy as np",
                "c = a @ b",
                "c @= b",
                "w, v = np.linalg.eigh(a)",
                "n = numpy.linalg.norm(a)",
                "c = a.dot(b)",
                "c = np.dot(a, b)",
                "c = np.vdot(a, b)",
                "c = np.matmul(a, b)",
                "c = np.inner(a, b)",
                "c = np.tensordot(a, b, 1)",
                "from numpy.linalg import qr, LinAlgError",
                "raise np.linalg.LinAlgError('kept')",
                "c = scipy.linalg.qr(a)",
            ]
        )
        assert _numpy_blas_calls(source) == [
            (2, "@"),
            (3, "@"),
            (4, "np.linalg.eigh"),
            (5, "np.linalg.norm"),
            (6, ".dot"),
            (7, ".dot"),
            (8, "np.vdot"),
            (9, "np.matmul"),
            (10, "np.inner"),
            (11, "np.tensordot"),
            (12, "from numpy.linalg import qr"),
        ]


_OPS = {0: lambda x: x, 1: lambda x: x.T, 2: lambda x: x.conj().T}


def _operand(rng, rows, cols, layout):
    """A rows x cols operand in one of the layouts the package hands over."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if layout == "c":
        return gauss(rows, cols)
    if layout == "transposed":
        return gauss(cols, rows).T
    if layout == "fancy":  # as st.matrix[:, rows] in a stage product
        wide = gauss(rows, 2 * cols + 1)
        return wide[:, np.sort(rng.choice(wide.shape[1], cols, replace=False))]
    if layout == "real":
        return rng.standard_normal((rows, cols))
    raise ValueError(layout)


def _assert_close(got, want, scale):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale


_LAYOUTS = hs.sampled_from(["c", "transposed", "fancy", "real"])


class TestProduct:
    @settings(max_examples=300, deadline=None)
    @given(
        m=hs.integers(1, 9),
        k=hs.integers(1, 9),
        n=hs.integers(1, 9),
        trans_a=hs.sampled_from([0, 1, 2]),
        trans_b=hs.sampled_from([0, 1, 2]),
        layout_a=_LAYOUTS,
        layout_b=_LAYOUTS,
        seed=hs.integers(0, 2**32 - 1),
    )
    @example(m=1, k=1, n=1, trans_a=0, trans_b=0, layout_a="c", layout_b="c", seed=0)
    @example(m=1, k=1, n=1, trans_a=2, trans_b=1, layout_a="fancy", layout_b="real", seed=1)
    def test_matches_numpy(self, m, k, n, trans_a, trans_b, layout_a, layout_b, seed):
        rng = np.random.default_rng(seed)
        a = _operand(rng, *((k, m) if trans_a else (m, k)), layout_a)
        b = _operand(rng, *((n, k) if trans_b else (k, n)), layout_b)
        got = hilbert._dot(a, b, trans_a=trans_a, trans_b=trans_b)
        want = _OPS[trans_a](a) @ _OPS[trans_b](b)
        assert got.flags.c_contiguous
        _assert_close(got, want, k * np.abs(a).max() * np.abs(b).max())

    @pytest.mark.parametrize(
        "layout_a, layout_b, trans_b",
        [("c", "c", 0), ("fancy", "c", 0), ("c", "transposed", 0), ("c", "c", 2)],
        ids=["c-ordered", "fancy-indexed", "transposed-view", "gram"],
    )
    def test_copies_no_operand(self, layout_a, layout_b, trans_b):
        # the stage products and the reduced-density Gram: only the result is allocated
        rng = np.random.default_rng(5)
        a = _operand(rng, 48, 160, layout_a)
        b = _operand(rng, *((48, 160) if trans_b else (160, 48)), layout_b)
        tracemalloc.start()
        try:
            got = hilbert._dot(a, b, trans_b=trans_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (48, 48) and got.flags.c_contiguous
        # one operand is 123 kB, the result 37 kB
        assert peak < got.nbytes + 4096

    def test_norm_matches_numpy(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 64, 4097):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert abs(hilbert._norm(z) - np.linalg.norm(z)) <= 1e-13 * np.linalg.norm(z)


def _padded_state():
    """A Haar state on a, b next to a classical purification: support form."""
    table = np.array([[0.2, 0.0, 0.1], [0.0, 0.3, 0.0], [0.25, 0.0, 0.15]])
    cls = canonical_purification(
        classical_state(table, [("x", 3, ALICE), ("y", 3, BOB)]), "r"
    )
    st = tensor(random_state_vector([("a", 3, ALICE), ("b", 2, BOB)], 8), cls)
    assert st._coords is not None
    return st


def _numpy_reduction(state, keep):
    system = state.system
    idx = system.positions(keep)
    rest = [i for i in range(len(system.dims)) if i not in idx]
    view = state.amplitudes.reshape(system.dims).transpose(idx + rest)
    m = view.reshape(int(np.prod([system.dims[i] for i in idx])), -1)
    return m @ m.conj().T


class TestReducedDensity:
    @pytest.mark.parametrize("keep", [["a"], ["b", "x"], ["r", "a", "y"], ["x", "y", "r"]])
    def test_support_form_matches_numpy_gram(self, keep):
        st = _padded_state()
        want = _numpy_reduction(st, keep)
        got = reduced_density(st, keep).matrix
        assert got.flags.c_contiguous
        _assert_close(got, want, np.abs(want).max())

    @pytest.mark.parametrize("keep", [["a"], ["c", "a"], ["b", "c"]])
    def test_dense_matches_numpy_gram(self, keep):
        st = random_state_vector([("a", 3, ALICE), ("b", 4, BOB), ("c", 5, BOB)], 4)
        assert st._coords is None
        want = _numpy_reduction(st, keep)
        _assert_close(reduced_density(st, keep).matrix, want, np.abs(want).max())


class TestPurifyEigenvectors:
    @pytest.mark.parametrize("dim, rank, seed", [(1, 1, 0), (2, 1, 1), (4, 4, 2), (6, 3, 3), (12, 5, 4), (24, 24, 5)])
    def test_rebuilds_rho_at_the_same_rank(self, dim, rank, seed):
        rho = random_density_operator([("a", dim, ALICE)], seed, rank)
        pure = purify(rho, "R")
        back = reduced_density(pure, ["a"]).matrix
        assert np.abs(back - rho.matrix).max() <= 1e-12
        numpy_rank = int(np.sum(np.linalg.eigvalsh(rho.matrix) > hilbert.TOL_PSD))
        assert pure.system.register("R").dim == numpy_rank == rank

    def test_eigenpairs_match_numpy(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 5, 31):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = z + z.conj().T
            w, v = hilbert._eigh(a, vectors=True)
            scale = np.abs(a).max() * n
            assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-13 * scale
            assert np.abs(a @ v - v * w).max() <= 1e-13 * scale
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-13 * n
            assert np.abs(hilbert._eigh(a) - w).max() <= 1e-13 * scale

