"""Entropic quantities and distances on multi-register states.

All logarithms are base 2 and 0 log 0 = 0. Entropies of subsystems of a
pure global state are evaluated on the smaller side of the bipartition,
using the fact that both sides of a pure state share a spectrum; that
side's spectrum is the eigenvalue list of its Gram matrix M M^dagger.
M comes from :func:`qiclab.hilbert._support_blocks` as a direct sum of
blocks. A dense state is one block. A state in support form splits into
the connected components of M's exact nonzero pattern, each cut to its
exactly-nonzero rows and columns, and the spectrum is the union of the
blocks' Gram spectra. The split is exact (no threshold) and shrinks the
Gram matrices of states with many zero amplitudes: classical copies,
padding, and the selector registers of direct sums such as slot averaging.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg.blas import zherk
from scipy.special import xlogy

from .hilbert import (
    TOL_PSD,
    DensityOperator,
    StateValidationError,
    StateVector,
    _eigh,
    _prod,
    _support_blocks,
    reduced_density,
)

LOG2 = np.log(2.0)


def _entropy_from_spectrum(w: np.ndarray) -> float:
    """Shannon entropy (bits) of an eigenvalue list with clamping.

    Eigenvalues in [-TOL_PSD, 0) are clamped to zero; anything below
    -TOL_PSD is an invalid state.
    """
    w = np.asarray(w, dtype=float)
    lo = float(w.min()) if w.size else 0.0
    if lo < -TOL_PSD:
        raise StateValidationError(f"eigenvalue {lo} below -{TOL_PSD}: state invalid")
    w = np.maximum(w, 0.0)
    h = float(-xlogy(w, w).sum() / LOG2)
    return max(h, 0.0)


def _pure_subsystem_spectrum(state: StateVector, subsystem: Sequence[str]) -> np.ndarray:
    """Spectrum of a reduction of a pure state, via the smaller side, block by block.

    The eigenvalues of the Gram matrix M M^dagger of the (side, rest)
    bipartition matrix M are the squared singular values of M. M comes
    from :func:`_support_blocks` as a list of blocks. A dense state gives
    one block, the whole M. A support-form state gives one block per
    connected component of M's exact nonzero pattern, each cut to its
    rows and columns: up to a permutation of rows and columns M is their
    direct sum, so the nonzero spectrum of M M^dagger is the union of the
    blocks' nonzero spectra. Exactly-zero rows only add zero eigenvalues
    and exactly-zero columns leave M M^dagger unchanged, so the split uses
    no threshold and is exact. Each block's Gram matrix is formed on its
    smaller side, B B^dagger or B^dagger B, which share their nonzero
    spectrum. Squaring costs absolute precision near zero only (about
    machine epsilon per eigenvalue), which the clamp in
    :func:`_entropy_from_spectrum` absorbs.

    Error bound, to first order in eps (machine epsilon, unit roundoff
    eps/2), per block. Let block b be n_b x k_b on its Gram side
    n_b <= k_b, with weight f_b = ||B_b||_F^2, the f_b summing to
    ||M||_F^2 = 1. zherk forms each Gram entry as a length-k_b inner
    product, so it adds F with ||F||_2 <= ||F||_F <= k_b (eps/2) f_b.
    zheevd returns the exact spectrum of the computed Gram matrix plus E,
    ||E||_2 <= p(n_b) (eps/2) ||G||_2 with ||G||_2 <= f_b, taking LAPACK's
    modestly growing p(n) as n (Householder tridiagonalization, then
    divide and conquer). By Weyl each of the block's eigenvalues moves by
    at most (k_b + n_b) f_b eps/2; the clamp to zero only moves it back
    toward the true value, which is >= 0. Over its n_b eigenvalues block b
    moves the spectrum by n_b (k_b + n_b) f_b eps/4 in trace distance, and
    as the f_b sum to 1 all blocks together move it by
    T <= max_b n_b (k_b + n_b) eps/4 <= c n^2 eps, with n the largest Gram
    side over the blocks and c = (1 + r)/4 for r the largest ratio
    k_b/n_b. By Fannes-Audenaert |dH| <= T log2(N - 1) + h2(T) over the
    N eigenvalues of all blocks.
    A square M in one block (k = N = n, as for a dense state in Schmidt
    form) has c = 1/2: |dH| <= 2.3e-14 bits at n = 2, 5.4e-10 at n = 324.
    """
    system = state.system
    side = system.positions(subsystem)
    dims = system.dims
    # the subsystem unless its dimension exceeds the complement's
    if _prod(dims[i] for i in side) ** 2 > system.total_dim:
        taken = set(side)
        side = [i for i in range(len(dims)) if i not in taken]
    if not side:
        return np.array([1.0])
    spectra = []
    for m in _support_blocks(state._data(), side):
        # herk on the Fortran-ordered view m.T forms the conjugate of m m^dagger
        # (trans=2) or of m^dagger m (trans=0), whichever is smaller, without
        # copying a C-ordered m; only the upper triangle is filled
        trans = 2 if m.shape[0] <= m.shape[1] else 0
        gram = zherk(1.0, m.T, trans=trans)
        spectra.append(_eigh(gram, lower=0, overwrite=True))
    return np.concatenate(spectra)


def _subsystem_spectrum(state, subsystem: Sequence[str]) -> np.ndarray:
    """Eigenvalues of the reduction of ``state`` to ``subsystem``."""
    if isinstance(state, StateVector):
        return _pure_subsystem_spectrum(state, subsystem)
    if isinstance(state, DensityOperator):
        if tuple(subsystem) == state.system.names:
            rho = state
        else:
            rho = reduced_density(state, subsystem)
        return _eigh(rho.matrix)
    raise TypeError(f"cannot take entropy of {type(state).__name__}")


def entropy(state, subsystem: Sequence[str] | None = None) -> float:
    """Von Neumann entropy in bits of a subsystem reduction."""
    if subsystem is None:
        subsystem = state.system.names
    return _entropy_from_spectrum(_subsystem_spectrum(state, subsystem))


def _disjoint(*groups: Sequence[str]) -> None:
    seen: set[str] = set()
    for g in groups:
        g = set(g)
        if g & seen:
            raise ValueError(f"overlapping register groups: {sorted(g & seen)}")
        seen |= g


def cond_entropy(state, a: Sequence[str], b: Sequence[str]) -> float:
    """H(A|B) = H(AB) - H(B)."""
    _disjoint(a, b)
    return entropy(state, list(a) + list(b)) - entropy(state, list(b))


def mutual_info(state, a: Sequence[str], b: Sequence[str]) -> float:
    """I(A;B) = H(A) + H(B) - H(AB)."""
    _disjoint(a, b)
    return (
        entropy(state, list(a))
        + entropy(state, list(b))
        - entropy(state, list(a) + list(b))
    )


def cond_mutual_info(
    state, a: Sequence[str], b: Sequence[str], c: Sequence[str]
) -> float:
    """I(A;B|C) = H(AC) + H(BC) - H(C) - H(ABC)."""
    _disjoint(a, b, c)
    a, b, c = list(a), list(b), list(c)
    return (
        entropy(state, a + c)
        + entropy(state, b + c)
        - entropy(state, c)
        - entropy(state, a + b + c)
    )


def _aligned_matrix(state, subsystem: Sequence[str]) -> np.ndarray:
    if isinstance(state, StateVector) or tuple(subsystem) != state.system.names:
        return reduced_density(state, subsystem).matrix
    return state.matrix


def trace_norm(delta: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(_eigh(delta)).sum())


def trace_distance(state1, state2, subsystem: Sequence[str] | None = None) -> float:
    """Trace distance between two states on a common subsystem, in [0, 2].

    Both states must reduce to register systems with the same names and
    dimensions on ``subsystem``.
    """
    if subsystem is None:
        subsystem = state1.system.names
    subsystem = list(subsystem)
    sub1 = state1.system.subsystem(subsystem)
    sub2 = state2.system.subsystem(subsystem)
    if sub1.names != sub2.names or sub1.dims != sub2.dims:
        raise ValueError(
            f"subsystem mismatch: {sub1.names}/{sub1.dims} vs {sub2.names}/{sub2.dims}"
        )
    m1 = _aligned_matrix(state1, subsystem)
    m2 = _aligned_matrix(state2, subsystem)
    return trace_norm(m1 - m2)
