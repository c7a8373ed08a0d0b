"""Entropic quantities and distances on multi-register states.

All logarithms are base 2 and 0 log 0 = 0. Entropies of subsystems of a
pure global state are evaluated on the smaller side of the bipartition,
using the fact that both sides of a pure state share a spectrum; that
side's spectrum is the eigenvalue list of its Gram matrix M M^dagger.
M comes from :func:`qiclab.hilbert._support_matrix`, the helper that
stage application and the partial trace share: for a sparse state it is
cut to its exactly-nonzero rows and columns, which leaves the nonzero
spectrum unchanged and shrinks the Gram matrix of states with many zero
amplitudes (classical copies, padding, selector registers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.blas import zherk
from scipy.special import xlogy

from .hilbert import (
    TOL_PSD,
    DensityOperator,
    StateValidationError,
    StateVector,
    _prod,
    _support_matrix,
    reduced_density,
)

LOG2 = np.log(2.0)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy value in bits plus the smallest retained eigenvalue."""

    value: float
    subsystem: tuple[str, ...]
    spectrum_floor: float


def _entropy_from_spectrum(w: np.ndarray, tol: float = TOL_PSD) -> tuple[float, float]:
    """Shannon entropy (bits) of an eigenvalue list with clamping.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol is
    an invalid state. Returns (entropy, smallest retained eigenvalue).
    """
    w = np.asarray(w, dtype=float)
    lo = float(w.min()) if w.size else 0.0
    if lo < -tol:
        raise StateValidationError(f"eigenvalue {lo} below -{tol}: state invalid")
    w = np.clip(w, 0.0, None)
    h = float(-np.sum(xlogy(w, w)) / LOG2)
    positive = w[w > 0]
    floor = float(positive.min()) if positive.size else 0.0
    return max(h, 0.0), floor


def _pure_subsystem_spectrum(state: StateVector, subsystem: Sequence[str]) -> np.ndarray:
    """Spectrum of a reduction of a pure state, via the smaller side.

    The eigenvalues of the Gram matrix M M^dagger of the (side, rest)
    bipartition matrix M are the squared singular values of M. M comes
    from :func:`_support_matrix`, cut to its support for a sparse state:
    exactly-zero rows only add zero eigenvalues and exactly-zero columns
    leave M M^dagger unchanged, so dropping them (no threshold) is exact.
    The Gram matrix is formed on the smaller side of M, M M^dagger or
    M^dagger M, which share their nonzero spectrum. Squaring costs
    absolute precision near zero only (about machine epsilon per
    eigenvalue), which the clamp in :func:`_entropy_from_spectrum` absorbs.
    """
    system = state.system
    subsystem = list(subsystem)
    comp = system.complement(subsystem)
    d_sub = _prod(system.register(n).dim for n in subsystem)
    d_comp = system.total_dim // d_sub
    side = subsystem if d_sub <= d_comp else list(comp)
    if not side:
        return np.array([1.0])
    m = _support_matrix(state.tensor_view(), system.positions(side))[2]
    # herk on the Fortran-ordered view m.T forms the conjugate of m m^dagger
    # (trans=2) or of m^dagger m (trans=0), whichever is smaller, without
    # copying a C-ordered m; only the upper triangle is filled
    trans = 2 if m.shape[0] <= m.shape[1] else 0
    gram = zherk(1.0, m.T, trans=trans)
    return np.linalg.eigvalsh(gram, UPLO="U")


def _subsystem_spectrum(state, subsystem: Sequence[str]) -> np.ndarray:
    """Eigenvalues of the reduction of ``state`` to ``subsystem``."""
    if isinstance(state, StateVector):
        return _pure_subsystem_spectrum(state, subsystem)
    if isinstance(state, DensityOperator):
        if tuple(subsystem) == state.system.names:
            rho = state
        else:
            rho = reduced_density(state, subsystem)
        return np.linalg.eigvalsh(rho.matrix)
    raise TypeError(f"cannot take entropy of {type(state).__name__}")


def entropy(state, subsystem: Sequence[str] | None = None) -> float:
    """Von Neumann entropy in bits of a subsystem reduction."""
    if subsystem is None:
        subsystem = state.system.names
    return _entropy_from_spectrum(_subsystem_spectrum(state, subsystem))[0]


def entropy_report(state, subsystem: Sequence[str] | None = None) -> EntropyReport:
    """Like :func:`entropy` but reporting the retained spectrum floor."""
    if subsystem is None:
        subsystem = state.system.names
    value, floor = _entropy_from_spectrum(_subsystem_spectrum(state, subsystem))
    return EntropyReport(value, tuple(subsystem), floor)


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
    return float(np.sum(np.abs(np.linalg.eigvalsh(delta))))


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
