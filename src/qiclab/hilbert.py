"""Finite-dimensional register algebra.

Named tensor factors with holder tags, pure state vectors, density
operators, unitaries, partial trace, purification and channel dilations.

Stage application, the partial trace of a pure state and the entropy
kernel in :mod:`qiclab.measures` see a state as a (registers, rest)
matrix through one helper, :func:`_support_matrix`, which cuts it to
its exactly-nonzero rows and columns when the state is sparse (classical
copies, zero padding, selector registers) and never transposes the full
array in that case.

Basis convention: registers are ordered and the leftmost register is the
most significant index; matrices are row-major over that ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg

TOL_NORM = 1e-9
TOL_HERM = 1e-9
TOL_UNITARY = 1e-9
TOL_PSD = 1e-9
TOL_EQ = 1e-8

#: Largest global pure-state dimension a simulation will accept by default.
DEFAULT_MAX_DIM = 2 ** 24

#: An array is cut to its support when at most 1/_SUPPORT_RATIO of its
#: entries are nonzero. Gathering by coordinates costs up to ~200 ns per
#: nonzero entry, a dense transpose ~8 ns per entry (2-vCPU Xeon, numpy
#: 2.4): on a 4M-entry array the two break even near 1/32 nonzero. The
#: larger share keeps small states compressed, where the Gram matrix's
#: eigensolver, not the gather, dominates.
_SUPPORT_RATIO = 4


class StateValidationError(ValueError):
    """An object violates a numerical validity gate (norm, trace, PSD...)."""


class Holder(Enum):
    """Who currently holds a register."""

    ALICE = "alice"
    BOB = "bob"
    IN_FLIGHT = "in_flight"
    REFERENCE = "reference"


ALICE = Holder.ALICE
BOB = Holder.BOB
IN_FLIGHT = Holder.IN_FLIGHT
REFERENCE = Holder.REFERENCE


@dataclass(frozen=True)
class Register:
    """A named tensor factor with a fixed dimension."""

    name: str
    dim: int

    def __post_init__(self):
        if not self.name:
            raise ValueError("register name must be non-empty")
        if self.dim < 1:
            raise ValueError(f"register {self.name!r}: dim must be >= 1, got {self.dim}")


def _prod(dims: Iterable[int]) -> int:
    out = 1
    for d in dims:
        out *= d
    return out


@dataclass(frozen=True)
class RegisterSystem:
    """An ordered collection of uniquely named registers with holder tags."""

    registers: tuple[Register, ...]
    holders: tuple[Holder, ...]

    def __post_init__(self):
        if len(self.registers) != len(self.holders):
            raise ValueError("one holder tag required per register")
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate register names: {dupes}")

    @staticmethod
    def make(specs: Iterable[tuple[str, int, Holder]]) -> "RegisterSystem":
        regs, holders = [], []
        for name, dim, holder in specs:
            regs.append(Register(name, dim))
            holders.append(holder)
        return RegisterSystem(tuple(regs), tuple(holders))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def total_dim(self) -> int:
        return _prod(self.dims)

    def index(self, name: str) -> int:
        for i, r in enumerate(self.registers):
            if r.name == name:
                return i
        raise KeyError(f"unknown register {name!r}; have {self.names}")

    def register(self, name: str) -> Register:
        return self.registers[self.index(name)]

    def holder_of(self, name: str) -> Holder:
        return self.holders[self.index(name)]

    def positions(self, names: Sequence[str]) -> list[int]:
        return [self.index(n) for n in names]

    def held_by(self, holder: Holder) -> tuple[str, ...]:
        return tuple(r.name for r, h in zip(self.registers, self.holders) if h is holder)

    @property
    def reference_names(self) -> tuple[str, ...]:
        return self.held_by(REFERENCE)

    def complement(self, names: Sequence[str]) -> tuple[str, ...]:
        keep = set(names)
        return tuple(r.name for r in self.registers if r.name not in keep)

    def subsystem(self, names: Sequence[str]) -> "RegisterSystem":
        idx = self.positions(names)
        return RegisterSystem(
            tuple(self.registers[i] for i in idx),
            tuple(self.holders[i] for i in idx),
        )

    def with_holders(self, mapping: Mapping[str, Holder]) -> "RegisterSystem":
        unknown = set(mapping) - set(self.names)
        if unknown:
            raise KeyError(f"unknown registers in holder update: {sorted(unknown)}")
        holders = tuple(
            mapping.get(r.name, h) for r, h in zip(self.registers, self.holders)
        )
        return RegisterSystem(self.registers, holders)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    # every tolerance comparison is False for NaN, so the gates test this first
    if not np.isfinite(arr).all():
        raise StateValidationError(f"{what} has non-finite entries")


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over a register system."""

    system: RegisterSystem
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.system.total_dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, "
                f"system dimension is {self.system.total_dim}"
            )
        _require_finite(amps, "amplitude vector")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > TOL_NORM:
            raise StateValidationError(f"state norm {nrm} deviates from 1 beyond {TOL_NORM}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @classmethod
    def _unchecked(cls, system: RegisterSystem, amps: np.ndarray) -> "StateVector":
        self = object.__new__(cls)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "amplitudes", _freeze(amps))
        return self

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.system.dims)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def with_holders(self, mapping: Mapping[str, Holder]) -> "StateVector":
        return StateVector._unchecked(self.system.with_holders(mapping), self.amplitudes)


@dataclass(frozen=True)
class DensityOperator:
    """A density operator over a register system.

    ``classical`` flags states diagonal in the computational basis; the
    flag selects the basis-labelled purification instead of the spectral
    one when such a state enters a protocol.
    """

    system: RegisterSystem
    matrix: np.ndarray
    classical: bool = False

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        d = self.system.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dimension {d}")
        _require_finite(mat, "density matrix")
        if np.max(np.abs(mat - mat.conj().T)) > TOL_HERM:
            raise StateValidationError("density matrix is not Hermitian within tolerance")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > max(TOL_NORM, 1e-12 * d):
            raise StateValidationError(f"trace {tr} deviates from 1 beyond tolerance")
        object.__setattr__(self, "matrix", _freeze(mat))

    @classmethod
    def _unchecked(cls, system: RegisterSystem, mat: np.ndarray, classical: bool = False):
        self = object.__new__(cls)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "matrix", _freeze(mat))
        object.__setattr__(self, "classical", classical)
        return self

    def validate_psd(self, tol: float = TOL_PSD) -> float:
        """Return the smallest eigenvalue; raise if below ``-tol``."""
        lo = float(np.linalg.eigvalsh(self.matrix)[0])
        if lo < -tol:
            raise StateValidationError(f"smallest eigenvalue {lo} below -{tol}")
        return lo


@dataclass(frozen=True)
class Stage:
    """One factor of a staged unitary: a square matrix acting on a block.

    ``in_names`` are consumed, ``out_regs`` are produced; the products of
    the input and output dimensions must both equal the matrix side.
    """

    matrix: np.ndarray
    in_names: tuple[str, ...]
    out_regs: tuple[Register, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = mat.shape[0]
        if mat.ndim != 2 or mat.shape[1] != d:
            raise ValueError("stage matrix must be square")
        out_d = _prod(r.dim for r in self.out_regs)
        if out_d != d:
            raise ValueError(
                f"stage output dimension {out_d} does not match matrix side {d}"
            )
        if len(set(self.in_names)) != len(self.in_names):
            raise ValueError("duplicate names in stage inputs")
        out_names = [r.name for r in self.out_regs]
        if len(set(out_names)) != len(out_names):
            raise ValueError("duplicate names in stage outputs")
        _require_finite(mat, "stage matrix")
        err = np.max(np.abs(mat.conj().T @ mat - np.eye(d)))
        if err > TOL_UNITARY:
            raise StateValidationError(f"stage matrix not unitary: deviation {err}")
        object.__setattr__(self, "matrix", _freeze(np.array(mat)))


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary from one ordered register block to another.

    Represented as a sequence of stages applied left to right; registers
    of ``in_regs`` untouched by every stage pass through unchanged. A
    plain dense unitary is a single stage consuming the whole block.
    """

    in_regs: tuple[Register, ...]
    out_regs: tuple[Register, ...]
    stages: tuple[Stage, ...]

    def __post_init__(self):
        current = {r.name: r.dim for r in self.in_regs}
        if len(current) != len(self.in_regs):
            raise ValueError("duplicate input register names")
        for k, st in enumerate(self.stages):
            d_in = 1
            for n in st.in_names:
                if n not in current:
                    raise ValueError(f"stage {k} consumes unknown register {n!r}")
                d_in *= current.pop(n)
            if d_in != st.matrix.shape[0]:
                raise ValueError(
                    f"stage {k}: input dimension {d_in} does not match matrix "
                    f"side {st.matrix.shape[0]}"
                )
            for r in st.out_regs:
                if r.name in current:
                    raise ValueError(f"stage {k} output name {r.name!r} collides")
                current[r.name] = r.dim
        declared = {r.name: r.dim for r in self.out_regs}
        if declared != current:
            raise ValueError(
                f"declared outputs {declared} do not match staged outputs {current}"
            )

    @classmethod
    def dense(
        cls,
        matrix: np.ndarray,
        in_regs: Sequence[Register],
        out_regs: Sequence[Register],
    ) -> "UnitaryOp":
        in_regs = tuple(in_regs)
        out_regs = tuple(out_regs)
        return cls(in_regs, out_regs, (Stage(np.asarray(matrix), tuple(r.name for r in in_regs), out_regs),))

    @classmethod
    def rename(cls, in_regs: Sequence[Register], out_regs: Sequence[Register]) -> "UnitaryOp":
        """Identity map that relabels a register block."""
        d = _prod(r.dim for r in in_regs)
        return cls.dense(np.eye(d), in_regs, out_regs)

    def extended(self, passthrough: Sequence[Register]) -> "UnitaryOp":
        """Adjoin registers that the unitary formally covers but never touches."""
        extra = tuple(passthrough)
        return UnitaryOp(self.in_regs + extra, self.out_regs + extra, self.stages)

    @property
    def in_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.in_regs)

    @property
    def out_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.out_regs)

    @property
    def dim(self) -> int:
        return _prod(r.dim for r in self.in_regs)

    @property
    def matrix(self) -> np.ndarray:
        """Materialize the dense matrix (in_regs order to out_regs order)."""
        d = self.dim
        arr = np.eye(d, dtype=complex).reshape(tuple(r.dim for r in self.in_regs) + (d,))
        order = list(self.in_regs)
        for st in self.stages:
            arr, order = _apply_stage_array(arr, order, st)
        pos = [[r.name for r in order].index(n) for n in self.out_names]
        arr = np.transpose(arr, pos + [len(order)])
        return arr.reshape(d, d)


def tensor_unitaries(u1: UnitaryOp, u2: UnitaryOp) -> UnitaryOp:
    """Tensor product of unitaries on disjoint register blocks."""
    overlap = set(u1.in_names + u1.out_names) & set(u2.in_names + u2.out_names)
    if overlap:
        raise ValueError(f"register name collision in tensor: {sorted(overlap)}")
    return UnitaryOp(u1.in_regs + u2.in_regs, u1.out_regs + u2.out_regs, u1.stages + u2.stages)


def chain_unitaries(first: UnitaryOp, second: UnitaryOp) -> UnitaryOp:
    """Apply ``first`` then ``second``; ``second`` may consume outputs of ``first``."""
    current = {r.name: r.dim for r in first.out_regs}
    for r in second.in_regs:
        if r.name not in current:
            current[r.name] = r.dim
        elif current[r.name] != r.dim:
            raise ValueError(f"dimension mismatch on {r.name!r} when chaining")
    extra_in = tuple(r for r in second.in_regs if r.name not in {x.name for x in first.in_regs + first.out_regs})
    leftover = tuple(r for r in first.out_regs if r.name not in set(second.in_names))
    return UnitaryOp(first.in_regs + extra_in, leftover + second.out_regs, first.stages + second.stages)


def _support_matrix(arr: np.ndarray, row_axes: Sequence[int]):
    """An array as its (``row_axes``, other axes) matrix, cut to its support.

    Returns ``(rows, cols, m)``. The rows of the full matrix run over
    ``row_axes`` in the given order and its columns over the other axes in
    theirs; ``m`` keeps only the rows and columns holding an entry that is
    exactly nonzero (no threshold), and ``rows``, ``cols`` are their sorted
    indices in the full matrix. ``m`` is built from the coordinates of the
    nonzero entries, so the array itself is never transposed. An array with
    more than 1/``_SUPPORT_RATIO`` of its entries nonzero gives ``rows =
    cols = None`` and the whole matrix instead, decided by one count and
    built without index arrays.
    """
    row_axes = list(row_axes)
    shape = arr.shape
    d_row = _prod(shape[a] for a in row_axes)
    flat = arr.reshape(-1)
    # one pass over the array; counting and locating on the boolean mask
    # is cheap next to scanning complex entries again
    mask = flat.astype(bool)
    if _SUPPORT_RATIO * np.count_nonzero(mask) > flat.size:
        perm = row_axes + [a for a in range(arr.ndim) if a not in row_axes]
        return None, None, np.ascontiguousarray(arr.transpose(perm)).reshape(d_row, -1)
    nz = np.flatnonzero(mask)
    # row index: the row axes' digits of each flat index; column index: the
    # flat index with those digits struck out, most significant first
    r, c = 0, nz
    for a in row_axes:
        r = r * shape[a] + nz // _prod(shape[a + 1:]) % shape[a]
    for a in sorted(row_axes):
        low = _prod(shape[a + 1:])
        c = c // (low * shape[a]) * low + c % low
    rows, r = _occupied(r, d_row)
    cols, c = _occupied(c, flat.size // d_row)
    m = np.zeros((rows.size, cols.size), dtype=arr.dtype)
    m[r, c] = flat[nz]
    return rows, cols, m


def _occupied(idx: np.ndarray, n: int):
    """Sorted distinct values of ``idx`` (all in ``range(n)``) and each entry's rank."""
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    kept = np.flatnonzero(seen)
    return kept, np.searchsorted(kept, idx)


def _apply_stage_array(arr: np.ndarray, order: list[Register], st: Stage):
    """Apply a stage to an array whose leading axes follow ``order``.

    Trailing axes beyond the registers (if any) ride along untouched. The
    stage matrix multiplies only the support of the array's (consumed,
    rest) matrix; the product fills the nonzero columns of a zeroed result.
    """
    names = [r.name for r in order]
    idx = [names.index(n) for n in st.in_names]
    rest_shape = tuple(d for i, d in enumerate(arr.shape) if i not in idx)
    rows, cols, m = _support_matrix(arr, idx)
    if rows is None:
        new = st.matrix @ m
    else:
        new = np.zeros((st.matrix.shape[0], _prod(rest_shape)), dtype=complex)
        new[:, cols] = st.matrix[:, rows] @ m
    out_dims = tuple(r.dim for r in st.out_regs)
    new = new.reshape(out_dims + rest_shape)
    kept = [order[i] for i in range(len(order)) if i not in idx]
    return new, list(st.out_regs) + kept


def tensor(x, y):
    """Tensor product of two objects of the same kind (disjoint names)."""
    if isinstance(x, StateVector) and isinstance(y, StateVector):
        sysx, sysy = x.system, y.system
        overlap = set(sysx.names) & set(sysy.names)
        if overlap:
            raise ValueError(f"register name collision: {sorted(overlap)}")
        system = RegisterSystem(
            sysx.registers + sysy.registers, sysx.holders + sysy.holders
        )
        return StateVector._unchecked(system, np.kron(x.amplitudes, y.amplitudes))
    if isinstance(x, DensityOperator) and isinstance(y, DensityOperator):
        overlap = set(x.system.names) & set(y.system.names)
        if overlap:
            raise ValueError(f"register name collision: {sorted(overlap)}")
        system = RegisterSystem(
            x.system.registers + y.system.registers, x.system.holders + y.system.holders
        )
        return DensityOperator._unchecked(
            system, np.kron(x.matrix, y.matrix), classical=x.classical and y.classical
        )
    if isinstance(x, UnitaryOp) and isinstance(y, UnitaryOp):
        return tensor_unitaries(x, y)
    raise TypeError(f"cannot tensor {type(x).__name__} with {type(y).__name__}")


def permute(x, order: Sequence[str]):
    """Reorder the registers of a state; the physical state is unchanged."""
    system = x.system
    if sorted(order) != sorted(system.names):
        raise ValueError(f"{tuple(order)} is not a permutation of {system.names}")
    idx = system.positions(order)
    new_system = system.subsystem(order)
    if isinstance(x, StateVector):
        view = x.tensor_view()
        amps = np.transpose(view, idx).reshape(-1)
        return StateVector._unchecked(new_system, np.ascontiguousarray(amps))
    if isinstance(x, DensityOperator):
        n = len(system.registers)
        view = x.matrix.reshape(system.dims + system.dims)
        perm = idx + [i + n for i in idx]
        mat = np.transpose(view, perm).reshape(x.matrix.shape)
        return DensityOperator._unchecked(new_system, np.ascontiguousarray(mat), x.classical)
    raise TypeError(f"cannot permute {type(x).__name__}")


def apply_unitary(
    state: StateVector,
    u: UnitaryOp,
    holders: Mapping[str, Holder] | None = None,
) -> StateVector:
    """Apply ``u`` to its named target registers, identity elsewhere.

    Target registers are replaced by ``u``'s output registers. Holders for
    new names come from ``holders``; absent that, an output inherits the
    holder shared by all consumed registers of its stage.
    """
    holders = dict(holders or {})
    system = state.system
    for r in u.in_regs:
        have = system.register(r.name)
        if have.dim != r.dim:
            raise ValueError(
                f"register {r.name!r} has dim {have.dim}, unitary expects {r.dim}"
            )
    arr = state.tensor_view()
    order = list(system.registers)
    holder_map = {r.name: h for r, h in zip(system.registers, system.holders)}
    existing = set(holder_map)
    for st in u.stages:
        src_map = {n: holder_map.pop(n) for n in st.in_names}
        src_holders = set(src_map.values())
        existing -= set(st.in_names)
        for r in st.out_regs:
            if r.name in existing:
                raise ValueError(f"output register name {r.name!r} already in use")
            if r.name in holders:
                holder_map[r.name] = holders[r.name]
            elif r.name in src_map:
                holder_map[r.name] = src_map[r.name]
            elif len(src_holders) == 1:
                holder_map[r.name] = next(iter(src_holders))
            else:
                raise ValueError(
                    f"holder for new register {r.name!r} is ambiguous; pass it explicitly"
                )
            existing.add(r.name)
        arr, order = _apply_stage_array(arr, order, st)
    new_system = RegisterSystem(
        tuple(order), tuple(holder_map[r.name] for r in order)
    )
    return StateVector._unchecked(new_system, np.ascontiguousarray(arr).reshape(-1))


def reduced_density(state, keep: Sequence[str]) -> DensityOperator:
    """Partial trace down to ``keep`` (result ordered as given).

    For pure states the reduction is M M^dagger of the (keep, rest)
    matrix M on its support (:func:`_support_matrix`), placed at the
    support's rows; the global density matrix is never materialized.
    """
    keep = list(keep)
    system = state.system
    sub = system.subsystem(keep)
    if isinstance(state, StateVector):
        rows, _, m = _support_matrix(state.tensor_view(), system.positions(keep))
        gram = m @ m.conj().T
        if rows is not None:
            full = np.zeros((sub.total_dim,) * 2, dtype=complex)
            full[np.ix_(rows, rows)] = gram
            gram = full
        return DensityOperator._unchecked(sub, gram)
    if isinstance(state, DensityOperator):
        n = len(system.registers)
        idx = system.positions(keep)
        rest = [i for i in range(n) if i not in set(idx)]
        view = state.matrix.reshape(system.dims + system.dims)
        perm = idx + rest + [i + n for i in idx] + [i + n for i in rest]
        d_keep = _prod(system.dims[i] for i in idx)
        d_rest = system.total_dim // d_keep
        arr = np.transpose(view, perm).reshape(d_keep, d_rest, d_keep, d_rest)
        mat = np.einsum("arbr->ab", arr)
        return DensityOperator._unchecked(sub, np.ascontiguousarray(mat), state.classical)
    raise TypeError(f"cannot reduce {type(state).__name__}")


def purify(rho: DensityOperator, ref_name: str = "R") -> StateVector:
    """Spectral purification with a rank-sized reference register.

    The reference is appended as the least significant register and
    tagged ``REFERENCE``.
    """
    if ref_name in rho.system.names:
        raise ValueError(f"reference name {ref_name!r} collides with an existing register")
    w, v = np.linalg.eigh(rho.matrix)
    if w[0] < -TOL_PSD:
        raise StateValidationError(f"state not PSD: eigenvalue {w[0]}")
    kept = w > TOL_PSD
    w = w[kept]
    v = v[:, kept]
    rank = int(w.size)
    if rank == 0:
        raise StateValidationError("state has no spectral weight above tolerance")
    amps = (v * np.sqrt(w)).reshape(-1)  # index = (system basis) * rank + k
    amps = amps / np.linalg.norm(amps)
    system = RegisterSystem(
        rho.system.registers + (Register(ref_name, rank),),
        rho.system.holders + (REFERENCE,),
    )
    return StateVector._unchecked(system, amps)


def classical_state(
    table: np.ndarray, registers: Sequence[tuple[str, int, Holder]]
) -> DensityOperator:
    """Diagonal density operator from a probability table over the registers."""
    probs = np.asarray(table, dtype=float).reshape(-1)
    if np.any(probs < 0):
        raise ValueError("negative probability in classical state")
    if abs(probs.sum() - 1.0) > TOL_NORM:
        raise StateValidationError(f"probabilities sum to {probs.sum()}")
    system = RegisterSystem.make(registers)
    if probs.size != system.total_dim:
        raise ValueError("table size does not match register dimensions")
    return DensityOperator._unchecked(system, np.diag(probs.astype(complex)), classical=True)


def canonical_purification(rho: DensityOperator, ref_name: str = "R") -> StateVector:
    """Basis-labelled purification of a diagonal (classical) state.

    The reference register enumerates the support of the diagonal, so a
    support point z maps to sqrt(p(z)) |z>|k(z)>_R.
    """
    if ref_name in rho.system.names:
        raise ValueError(f"reference name {ref_name!r} collides with an existing register")
    diag = np.real(np.diag(rho.matrix))
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    if np.max(np.abs(off)) > TOL_EQ:
        raise ValueError("canonical purification requires a diagonal state")
    if np.any(diag < -TOL_PSD):
        raise StateValidationError("negative probability on the diagonal")
    support = np.nonzero(diag > TOL_PSD)[0]
    s = int(support.size)
    amps = np.zeros(diag.size * s, dtype=complex)
    for k, z in enumerate(support):
        amps[z * s + k] = math.sqrt(diag[z])
    amps /= np.linalg.norm(amps)
    system = RegisterSystem(
        rho.system.registers + (Register(ref_name, s),),
        rho.system.holders + (REFERENCE,),
    )
    return StateVector._unchecked(system, amps)


def canonical_classical_purification(
    table: np.ndarray,
    alice_name: str = "A_in",
    bob_name: str = "B_in",
    ref_name: str = "R",
) -> StateVector:
    """Purify a joint distribution p(x, y) as sum sqrt(p) |x>|y>|xy>_R.

    The x register goes to Alice, the y register to Bob, the support-sized
    reference to neither party.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise ValueError("joint distribution must be a 2-D table")
    dx, dy = table.shape
    rho = classical_state(
        table, [(alice_name, dx, ALICE), (bob_name, dy, BOB)]
    )
    return canonical_purification(rho, ref_name=ref_name)


def measurement_channel(rho: DensityOperator, reg: str) -> DensityOperator:
    """Dephase ``reg`` in the computational basis; trace is preserved."""
    pos = rho.system.index(reg)
    n = len(rho.system.registers)
    dims = rho.system.dims
    view = rho.matrix.reshape(dims + dims)
    out = np.array(view)
    d = dims[pos]
    sl: list = [slice(None)] * (2 * n)
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            idx = list(sl)
            idx[pos] = a
            idx[n + pos] = b
            out[tuple(idx)] = 0
    return DensityOperator._unchecked(rho.system, out.reshape(rho.matrix.shape), rho.classical)


# ---------------------------------------------------------------------------
# Channels as unitary dilations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelOp:
    """A channel in unitary-extension form.

    Action: tensor the input with ``ancilla_state``, apply ``dilation``,
    trace out ``traced``. ``out_regs`` lists the surviving outputs in
    their declared order.
    """

    in_regs: tuple[Register, ...]
    out_regs: tuple[Register, ...]
    ancilla_state: StateVector
    dilation: UnitaryOp
    traced: tuple[str, ...]

    @property
    def in_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.in_regs)

    @property
    def out_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.out_regs)

    def renamed(self, mapping: Mapping[str, str]) -> "ChannelOp":
        """Apply a register-name mapping to every component of the channel."""

        def name(n: str) -> str:
            return mapping.get(n, n)

        def ren(r: Register) -> Register:
            return Register(name(r.name), r.dim)

        anc_sys = self.ancilla_state.system
        anc = StateVector._unchecked(
            RegisterSystem(tuple(ren(r) for r in anc_sys.registers), anc_sys.holders),
            self.ancilla_state.amplitudes,
        )
        stages = tuple(
            Stage(
                st.matrix,
                tuple(name(n) for n in st.in_names),
                tuple(ren(r) for r in st.out_regs),
            )
            for st in self.dilation.stages
        )
        dil = UnitaryOp(
            tuple(ren(r) for r in self.dilation.in_regs),
            tuple(ren(r) for r in self.dilation.out_regs),
            stages,
        )
        return ChannelOp(
            tuple(ren(r) for r in self.in_regs),
            tuple(ren(r) for r in self.out_regs),
            anc,
            dil,
            tuple(name(n) for n in self.traced),
        )

    def _avoiding(self, state_names: Iterable[str]) -> "ChannelOp":
        """Rename non-input channel registers that collide with live names.

        Output registers may reuse the names they consume; every other
        collision against a state register outside ``in_regs`` is renamed.
        """
        external = set(state_names) - set(self.in_names)
        taken = set(state_names) | set(self.in_names) | set(self.out_names)
        taken |= set(self.ancilla_state.system.names)
        for st in self.dilation.stages:
            taken |= {r.name for r in st.out_regs}
        mapping: dict[str, str] = {}
        candidates = list(self.ancilla_state.system.names)
        for st in self.dilation.stages:
            candidates.extend(r.name for r in st.out_regs)
        for n in candidates:
            if n in external and n not in mapping:
                fresh = _fresh_name(n + "~", taken)
                mapping[n] = fresh
                taken.add(fresh)
        return self.renamed(mapping) if mapping else self

    def apply_to_vector(self, state: StateVector) -> tuple[StateVector, "ChannelOp"]:
        """Dilation applied to a pure state; traced registers stay in the result.

        Returns the post-dilation state together with the (possibly
        renamed) channel whose ``traced`` names identify the environment.
        All registers produced by the dilation are tagged ``REFERENCE``;
        callers that care about holders retag afterwards.
        """
        ch = self._avoiding(state.system.names)
        full = tensor(state, ch.ancilla_state)
        holders = {
            r.name: REFERENCE for st in ch.dilation.stages for r in st.out_regs
        }
        return apply_unitary(full, ch.dilation, holders=holders), ch

    def apply(self, state) -> DensityOperator:
        """Channel output as a density operator (inputs may be pure or mixed).

        Registers of the input outside ``in_regs`` ride along under the
        identity; a mixed input is purified first and its reference kept.
        """
        if isinstance(state, DensityOperator):
            vec = purify(state, ref_name=_fresh_name("Rch", state.system.names))
        else:
            vec = state
        out, ch = self.apply_to_vector(vec)
        keep = [n for n in out.system.names if n not in set(ch.traced)]
        return reduced_density(out, keep)

    def choi_matrix(self) -> np.ndarray:
        """Choi matrix (output x mirror-of-input), trace = input dimension."""
        d = _prod(r.dim for r in self.in_regs)
        mirror = [(f"{r.name}*mirror", r.dim, REFERENCE) for r in self.in_regs]
        amps = np.zeros(d * d, dtype=complex)
        for k in range(d):
            amps[k * d + k] = 1.0 / math.sqrt(d)
        system = RegisterSystem.make(
            [(r.name, r.dim, ALICE) for r in self.in_regs] + mirror
        )
        phi = StateVector._unchecked(system, amps)
        out = self.apply(phi)
        order = list(self.out_names) + [m[0] for m in mirror]
        out = permute(out, order)
        return out.matrix * d

    def check(self, tol: float = TOL_PSD) -> None:
        """Verify complete positivity and trace preservation via the Choi matrix."""
        choi = self.choi_matrix()
        w = np.linalg.eigvalsh(choi)
        if w[0] < -tol * max(1.0, choi.shape[0]):
            raise StateValidationError(f"Choi matrix not PSD: eigenvalue {w[0]}")
        d_in = _prod(r.dim for r in self.in_regs)
        d_out = choi.shape[0] // d_in
        tr_out = np.einsum(
            "aiaj->ij", choi.reshape(d_out, d_in, d_out, d_in)
        )
        if np.max(np.abs(tr_out - np.eye(d_in))) > TOL_EQ:
            raise StateValidationError("channel is not trace preserving")


def _fresh_name(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def channel_from_kraus(
    kraus: Sequence[np.ndarray],
    in_regs: Sequence[tuple[str, int]],
    out_regs: Sequence[tuple[str, int]],
    check_tol: float = TOL_EQ,
) -> ChannelOp:
    """Unitary extension of a channel given by Kraus operators.

    Builds the isometry sum_j K_j (x) |j>_env, pads the environment until
    the ancilla dimension is integral, and completes the isometry columns
    to a unitary.
    """
    in_regs = tuple(Register(n, d) for n, d in in_regs)
    out_regs = tuple(Register(n, d) for n, d in out_regs)
    d_in = _prod(r.dim for r in in_regs)
    d_out = _prod(r.dim for r in out_regs)
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    for k in ks:
        if k.shape != (d_out, d_in):
            raise ValueError(f"Kraus operator shape {k.shape}, expected {(d_out, d_in)}")
    comp = sum(k.conj().T @ k for k in ks)
    if np.max(np.abs(comp - np.eye(d_in))) > check_tol:
        raise StateValidationError("Kraus completeness violated")
    n_env = len(ks)
    while (d_out * n_env) % d_in != 0:
        n_env += 1
    d_anc = (d_out * n_env) // d_in
    # isometry columns: |phi>|0>_anc -> sum_j K_j|phi> (x) |j>_env
    big = d_out * n_env
    iso = np.zeros((big, d_in), dtype=complex)
    for j, k in enumerate(ks):
        iso[j::n_env, :] += k  # env is the least significant factor
    # the ancilla=0 columns carry the isometry; complete the rest orthonormally
    u = np.zeros((big, big), dtype=complex)
    iso_cols = [i * d_anc for i in range(d_in)]
    for k, c in enumerate(iso_cols):
        u[:, c] = iso[:, k]
    if big > d_in:
        rest = scipy.linalg.null_space(iso.conj().T)
        free = [c for c in range(big) if c % d_anc != 0]
        for k, c in enumerate(free):
            u[:, c] = rest[:, k]
    anc_name = _fresh_name("anc", [r.name for r in in_regs + out_regs])
    env_name = _fresh_name("env", [r.name for r in in_regs + out_regs] + [anc_name])
    anc_reg = Register(anc_name, d_anc)
    env_reg = Register(env_name, n_env)
    anc_amps = np.zeros(d_anc, dtype=complex)
    anc_amps[0] = 1.0
    anc_state = StateVector._unchecked(
        RegisterSystem((anc_reg,), (REFERENCE,)), anc_amps
    )
    dil = UnitaryOp.dense(u, in_regs + (anc_reg,), out_regs + (env_reg,))
    return ChannelOp(in_regs, out_regs, anc_state, dil, (env_name,))


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary, deterministic for a fixed seed.

    Ginibre matrix, QR decomposition, then the R diagonal phases are
    divided out so the distribution is exactly Haar.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return q
