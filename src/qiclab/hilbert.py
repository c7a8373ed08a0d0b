"""Finite-dimensional register algebra.

Named tensor factors with holder tags, pure state vectors, density
operators, unitaries, partial trace, purification and channel dilations.

A pure state holds its amplitudes in one of two forms, chosen once when
the state is made: a dense array, or a support form (:class:`_Coords`)
that keeps only the exactly-nonzero amplitudes as sorted flat indices
and their values. States with many zero amplitudes (classical copies,
zero padding, selector registers) take the support form, so tensor
products, stage application, the partial trace and the entropy kernel in
:mod:`qiclab.measures` work on the nonzero amplitudes only and never on
an array of the full dimension. Stage application and the partial trace
see a state as a (registers, rest) matrix through one helper,
:func:`_support_matrix`: a transpose of a dense array, a gather from the
coordinates of a support-form one. The entropy kernel sees the same
matrix through :func:`_support_blocks`, as the direct sum of its
connected blocks.

One BLAS library: every matrix product, norm and eigen or QR solve runs in
scipy's bundled OpenBLAS, through :func:`_dot` (``zgemm``), :func:`_norm`
(``dznrm2``), :func:`_eigh` (``zheevd``) and ``scipy.linalg``. numpy
bundles an OpenBLAS of its own with its own thread pool. With more than
one BLAS thread (the default is one per core) a process that alternates
small kernels between the two pools runs them several times slower: the
slot-averaging checks' eigenvalue calls took 0.73 s instead of 0.08 s
at two threads while stage products ran in numpy's pool. So the package
makes no numpy product (``@``, ``dot``) or ``numpy.linalg`` call; a test
walks the sources for them.

Basis convention: registers are ordered and the leftmost register is the
most significant index; matrices are row-major over that ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dznrm2, zgemm
from scipy.linalg.lapack import zheevd, zheevd_lwork

TOL_NORM = 1e-9
TOL_HERM = 1e-9
TOL_UNITARY = 1e-9
TOL_PSD = 1e-9
TOL_EQ = 1e-8

#: Largest global pure-state dimension a simulation will accept by default.
DEFAULT_MAX_DIM = 2 ** 24

#: An array takes the support form when at most 1/_SUPPORT_RATIO of its
#: entries are nonzero. Gathering a matrix from coordinates costs ~60-300 ns
#: per nonzero entry, a dense transpose ~2-5 ns per entry (2-vCPU Xeon,
#: numpy 2.4, 1M-entry arrays), so on gather time alone the support form
#: wins only below ~1/30 nonzero. The larger share pays because the form
#: also cuts what follows the gather: a stage multiplies, and the entropy
#: kernel diagonalizes, only the occupied rows and columns. Its 24 bytes
#: per nonzero entry are 3/8 of the dense array's memory at the threshold.
_SUPPORT_RATIO = 4

#: Flat indices of the support form are int64: states with this many
#: amplitudes or more are refused rather than wrapped.
_INDEX_LIMIT = 2 ** 63


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


def _rename(x, mapping: Mapping[str, str]):
    """The one register-name mapper: a name, a :class:`Register`, a tuple (or
    list) of these nested to any depth, or an object with a ``renamed``
    method; unmapped names and anything else (dims, holders, arrays) stay."""
    if isinstance(x, str):
        return mapping.get(x, x)
    if isinstance(x, Register):
        return Register(mapping.get(x.name, x.name), x.dim)
    if isinstance(x, (tuple, list)):
        return tuple(_rename(y, mapping) for y in x)
    renamed = getattr(x, "renamed", None)
    return x if renamed is None else renamed(mapping)


def _renamed_fields(self, mapping: Mapping[str, str]):
    """The ``renamed`` of a frozen dataclass: :func:`_rename` applied to every
    field, rebuilt through ``dataclasses.replace`` so its constructor checks
    the result."""
    return replace(self, **{f.name: _rename(getattr(self, f.name), mapping) for f in fields(self)})


def _require_unique(names: Sequence[str], what: str) -> None:
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate {what}: {dupes}")


@dataclass(frozen=True)
class RegisterSystem:
    """An ordered collection of uniquely named registers with holder tags."""

    registers: tuple[Register, ...]
    holders: tuple[Holder, ...]

    def __post_init__(self):
        if len(self.registers) != len(self.holders):
            raise ValueError("one holder tag required per register")
        _require_unique([r.name for r in self.registers], "register names")

    @staticmethod
    def make(specs: Iterable[tuple[str, int, Holder]]) -> "RegisterSystem":
        regs, holders = [], []
        for name, dim, holder in specs:
            regs.append(Register(name, dim))
            holders.append(holder)
        return RegisterSystem(tuple(regs), tuple(holders))

    # cached per instance in __dict__, outside the fields == and hash compare
    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @cached_property
    def total_dim(self) -> int:
        return _prod(self.dims)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise KeyError(f"unknown register {name!r}; have {self.names}") from None

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

    renamed = _renamed_fields


def _eigh(a: np.ndarray, vectors: bool = False, lower: int = 1, overwrite: bool = False):
    """Ascending eigenvalues of a Hermitian matrix from LAPACK ``zheevd``,
    with ``vectors`` also its eigenvectors as the columns of a second array.

    The one eigen solver: numpy's ``eigvalsh`` checks cost more than the
    routine on small matrices. Reads the lower triangle, as numpy does
    (``lower=0``: the upper). The workspaces are the optimal ones
    ``zheevd_lwork`` reports; the minimal default forces an unblocked
    reduction. ``overwrite`` is only for a temporary the caller made.
    """
    cv = int(vectors)
    work, iwork, rwork, _ = zheevd_lwork(a.shape[0], compute_v=cv, lower=lower)
    w, v, info = zheevd(
        a, compute_v=cv, lower=lower, lwork=int(work.real), liwork=iwork,
        lrwork=int(rwork), overwrite_a=overwrite,
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (zheevd info={info})")
    return (w, v) if vectors else w


def _gemm_operand(x: np.ndarray, trans: int) -> tuple[np.ndarray, int]:
    # x enters zgemm as op'(y) = op(x)^T: a C-ordered x as its Fortran-ordered
    # view x.T under the same op; a Fortran-ordered x as itself, the transpose
    # flag flipped. The wrapper copies only a conjugated Fortran-ordered x, a
    # strided view or a real x.
    if x.flags.c_contiguous or trans == 2 or not x.flags.f_contiguous:
        return x.T, trans
    return x, 1 - trans


def _dot(a: np.ndarray, b: np.ndarray, trans_a: int = 0, trans_b: int = 0) -> np.ndarray:
    """The complex matrix product op(a) op(b), C-ordered, from BLAS ``zgemm``.

    op is the identity (0), the transpose (1) or the conjugate transpose
    (2), as BLAS numbers them. zgemm is column-major, so it forms
    op(b)^T op(a)^T = (op(a) op(b))^T from the operands' transposed
    views, and that result read transposed is the product in C order. No
    C-ordered complex operand is copied, nor a Fortran-ordered one that
    op does not conjugate.
    """
    (y, ty), (x, tx) = _gemm_operand(b, trans_b), _gemm_operand(a, trans_a)
    return zgemm(1.0, y, x, trans_a=ty, trans_b=tx).T


def _norm(x: np.ndarray) -> float:
    """The Euclidean norm of a complex vector, from BLAS ``dznrm2``."""
    return float(dznrm2(x))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    # every tolerance comparison is False for NaN, so the gates test this first
    if not np.isfinite(arr).all():
        raise StateValidationError(f"{what} has non-finite entries")


class _Coords(NamedTuple):
    """An array in support form: the sorted int64 flat indices of its
    exactly-nonzero entries, their values, and the array's shape."""

    idx: np.ndarray
    vals: np.ndarray
    shape: tuple[int, ...]


def _in_form(data):
    """A dense array or :class:`_Coords` in the form its nonzero share calls for.

    At most 1/``_SUPPORT_RATIO`` nonzero entries give the support form,
    more give a dense array. Deciding a dense array costs one count; an
    index is built only when it is sparse.
    """
    if isinstance(data, _Coords):
        if _SUPPORT_RATIO * data.idx.size <= _prod(data.shape):
            return data
        return _dense(data)
    flat = data.reshape(-1)
    if _SUPPORT_RATIO * np.count_nonzero(flat) > flat.size:
        return data
    idx = np.flatnonzero(flat)
    return _Coords(idx, flat[idx], data.shape)


def _dense(data) -> np.ndarray:
    """A dense array or :class:`_Coords` as a dense array."""
    if not isinstance(data, _Coords):
        return data
    arr = np.zeros(_prod(data.shape), dtype=data.vals.dtype)
    arr[data.idx] = data.vals
    return arr.reshape(data.shape)


class StateVector:
    """A normalized pure state over a register system.

    The amplitudes are held dense or in support form (see the module
    docstring), chosen once when the state is made; ``amplitudes`` is
    the dense vector either way, materialized on first use for a
    support-form state and read-only.
    """

    def __init__(self, system: RegisterSystem, amplitudes: np.ndarray):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size != system.total_dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, "
                f"system dimension is {system.total_dim}"
            )
        _require_finite(amps, "amplitude vector")
        nrm = _norm(amps)
        if abs(nrm - 1.0) > TOL_NORM:
            raise StateValidationError(f"state norm {nrm} deviates from 1 beyond {TOL_NORM}")
        self._hold(system, amps)

    def _hold(self, system: RegisterSystem, amps) -> None:
        # exactly one of _amps and _coords is set here; ``amplitudes``
        # caches a materialized _amps on a support-form state later
        data = _in_form(amps if isinstance(amps, _Coords) else amps.reshape(system.dims))
        dense = not isinstance(data, _Coords)
        coords = None if dense else _Coords(_freeze(data.idx), _freeze(data.vals), system.dims)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "_amps", _freeze(data.reshape(-1)) if dense else None)
        object.__setattr__(self, "_coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen state")

    @classmethod
    def _unchecked(cls, system: RegisterSystem, amps) -> "StateVector":
        """A state from valid amplitudes, a dense array or :class:`_Coords`
        over ``system.dims``, held in the form their nonzero share calls for."""
        self = object.__new__(cls)
        self._hold(system, amps)
        return self

    def _with_system(self, system: RegisterSystem) -> "StateVector":
        """The same amplitudes, in the same form, over a relabelled system."""
        out = object.__new__(StateVector)
        out.__dict__.update(self.__dict__, system=system)
        return out

    def _data(self):
        """The amplitudes over ``system.dims``: :class:`_Coords` in support form,
        else the dense array."""
        return self._coords if self._coords is not None else self.tensor_view()

    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted flat indices of the nonzero amplitudes, and their values."""
        if self._coords is not None:
            return self._coords.idx, self._coords.vals
        idx = np.flatnonzero(self._amps)
        return idx, self._amps[idx]

    def _nonzeros(self) -> int:
        if self._coords is not None:
            return self._coords.idx.size
        return int(np.count_nonzero(self._amps))

    @property
    def amplitudes(self) -> np.ndarray:
        if self._amps is None:
            d = self.system.total_dim
            if d > DEFAULT_MAX_DIM:
                raise ValueError(
                    f"materializing {d} amplitudes exceeds DEFAULT_MAX_DIM={DEFAULT_MAX_DIM}"
                )
            object.__setattr__(self, "_amps", _freeze(_dense(self._coords).reshape(-1)))
        return self._amps

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.system.dims)

    @property
    def norm(self) -> float:
        vals = self._amps if self._coords is None else self._coords.vals
        return _norm(vals)

    def with_holders(self, mapping: Mapping[str, Holder]) -> "StateVector":
        return self._with_system(self.system.with_holders(mapping))

    def renamed(self, mapping: Mapping[str, str]) -> "StateVector":
        """Relabel registers by a name mapping; the amplitudes stay."""
        return self._with_system(self.system.renamed(mapping))

    def __repr__(self) -> str:
        form = "dense" if self._coords is None else f"{self._coords.idx.size} nonzero"
        return f"StateVector(system={self.system!r}, {form})"


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

    def renamed(self, mapping: Mapping[str, str]) -> "DensityOperator":
        """Relabel registers by a name mapping; the very same matrix stays, unchecked."""
        return DensityOperator._unchecked(self.system.renamed(mapping), self.matrix, self.classical)


class Stage:
    """One factor of a staged unitary: a unitary of side ``dim`` acting on a block.

    ``in_names`` are consumed, ``out_regs`` are produced; the products of
    the input and output dimensions must both equal the side. A stage
    holds a dense matrix, checked unitary (``perm`` is ``None``), or, from
    :meth:`UnitaryOp.permutation`, the index map ``perm`` of a permutation
    (basis state j goes to ``perm[j]``), checked as a bijection and applied
    without a product. ``matrix`` reads as the read-only dense matrix in
    both forms; an index map builds it on first read.
    """

    def __init__(self, matrix: np.ndarray, in_names: Sequence[str], out_regs: Sequence[Register]):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[1] != mat.shape[0]:
            raise ValueError("stage matrix must be square")
        self._set_block(mat.shape[0], in_names, out_regs)
        _require_finite(mat, "stage matrix")
        err = np.max(np.abs(_dot(mat, mat, trans_a=2) - np.eye(mat.shape[0])))
        if err > TOL_UNITARY:
            raise StateValidationError(f"stage matrix not unitary: deviation {err}")
        self.__dict__.update(perm=None, matrix=_freeze(np.array(mat)))

    @classmethod
    def _permutation(cls, perm, in_names: Sequence[str], out_regs: Sequence[Register]) -> "Stage":
        """A stage holding the index map ``perm``; see :meth:`UnitaryOp.permutation`."""
        perm = np.asarray(perm)
        self = object.__new__(cls)
        self._set_block(perm.size, in_names, out_regs)
        # sorted, a bijection of 0..d-1 is 0..d-1 itself (which also
        # refuses a map that is not 1-D or holds a non-integer)
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError("stage index map is not a bijection")
        self.__dict__["perm"] = _freeze(perm.astype(np.int64))
        return self

    def _set_block(self, d: int, in_names: Sequence[str], out_regs: Sequence[Register]) -> None:
        out_regs = tuple(out_regs)
        out_d = _prod(r.dim for r in out_regs)
        if out_d != d:
            raise ValueError(
                f"stage output dimension {out_d} does not match matrix side {d}"
            )
        in_names = tuple(in_names)
        _require_unique(in_names, "names in stage inputs")
        _require_unique([r.name for r in out_regs], "names in stage outputs")
        self.__dict__.update(in_names=in_names, out_regs=out_regs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen stage")

    @property
    def dim(self) -> int:
        return _prod(r.dim for r in self.out_regs)

    @cached_property
    def matrix(self) -> np.ndarray:
        # reached only on an index map: a dense stage stores its matrix here
        d = self.perm.size
        mat = np.zeros((d, d), dtype=complex)
        mat[self.perm, np.arange(d)] = 1.0
        return _freeze(mat)

    def renamed(self, mapping: Mapping[str, str]) -> "Stage":
        """The same stage, in the same form, with a register-name mapping applied."""
        out = object.__new__(Stage)
        out.__dict__.update(self.__dict__)
        out._set_block(self.dim, _rename(self.in_names, mapping), _rename(self.out_regs, mapping))
        return out


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
        for f in ("in_regs", "out_regs", "stages"):
            object.__setattr__(self, f, tuple(getattr(self, f)))
        _require_unique([r.name for r in self.in_regs], "input register names")
        current = {r.name: r.dim for r in self.in_regs}
        for k, st in enumerate(self.stages):
            d_in = 1
            for n in st.in_names:
                if n not in current:
                    raise ValueError(f"stage {k} consumes unknown register {n!r}")
                d_in *= current.pop(n)
            if d_in != st.dim:
                raise ValueError(
                    f"stage {k}: input dimension {d_in} does not match matrix "
                    f"side {st.dim}"
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
        return cls(in_regs, out_regs, (Stage(matrix, [r.name for r in in_regs], out_regs),))

    @classmethod
    def permutation(cls, perm, in_regs: Sequence[Register], out_regs: Sequence[Register]) -> "UnitaryOp":
        """The one builder of 0/1 unitaries: basis state j of ``in_regs`` goes to
        basis state ``perm[j]`` of ``out_regs``; its one stage keeps the index map."""
        return cls(in_regs, out_regs, (Stage._permutation(perm, [r.name for r in in_regs], out_regs),))

    @classmethod
    def rename(cls, in_regs: Sequence[Register], out_regs: Sequence[Register]) -> "UnitaryOp":
        """Identity map that relabels a register block."""
        return cls.permutation(np.arange(_prod(r.dim for r in in_regs)), in_regs, out_regs)

    renamed = _renamed_fields

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
        arr = _in_form(np.eye(d, dtype=complex).reshape(tuple(r.dim for r in self.in_regs) + (d,)))
        order = list(self.in_regs)
        for st in self.stages:
            arr, order = _apply_stage_array(arr, order, st)
        arr = _dense(arr)
        pos = [[r.name for r in order].index(n) for n in self.out_names]
        arr = np.transpose(arr, pos + [len(order)])
        return arr.reshape(d, d)


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


def _support_matrix(data, row_axes: Sequence[int]):
    """An array as its (``row_axes``, other axes) matrix.

    Returns ``(rows, cols, m)``. The rows of the full matrix run over
    ``row_axes`` in the given order and its columns over the other axes in
    theirs. A dense array gives ``rows = cols = None`` and the whole
    matrix, by one transpose. A :class:`_Coords` array gives ``m`` cut to
    the rows and columns holding one of its entries, with ``rows`` and
    ``cols`` their sorted indices in the full matrix; ``m`` is gathered
    from the coordinates in work sized by the entries alone.
    """
    row_axes = list(row_axes)
    if not isinstance(data, _Coords):
        perm = row_axes + [a for a in range(data.ndim) if a not in row_axes]
        d_row = _prod(data.shape[a] for a in row_axes)
        return None, None, np.ascontiguousarray(data.transpose(perm)).reshape(d_row, -1)
    r, c = _split_index(data, row_axes)
    rows, r = _distinct(r)
    cols, c = _distinct(c)
    m = np.zeros((rows.size, cols.size), dtype=data.vals.dtype)
    m[r, c] = data.vals
    return rows, cols, m


def _support_blocks(data, row_axes: Sequence[int]) -> list[np.ndarray]:
    """The (``row_axes``, other axes) matrix of an array as its direct-sum blocks.

    A dense array gives one block, its whole :func:`_support_matrix`. A
    :class:`_Coords` array gives one block per connected component of the
    matrix's exact nonzero pattern (rows and columns joined by an entry),
    cut to that component's rows and columns. Up to a permutation of rows
    and columns the support matrix is the direct sum of these blocks, so
    M M^dagger is the direct sum of their Gram matrices. No threshold
    enters, and the support matrix itself is never built: each block is
    gathered from the coordinates into one buffer sized by the blocks.
    """
    if not isinstance(data, _Coords):
        return [_support_matrix(data, row_axes)[2]]
    r, c = _split_index(data, row_axes)
    rows, r = _distinct(r)
    cols, c = _distinct(c)
    n_rows, n_cols = rows.size, cols.size
    # label propagation: each row takes the least row label two hops away,
    # then follows its label's label to a fixed point. A label is always a
    # row of the same component, and at the fixed point it is the least one.
    label = np.arange(n_rows)
    while True:
        via_col = np.full(n_cols, n_rows)
        np.minimum.at(via_col, c, label[r])
        new = label.copy()
        np.minimum.at(new, r, via_col[c])
        while True:
            hop = new[new]
            if np.array_equal(hop, new):
                break
            new = hop
        if np.array_equal(new, label):
            break
        label = new
    # at the fixed point a column's via_col is its component's least row
    least, row_comp = _distinct(label)
    col_comp = row_comp[via_col]
    # each row's and column's position within its component, in index order
    n_blocks = least.size
    local = []
    for member in (row_comp, col_comp):
        count = np.bincount(member, minlength=n_blocks)
        order = np.argsort(member, kind="stable")
        pos = np.empty_like(member)
        pos[order] = np.arange(member.size) - np.repeat(np.cumsum(count) - count, count)
        local.append((count, pos))
    (height, row_pos), (width, col_pos) = local
    size = height * width
    start = np.cumsum(size) - size
    # an entry's place in the buffer: its row's offset there, plus its column's
    row_pos *= width[row_comp]
    row_pos += start[row_comp]
    at = row_pos[r]
    del r
    at += col_pos[c]
    del c
    buf = np.zeros(int(size.sum()), dtype=data.vals.dtype)
    buf[at] = data.vals
    return [
        buf[s : s + h * w].reshape(h, w)
        for s, h, w in zip(start.tolist(), height.tolist(), width.tolist())
    ]


def _split_index(data: _Coords, row_axes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's row and column in the (``row_axes``, other axes) matrix
    of a :class:`_Coords` array, uncompressed.

    The row is the row axes' digits of the flat index, in ``row_axes``
    order; the column is its other digits, in array order. With
    Q(x) = nz // prod(shape[x:]), the digits of axes a..b-1 read as one
    number are Q(b) - Q(a) prod(shape[a:b]). So the axes are cut into
    runs that each give one such digit: row axes adjacent both in the
    array and in ``row_axes``, and maximal runs of the other axes. The
    runs are read most significant first, one floor division per run
    boundary and no remainder (numpy's integer remainder costs about four
    of its floor divisions), with only the last two Q alive.
    """
    nz, _, shape = data
    n = len(shape)
    # each axis's suffix product, and the weight of its digit in the row or
    # the column. Axis a joins the run of axis a - 1 when both are row axes
    # or both are not, and the digit of a - 1 weighs shape[a] times a's:
    # then the run's digit, weighted as its last axis, is exact
    is_row = [False] * n
    weight = [1] * n
    w = 1
    for a in reversed(row_axes):
        is_row[a], weight[a] = True, w
        w *= shape[a]
    suffix = [1] * (n + 1)
    w = 1
    for a in reversed(range(n)):
        suffix[a] = suffix[a + 1] * shape[a]
        if not is_row[a]:
            weight[a] = w
            w *= shape[a]
    cuts = [0] + [
        a for a in range(1, n)
        if is_row[a] != is_row[a - 1] or weight[a - 1] != weight[a] * shape[a]
    ] + [n]
    # the weighted digits summed, the column's at sums[False] and the row's
    # at sums[True]. A term takes over the previous Q's buffer unless a sum
    # is that Q: the first run's term is its Q at weight 1 (nz itself when
    # it is the only run)
    sums = [None, None]
    q_prev = None
    for a, b in zip(cuts, cuts[1:]):
        q = nz if b == n else nz // suffix[b]
        w = weight[b - 1]
        if q_prev is None:  # a == 0, where Q(0) = 0
            term = q if w == 1 else q * w
        else:
            spare = not any(s is q_prev for s in sums)
            term = np.multiply(q_prev, suffix[a] // suffix[b], out=q_prev if spare else None)
            np.subtract(q, term, out=term)
            if w != 1:
                term *= w
        q_prev = q
        if sums[is_row[a]] is None:
            sums[is_row[a]] = term
        else:
            sums[is_row[a]] += term
    c, r = (np.zeros_like(nz) if s is None else s for s in sums)
    return r, c


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(x, return_inverse=True)`` of non-negative int64 indices:
    the sorted distinct values, and each entry's position among them.

    Values within ``_SUPPORT_RATIO`` times the entry count are compressed
    by a presence map and its running count, with no sort; sparser ones
    by a stable argsort and flags at the starts of equal runs.
    """
    top = int(x.max()) if x.size else -1
    if 0 <= top < _SUPPORT_RATIO * x.size:
        seen = np.zeros(top + 1, dtype=bool)
        seen[x] = True
        rank = np.cumsum(seen, dtype=np.intp)
        rank -= 1
        return np.flatnonzero(seen), rank[x]
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.empty(x.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    values = ordered[first]
    rank = np.cumsum(first, dtype=np.intp, out=ordered)
    rank -= 1
    inverse = np.empty(x.size, dtype=np.intp)
    inverse[order] = rank
    return values, inverse


def _apply_stage_array(data, order: list[Register], st: Stage):
    """Apply a stage to a dense or :class:`_Coords` array whose leading axes follow ``order``.

    Trailing axes beyond the registers (if any) ride along untouched. A
    dense array stays dense. An index map moves each coordinate of a
    support-form array to its row's image, and each row of a dense
    array's (consumed, rest) matrix to its image, never reading the dense
    view. On a support-form array a stage matrix multiplies only the
    support of the (consumed, rest) matrix, and the exact nonzeros of the
    product are the result's coordinates, in the form their share calls
    for. No array of the full dimension is made.
    """
    names = [r.name for r in order]
    idx = [names.index(n) for n in st.in_names]
    rest_shape = tuple(d for i, d in enumerate(data.shape) if i not in idx)
    out_shape = tuple(r.dim for r in st.out_regs) + rest_shape
    if st.perm is not None and isinstance(data, _Coords):
        r, c = _split_index(data, idx)
        flat = st.perm[r]
        del r
        # within one image row the column rises with the flat index, so a
        # stable sort by image row orders the output (keys of 16 bits or
        # less radix sort)
        at = np.argsort(flat.astype(np.min_scalar_type(st.dim - 1)), kind="stable")
        flat *= _prod(rest_shape)
        flat += c
        del c
        flat = flat[at]  # frees the unordered indices before the values gather
        new = _Coords(flat, data.vals[at], out_shape)
    elif st.perm is not None:
        m = _support_matrix(data, idx)[2]
        moved = np.empty_like(m)
        moved[st.perm] = m
        new = moved.reshape(out_shape)
    elif not isinstance(data, _Coords):
        new = _dot(st.matrix, _support_matrix(data, idx)[2]).reshape(out_shape)
    else:
        rows, cols, m = _support_matrix(data, idx)
        prod = _dot(st.matrix[:, rows], m)
        del m
        at = np.flatnonzero(prod)
        # flat index out_row * |rest| + col, ascending since cols is sorted
        flat = at // prod.shape[1]
        j = flat * prod.shape[1]
        np.subtract(at, j, out=j)
        flat *= _prod(rest_shape)
        flat += cols[j]
        del j
        new = _in_form(_Coords(flat, prod.reshape(-1)[at], out_shape))
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
        if system.total_dim >= _INDEX_LIMIT:
            raise ValueError(
                f"tensor product dimension {system.total_dim} does not fit int64 indices"
            )
        if _SUPPORT_RATIO * x._nonzeros() * y._nonzeros() > system.total_dim:
            return StateVector._unchecked(system, np.kron(x.amplitudes, y.amplitudes))
        # the outer product of the supports; ascending as both supports are
        ix, vx = x._support()
        iy, vy = y._support()
        idx = (ix[:, None] * sysy.total_dim + iy).reshape(-1)
        vals = (vx[:, None] * vy).reshape(-1)
        return StateVector._unchecked(system, _Coords(idx, vals, system.dims))
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
        overlap = set(x.in_names + x.out_names) & set(y.in_names + y.out_names)
        if overlap:
            raise ValueError(f"register name collision in tensor: {sorted(overlap)}")
        return UnitaryOp(x.in_regs + y.in_regs, x.out_regs + y.out_regs, x.stages + y.stages)
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
    arr = state._data()
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
    return StateVector._unchecked(new_system, arr)


def reduced_density(state, keep: Sequence[str]) -> DensityOperator:
    """Partial trace down to ``keep`` (result ordered as given).

    For pure states the reduction is M M^dagger of the (keep, rest)
    matrix M (:func:`_support_matrix`), placed at the support's rows for
    a support-form state; the global density matrix is never materialized.
    """
    keep = list(keep)
    system = state.system
    sub = system.subsystem(keep)
    if isinstance(state, StateVector):
        rows, _, m = _support_matrix(state._data(), system.positions(keep))
        gram = _dot(m, m, trans_b=2)
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
    tagged ``REFERENCE``. Eigenvalues at or below ``TOL_PSD`` (1e-9) are
    dropped and the rest renormalized, so the state purified is within
    trace distance delta of rho, delta the dropped absolute weight: at
    most the matrix side times 1e-9.
    """
    if ref_name in rho.system.names:
        raise ValueError(f"reference name {ref_name!r} collides with an existing register")
    w, v = _eigh(rho.matrix, vectors=True)
    if w[0] < -TOL_PSD:
        raise StateValidationError(f"state not PSD: eigenvalue {w[0]}")
    kept = w > TOL_PSD
    w = w[kept]
    v = v[:, kept]
    rank = int(w.size)
    if rank == 0:
        raise StateValidationError("state has no spectral weight above tolerance")
    amps = (v * np.sqrt(w)).reshape(-1)  # index = (system basis) * rank + k
    amps = amps / _norm(amps)
    system = RegisterSystem(
        rho.system.registers + (Register(ref_name, rank),),
        rho.system.holders + (REFERENCE,),
    )
    return StateVector._unchecked(system, amps)


def _zero_state(regs: Sequence[Register], holder: Holder) -> StateVector:
    """The all-zeros basis state of ``regs``, every register held by ``holder``."""
    amps = np.zeros(_prod(r.dim for r in regs), dtype=complex)
    amps[0] = 1.0
    return StateVector._unchecked(RegisterSystem(tuple(regs), (holder,) * len(regs)), amps)


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
    support = np.flatnonzero(diag > TOL_PSD)
    s = int(support.size)
    vals = np.sqrt(diag[support]).astype(complex)
    vals /= _norm(vals)
    system = RegisterSystem(
        rho.system.registers + (Register(ref_name, s),),
        rho.system.holders + (REFERENCE,),
    )
    # z maps to flat index z * s + k(z), ascending with z
    return StateVector._unchecked(
        system, _Coords(support * s + np.arange(s), vals, system.dims)
    )


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

    renamed = _renamed_fields

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
                mapping[n] = _fresh_name(n + "~", taken)
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
            vec = purify(state, ref_name=_fresh_name("Rch", set(state.system.names)))
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

    def check(self) -> None:
        """Verify complete positivity and trace preservation via the Choi matrix."""
        choi = self.choi_matrix()
        w = _eigh(choi)
        if w[0] < -TOL_PSD * max(1.0, choi.shape[0]):
            raise StateValidationError(f"Choi matrix not PSD: eigenvalue {w[0]}")
        d_in = _prod(r.dim for r in self.in_regs)
        d_out = choi.shape[0] // d_in
        tr_out = np.einsum(
            "aiaj->ij", choi.reshape(d_out, d_in, d_out, d_in)
        )
        if np.max(np.abs(tr_out - np.eye(d_in))) > TOL_EQ:
            raise StateValidationError("channel is not trace preserving")


def _fresh_name(base: str, taken: set[str]) -> str:
    """``base``, or ``base`` with the least suffix from 2 up, not in ``taken``;
    the name returned joins ``taken``."""
    name, k = base, 2
    while name in taken:
        name, k = f"{base}{k}", k + 1
    taken.add(name)
    return name


def channel_from_kraus(
    kraus: Sequence[np.ndarray],
    in_regs: Sequence[tuple[str, int]],
    out_regs: Sequence[tuple[str, int]],
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
    comp = sum(_dot(k, k, trans_a=2) for k in ks)
    if np.max(np.abs(comp - np.eye(d_in))) > TOL_EQ:
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
    taken = {r.name for r in in_regs + out_regs}
    anc_name = _fresh_name("anc", taken)
    env_name = _fresh_name("env", taken)
    anc_reg = Register(anc_name, d_anc)
    env_reg = Register(env_name, n_env)
    dil = UnitaryOp.dense(u, in_regs + (anc_reg,), out_regs + (env_reg,))
    return ChannelOp(in_regs, out_regs, _zero_state((anc_reg,), REFERENCE), dil, (env_name,))


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary, deterministic for a fixed seed.

    Ginibre matrix, QR decomposition, then the R diagonal phases are
    divided out so the distribution is exactly Haar.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = scipy.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return q
