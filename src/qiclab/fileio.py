"""JSON file formats for states, protocols, and classical objects.

Top-level objects carry a ``type`` field: ``state``, ``protocol``,
``classical_protocol`` or ``function_pair``. Complex numbers are always
two-element ``[re, im]`` arrays; matrices are row-major nested lists; the
register order in a file is authoritative for basis ordering.

Every numeric array (amplitudes, matrices, ``r_probs``, ``kernels``,
``f_a``/``f_b``) is read by one ``np.array`` call and accepted only when
numpy infers a regular array of the expected depth holding JSON numbers
(``f_a``/``f_b``: integers only).  Strings, ``null``, nested lists where a
number belongs, ragged rows and integers beyond 64 bits are refused with a
``FileFormatError`` naming the first bad entry (``...matrix[3][1]``).  NaN
and infinity pass the reader; the finiteness, norm, trace and
probability gates behind it refuse them.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import fields
from pathlib import Path
from typing import Any

import numpy as np

from .hilbert import (
    TOL_HERM,
    TOL_NORM,
    Holder,
    Register,
    RegisterSystem,
    Stage,
    StateVector,
    DensityOperator,
    UnitaryOp,
    _norm,
    _require_finite,
)
from .classical import ClassicalFunctionPair, ClassicalProtocol
from .protocol import ProtocolSpec, ProtocolValidationError, Slot, validate


class FileFormatError(ValueError):
    """A file failed to parse or violates the schema."""


_HOLDERS = {h.value: h for h in Holder}


def _int_in(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise FileFormatError(f"{where}: expected an integer, got {v!r}")
    return v


def _str_in(v: Any, where: str) -> str:
    if not isinstance(v, str):
        raise FileFormatError(f"{where}: expected a string, got {v!r}")
    return v


def _object_in(v: Any, where: str) -> dict:
    if not isinstance(v, dict):
        raise FileFormatError(f"{where}: expected an object, got {type(v).__name__}")
    return v


def _list_in(v: Any, where: str) -> list:
    if not isinstance(v, list):
        raise FileFormatError(f"{where}: expected a list, got {type(v).__name__}")
    return v


def _complex_out(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# The dtype kinds np.array infers from JSON values: b(ool), i(nt64), u(int64)
# and f(loat64).  A string gives U; null, an object or an integer beyond 64
# bits gives O.
_NUMBER = "biuf"
_INTEGER = "iu"


def _array_in(lst: Any, ndim: int, kinds: str, where: str, pairs: bool = False) -> np.ndarray:
    """Read a regular nested list of numbers with one ``np.array`` call.

    Accepted only when numpy infers one of ``kinds`` and ``ndim`` axes (plus
    a trailing axis of length 2 when ``pairs``); a ragged list raises in
    ``np.array`` itself.  Rejected input is walked once to name the entry.
    """
    try:
        arr = np.array(lst)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if (
        arr is not None
        and arr.dtype.kind in kinds
        and arr.ndim == ndim + pairs
        and (not pairs or arr.shape[-1] == 2)
    ):
        return arr
    raise FileFormatError(_first_bad_entry(lst, ndim, kinds, where, pairs))


def _first_bad_entry(v: Any, ndim: int, kinds: str, where: str, pairs: bool) -> str:
    def number(x: Any) -> bool:
        return not isinstance(x, list) and np.asarray(x).dtype.kind in kinds

    def walk(x: Any, depth: int, at: str) -> str | None:
        if depth == 0:
            if pairs and not (isinstance(x, list) and len(x) == 2 and all(map(number, x))):
                return f"{at}: complex entries must be [re, im] pairs of numbers, got {reprlib.repr(x)}"
            if not pairs and not number(x):
                what = "an integer" if kinds == _INTEGER else "a number"
                return f"{at}: expected {what}, got {reprlib.repr(x)}"
            return None
        if not isinstance(x, list):
            return f"{at}: expected a list, got {type(x).__name__}"
        for i, y in enumerate(x):
            bad = walk(y, depth - 1, f"{at}[{i}]")
            if bad:
                return bad
        return None

    return walk(v, ndim, where) or (
        f"{where}: expected a regular {ndim}-dimensional array (rows of equal length)"
    )


def _complex_array_in(lst: Any, ndim: int, where: str) -> np.ndarray:
    arr = _array_in(lst, ndim, _NUMBER, where, pairs=True)
    # a view of the (re, im) float pairs keeps the sign of -0.0, which
    # re + 1j * im would turn into +0.0
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def _vector_out(arr: np.ndarray) -> list:
    return [_complex_out(z) for z in np.asarray(arr).reshape(-1)]


def _matrix_out(mat: np.ndarray) -> list:
    return [[_complex_out(z) for z in row] for row in np.asarray(mat)]


def _names_in(v: Any, where: str) -> tuple[str, ...]:
    return tuple(_str_in(n, f"{where}[{k}]") for k, n in enumerate(_list_in(v, where)))


def _register_in(item: Any, where: str) -> Register:
    if not isinstance(item, dict) or "name" not in item or "dim" not in item:
        raise FileFormatError(f"{where}: registers need 'name' and 'dim'")
    return Register(_str_in(item["name"], f"{where}.name"), _int_in(item["dim"], f"{where}.dim"))


def _regs_out(regs) -> list:
    return [{"name": r.name, "dim": r.dim} for r in regs]


def _regs_in(lst: Any, where: str) -> tuple[Register, ...]:
    return tuple(_register_in(x, f"{where}[{k}]") for k, x in enumerate(_list_in(lst, where)))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def state_to_obj(state) -> dict:
    system = state.system
    regs = [
        {"name": r.name, "dim": r.dim, "holder": h.value}
        for r, h in zip(system.registers, system.holders)
    ]
    if isinstance(state, StateVector):
        return {
            "type": "state",
            "kind": "vector",
            "registers": regs,
            "amplitudes": _vector_out(state.amplitudes),
        }
    if isinstance(state, DensityOperator):
        return {
            "type": "state",
            "kind": "density",
            "registers": regs,
            "matrix": _matrix_out(state.matrix),
            "classical": bool(state.classical),
        }
    raise TypeError(f"cannot serialize {type(state).__name__}")


def obj_to_state(obj: dict, where: str = "state", tol: float | None = None):
    tol = TOL_NORM if tol is None else tol
    if _object_in(obj, where).get("type") != "state":
        raise FileFormatError(f"{where}: expected type 'state', got {obj.get('type')!r}")
    regs = _regs_in(obj.get("registers"), f"{where}.registers")
    holders = []
    for k, item in enumerate(obj["registers"]):
        holder = item.get("holder", "reference")
        if not isinstance(holder, str) or holder not in _HOLDERS:
            raise FileFormatError(
                f"{where}.registers[{k}].holder: unknown holder {holder!r}"
            )
        holders.append(_HOLDERS[holder])
    system = RegisterSystem(regs, tuple(holders))
    kind = obj.get("kind")
    if kind == "vector":
        amps = _complex_array_in(obj.get("amplitudes"), 1, f"{where}.amplitudes")
        if amps.size != system.total_dim:
            raise FileFormatError(
                f"{where}.amplitudes: length {amps.size} does not match dimension "
                f"{system.total_dim}"
            )
        _require_finite(amps, "amplitude vector")
        nrm = _norm(amps)
        if abs(nrm - 1.0) > tol:
            raise FileFormatError(
                f"{where}.amplitudes: norm {nrm} deviates from 1 beyond tolerance {tol}"
            )
        return StateVector(system, amps / nrm)
    if kind == "density":
        mat = _complex_array_in(obj.get("matrix"), 2, f"{where}.matrix")
        d = system.total_dim
        if mat.shape != (d, d):
            raise FileFormatError(
                f"{where}.matrix: shape {mat.shape} does not match dimension {d}"
            )
        _require_finite(mat, "density matrix")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > max(tol, TOL_HERM):
            raise FileFormatError(f"{where}.matrix: not Hermitian (deviation {herm})")
        mat = (mat + mat.conj().T) / 2.0
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > tol:
            raise FileFormatError(
                f"{where}.matrix: trace {tr} deviates from 1 beyond tolerance {tol}"
            )
        classical = obj.get("classical", False)
        if not isinstance(classical, bool):
            raise FileFormatError(
                f"{where}.classical: expected true or false, got {classical!r}"
            )
        return DensityOperator(system, mat / tr, classical=classical)
    raise FileFormatError(f"{where}.kind: expected 'vector' or 'density', got {kind!r}")


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def _unitary_out(u: UnitaryOp) -> dict:
    return {
        "in": _regs_out(u.in_regs),
        "out": _regs_out(u.out_regs),
        "stages": [
            {
                "matrix": _matrix_out(st.matrix),
                "in": list(st.in_names),
                "out": _regs_out(st.out_regs),
            }
            for st in u.stages
        ],
    }


def _unitary_in(obj: Any, where: str) -> UnitaryOp:
    obj = _object_in(obj, where)
    in_regs = _regs_in(obj.get("in"), f"{where}.in")
    out_regs = _regs_in(obj.get("out"), f"{where}.out")
    try:
        if "matrix" in obj:
            return UnitaryOp.dense(
                _complex_array_in(obj["matrix"], 2, f"{where}.matrix"), in_regs, out_regs
            )
        stages = []
        for k, st in enumerate(_list_in(obj.get("stages", []), f"{where}.stages")):
            at = f"{where}.stages[{k}]"
            st = _object_in(st, at)
            stages.append(
                Stage(
                    _complex_array_in(st.get("matrix"), 2, f"{at}.matrix"),
                    _names_in(st.get("in", []), f"{at}.in"),
                    _regs_in(st.get("out"), f"{at}.out"),
                )
            )
        return UnitaryOp(in_regs, out_regs, tuple(stages))
    except FileFormatError:
        raise
    except ValueError as e:
        raise FileFormatError(f"{where}: {e}") from None


def protocol_to_obj(p: ProtocolSpec) -> dict:
    return {
        "type": "protocol",
        "num_messages": p.num_messages,
        "alice_in": _regs_out(p.alice_in),
        "bob_in": _regs_out(p.bob_in),
        "preshared": state_to_obj(p.preshared),
        "unitaries": [_unitary_out(u) for u in p.unitaries],
        "messages": [list(block) for block in p.messages],
        "alice_out": list(p.alice_out),
        "bob_out": list(p.bob_out),
        "alice_scratch": list(p.alice_scratch),
        "bob_scratch": list(p.bob_scratch),
        "slots": [
            {
                "alice_in": list(s.alice_in),
                "bob_in": list(s.bob_in),
                "alice_out": list(s.alice_out),
                "bob_out": list(s.bob_out),
            }
            for s in p.slots
        ],
    }


def _slot_in(obj: Any, where: str) -> Slot:
    obj = _object_in(obj, where)
    return Slot(*(_names_in(obj.get(f.name, []), f"{where}.{f.name}") for f in fields(Slot)))


def obj_to_protocol(obj: dict, where: str = "protocol") -> ProtocolSpec:
    if obj.get("type") != "protocol":
        raise FileFormatError(f"{where}: expected type 'protocol', got {obj.get('type')!r}")
    preshared = obj_to_state(obj.get("preshared", {}), f"{where}.preshared")
    if not isinstance(preshared, StateVector):
        raise FileFormatError(f"{where}.preshared: must be a pure state vector")

    def items(key: str) -> list:
        return _list_in(obj.get(key, []), f"{where}.{key}")

    def names(key: str) -> tuple[str, ...]:
        return _names_in(obj.get(key, []), f"{where}.{key}")

    p = ProtocolSpec(
        num_messages=_int_in(obj.get("num_messages", 0), f"{where}.num_messages"),
        preshared=preshared,
        unitaries=tuple(
            _unitary_in(u, f"{where}.unitaries[{k}]") for k, u in enumerate(items("unitaries"))
        ),
        alice_in=_regs_in(obj.get("alice_in"), f"{where}.alice_in"),
        bob_in=_regs_in(obj.get("bob_in"), f"{where}.bob_in"),
        messages=tuple(
            _names_in(b, f"{where}.messages[{k}]") for k, b in enumerate(items("messages"))
        ),
        alice_out=names("alice_out"),
        bob_out=names("bob_out"),
        alice_scratch=names("alice_scratch"),
        bob_scratch=names("bob_scratch"),
        slots=tuple(_slot_in(x, f"{where}.slots[{k}]") for k, x in enumerate(items("slots"))),
    )
    findings = validate(p)
    if findings:
        raise ProtocolValidationError([f"{where}: {f}" for f in findings])
    return p


# ---------------------------------------------------------------------------
# Classical objects
# ---------------------------------------------------------------------------


def function_pair_to_obj(fp: ClassicalFunctionPair) -> dict:
    return {
        "type": "function_pair",
        "f_a": fp.f_a.tolist(),
        "f_b": fp.f_b.tolist(),
        "a_size": fp.a_size,
        "b_size": fp.b_size,
    }


def obj_to_function_pair(obj: dict, where: str = "function_pair") -> ClassicalFunctionPair:
    if obj.get("type") != "function_pair":
        raise FileFormatError(
            f"{where}: expected type 'function_pair', got {obj.get('type')!r}"
        )
    a_size = _int_in(obj.get("a_size"), f"{where}.a_size")
    b_size = _int_in(obj.get("b_size"), f"{where}.b_size")
    f_a = _array_in(obj.get("f_a"), 2, _INTEGER, f"{where}.f_a")
    f_b = _array_in(obj.get("f_b"), 2, _INTEGER, f"{where}.f_b")
    try:
        return ClassicalFunctionPair(f_a, f_b, a_size, b_size)
    except (TypeError, ValueError) as e:
        raise FileFormatError(f"{where}: {e}") from None


def classical_protocol_to_obj(cp: ClassicalProtocol) -> dict:
    return {
        "type": "classical_protocol",
        "x_size": cp.x_size,
        "y_size": cp.y_size,
        "r_probs": cp.r_probs.tolist(),
        "kernels": [k.tolist() for k in cp.kernels],
    }


def obj_to_classical_protocol(obj: dict, where: str = "classical_protocol") -> ClassicalProtocol:
    if obj.get("type") != "classical_protocol":
        raise FileFormatError(
            f"{where}: expected type 'classical_protocol', got {obj.get('type')!r}"
        )
    x_size = _int_in(obj.get("x_size"), f"{where}.x_size")
    y_size = _int_in(obj.get("y_size"), f"{where}.y_size")
    r_probs = _array_in(obj.get("r_probs"), 1, _NUMBER, f"{where}.r_probs")
    # kernels[i] has axes (speaker input, i previous messages, randomness, message i + 1)
    kernels = tuple(
        _array_in(k, i + 3, _NUMBER, f"{where}.kernels[{i}]")
        for i, k in enumerate(_list_in(obj.get("kernels"), f"{where}.kernels"))
    )
    try:
        return ClassicalProtocol(x_size, y_size, r_probs, kernels)
    except (TypeError, ValueError) as e:
        raise FileFormatError(f"{where}: {e}") from None


# ---------------------------------------------------------------------------
# Top-level load/save
# ---------------------------------------------------------------------------

_LOADERS = {
    "state": obj_to_state,
    "protocol": obj_to_protocol,
    "function_pair": obj_to_function_pair,
    "classical_protocol": obj_to_classical_protocol,
}

_SAVERS = {
    StateVector: state_to_obj,
    DensityOperator: state_to_obj,
    ProtocolSpec: protocol_to_obj,
    ClassicalFunctionPair: function_pair_to_obj,
    ClassicalProtocol: classical_protocol_to_obj,
}


def load(path, *, tol: float | None = None, expect: str | None = None):
    """Load any supported object from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise FileFormatError(f"{path}: {e}") from None
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except ValueError as e:  # e.g. an integer literal beyond the int-to-str digit limit
        raise FileFormatError(f"{path}: {e}") from None
    except RecursionError:
        raise FileFormatError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top-level value must be an object")
    kind = obj.get("type")
    if expect is not None and kind != expect:
        raise FileFormatError(f"{path}: expected a {expect!r} file, got {kind!r}")
    if kind not in _LOADERS:
        raise FileFormatError(f"{path}: unknown object type {kind!r}")
    if kind == "state":
        return _LOADERS[kind](obj, str(path), tol=tol)
    return _LOADERS[kind](obj, str(path))


def load_state(path, *, tol: float | None = None):
    return load(path, tol=tol, expect="state")


def load_protocol(path) -> ProtocolSpec:
    return load(path, expect="protocol")


def save(obj, path) -> None:
    """Write any supported object as a JSON file."""
    for klass, saver in _SAVERS.items():
        if isinstance(obj, klass):
            Path(path).write_text(json.dumps(saver(obj), indent=1))
            return
    raise TypeError(f"cannot save {type(obj).__name__}")
