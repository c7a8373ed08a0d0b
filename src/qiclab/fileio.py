"""JSON file formats for states, protocols, and classical objects.

Top-level objects carry a ``type`` field: ``state``, ``protocol``,
``classical_protocol`` or ``function_pair``. Complex numbers are always
two-element ``[re, im]`` arrays; matrices are row-major nested lists; the
register order in a file is authoritative for basis ordering.
"""

from __future__ import annotations

import json
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


def _complex_in(v: Any, where: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) for x in v)
    ):
        raise FileFormatError(f"{where}: complex entries must be [re, im] pairs, got {v!r}")
    return complex(v[0], v[1])


def _vector_out(arr: np.ndarray) -> list:
    return [_complex_out(z) for z in np.asarray(arr).reshape(-1)]


def _vector_in(lst: Any, where: str) -> np.ndarray:
    return np.array([_complex_in(v, where) for v in _list_in(lst, where)], dtype=complex)


def _matrix_out(mat: np.ndarray) -> list:
    return [[_complex_out(z) for z in row] for row in np.asarray(mat)]


def _matrix_in(lst: Any, where: str) -> np.ndarray:
    if not isinstance(lst, list) or not all(isinstance(r, list) for r in lst):
        raise FileFormatError(f"{where}: expected a nested list (row-major matrix)")
    return np.array(
        [[_complex_in(v, f"{where}[{i}]") for v in row] for i, row in enumerate(lst)],
        dtype=complex,
    )


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
        amps = _vector_in(obj.get("amplitudes"), f"{where}.amplitudes")
        if amps.size != system.total_dim:
            raise FileFormatError(
                f"{where}.amplitudes: length {amps.size} does not match dimension "
                f"{system.total_dim}"
            )
        _require_finite(amps, "amplitude vector")
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > tol:
            raise FileFormatError(
                f"{where}.amplitudes: norm {nrm} deviates from 1 beyond tolerance {tol}"
            )
        return StateVector(system, amps / nrm)
    if kind == "density":
        mat = _matrix_in(obj.get("matrix"), f"{where}.matrix")
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
                _matrix_in(obj["matrix"], f"{where}.matrix"), in_regs, out_regs
            )
        stages = []
        for k, st in enumerate(_list_in(obj.get("stages", []), f"{where}.stages")):
            at = f"{where}.stages[{k}]"
            st = _object_in(st, at)
            stages.append(
                Stage(
                    _matrix_in(st.get("matrix"), f"{at}.matrix"),
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
    try:
        return ClassicalFunctionPair(
            np.asarray(obj["f_a"], dtype=int),
            np.asarray(obj["f_b"], dtype=int),
            a_size,
            b_size,
        )
    except (KeyError, TypeError, ValueError) as e:
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
    try:
        return ClassicalProtocol(
            x_size,
            y_size,
            np.asarray(obj["r_probs"], dtype=float),
            tuple(np.asarray(k, dtype=float) for k in obj["kernels"]),
        )
    except (KeyError, TypeError, ValueError) as e:
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
        text = path.read_text()
    except OSError as e:
        raise FileFormatError(f"{path}: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
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
