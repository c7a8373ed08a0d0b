"""JSON file formats for states, protocols, and classical objects.

Top-level objects carry a ``type`` field: ``state``, ``protocol``,
``classical_protocol`` or ``function_pair``. Complex numbers are always
two-element ``[re, im]`` arrays; matrices are row-major nested lists; the
register order in a file is authoritative for basis ordering.
"""

from __future__ import annotations

import json
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
    if not isinstance(lst, list):
        raise FileFormatError(f"{where}: expected a list")
    return np.array([_complex_in(v, where) for v in lst], dtype=complex)


def _matrix_out(mat: np.ndarray) -> list:
    return [[_complex_out(z) for z in row] for row in np.asarray(mat)]


def _matrix_in(lst: Any, where: str) -> np.ndarray:
    if not isinstance(lst, list) or not all(isinstance(r, list) for r in lst):
        raise FileFormatError(f"{where}: expected a nested list (row-major matrix)")
    return np.array(
        [[_complex_in(v, f"{where}[{i}]") for v in row] for i, row in enumerate(lst)],
        dtype=complex,
    )


def _regs_out(regs) -> list:
    return [{"name": r.name, "dim": r.dim} for r in regs]


def _regs_in(lst: Any, where: str) -> tuple[Register, ...]:
    if not isinstance(lst, list):
        raise FileFormatError(f"{where}: expected a list of registers")
    out = []
    for k, item in enumerate(lst):
        if not isinstance(item, dict) or "name" not in item or "dim" not in item:
            raise FileFormatError(f"{where}[{k}]: registers need 'name' and 'dim'")
        out.append(Register(str(item["name"]), int(item["dim"])))
    return tuple(out)


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
    if obj.get("type") != "state":
        raise FileFormatError(f"{where}: expected type 'state', got {obj.get('type')!r}")
    regs_raw = obj.get("registers")
    if not isinstance(regs_raw, list):
        raise FileFormatError(f"{where}.registers: expected a list")
    regs, holders = [], []
    for k, item in enumerate(regs_raw):
        if not isinstance(item, dict):
            raise FileFormatError(f"{where}.registers[{k}]: expected an object")
        try:
            regs.append(Register(str(item["name"]), int(item["dim"])))
        except KeyError as e:
            raise FileFormatError(f"{where}.registers[{k}]: missing field {e}") from None
        holder = item.get("holder", "reference")
        if holder not in _HOLDERS:
            raise FileFormatError(
                f"{where}.registers[{k}].holder: unknown holder {holder!r}"
            )
        holders.append(_HOLDERS[holder])
    system = RegisterSystem(tuple(regs), tuple(holders))
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
        return DensityOperator(
            system, mat / tr, classical=bool(obj.get("classical", False))
        )
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


def _unitary_in(obj: dict, where: str) -> UnitaryOp:
    in_regs = _regs_in(obj.get("in"), f"{where}.in")
    out_regs = _regs_in(obj.get("out"), f"{where}.out")
    try:
        if "matrix" in obj:
            return UnitaryOp.dense(
                _matrix_in(obj["matrix"], f"{where}.matrix"), in_regs, out_regs
            )
        stages = []
        for k, st in enumerate(obj.get("stages", [])):
            stages.append(
                Stage(
                    _matrix_in(st.get("matrix"), f"{where}.stages[{k}].matrix"),
                    tuple(str(n) for n in st.get("in", [])),
                    _regs_in(st.get("out"), f"{where}.stages[{k}].out"),
                )
            )
        return UnitaryOp(in_regs, out_regs, tuple(stages))
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


def obj_to_protocol(obj: dict, where: str = "protocol") -> ProtocolSpec:
    if obj.get("type") != "protocol":
        raise FileFormatError(f"{where}: expected type 'protocol', got {obj.get('type')!r}")
    preshared = obj_to_state(obj.get("preshared", {}), f"{where}.preshared")
    if not isinstance(preshared, StateVector):
        raise FileFormatError(f"{where}.preshared: must be a pure state vector")
    unitaries = tuple(
        _unitary_in(u, f"{where}.unitaries[{k}]")
        for k, u in enumerate(obj.get("unitaries", []))
    )
    messages = tuple(
        tuple(str(n) for n in block) for block in obj.get("messages", [])
    )
    slots = tuple(
        Slot(
            tuple(s.get("alice_in", [])),
            tuple(s.get("bob_in", [])),
            tuple(s.get("alice_out", [])),
            tuple(s.get("bob_out", [])),
        )
        for s in obj.get("slots", [])
    )
    p = ProtocolSpec(
        num_messages=int(obj.get("num_messages", 0)),
        preshared=preshared,
        unitaries=unitaries,
        alice_in=_regs_in(obj.get("alice_in"), f"{where}.alice_in"),
        bob_in=_regs_in(obj.get("bob_in"), f"{where}.bob_in"),
        messages=messages,
        alice_out=tuple(obj.get("alice_out", [])),
        bob_out=tuple(obj.get("bob_out", [])),
        alice_scratch=tuple(obj.get("alice_scratch", [])),
        bob_scratch=tuple(obj.get("bob_scratch", [])),
        slots=slots,
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
    try:
        return ClassicalFunctionPair(
            np.asarray(obj["f_a"], dtype=int),
            np.asarray(obj["f_b"], dtype=int),
            int(obj["a_size"]),
            int(obj["b_size"]),
        )
    except (KeyError, ValueError) as e:
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
    try:
        return ClassicalProtocol(
            int(obj["x_size"]),
            int(obj["y_size"]),
            np.asarray(obj["r_probs"], dtype=float),
            tuple(np.asarray(k, dtype=float) for k in obj["kernels"]),
        )
    except (KeyError, ValueError) as e:
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
