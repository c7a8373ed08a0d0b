"""Spans around qiclab's public functions, recorded from outside the package.

The benchmark's traced run wraps the public functions named in ``TARGETS``
and swaps each wrapper into every ``qiclab`` module namespace that binds the
original, because ``protocol``, ``redistribution`` and ``suite`` import
their helpers by name and a patch of the defining module alone would miss
their calls.  The suite's check bodies are wrapped in ``suite.CHECKS``.

Each span records its name, start, end, parent span and operation id.
Spans stay in memory; ``layer_metrics`` turns them into per-operation
figures per layer after the run.  Work figures ("computed") come from
array shapes, not from hardware counters.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np
import qiclab.suite as suite
from qiclab.hilbert import StateVector


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int
    info: dict | None


def _entropy_info(tracer: "Tracer", args, kwargs) -> dict:
    """Kernel work m^2 n (m the smaller side) and, when enabled, a repeat key."""
    state = args[0]
    system = state.system
    sub = args[1] if len(args) > 1 else kwargs.get("subsystem")
    sub = system.names if sub is None else tuple(sub)
    d_sub = math.prod(system.register(n).dim for n in sub)
    if isinstance(state, StateVector):
        d_comp = system.total_dim // d_sub
        m, n = min(d_sub, d_comp), max(d_sub, d_comp)
        work = 0 if m == 1 else m * m * n
        comp = tuple(sorted(system.complement(sub)))
        side = min(tuple(sorted(sub)), comp)  # H(S) = H(S^c) on a pure state
        data = state.amplitudes
    else:
        work = d_sub**3
        side = tuple(sorted(sub))
        data = state.matrix
    info = {"work": work}
    if tracer.digests:
        with tracer.span("trace.digest"):
            key = (tracer.digest(data), system.names, system.dims, side)
        info["repeat"] = key in tracer.seen
        tracer.seen.add(key)
    return info


def _apply_unitary_info(tracer, args, kwargs) -> dict:
    """8 d N real flops per stage; bytes: contiguous copy and matmul result
    per stage, plus the final contiguous result (complex128, 16 B each)."""
    state, u = args[0], args[1]
    n = state.system.total_dim
    flop = sum(8 * st.matrix.shape[0] * n for st in u.stages)
    return {"flop": flop, "bytes": 16 * n * (2 * len(u.stages) + 1)}


def _run_info(tracer, args, kwargs) -> dict:
    p = args[0]
    if id(p) not in tracer.protocols:
        tracer.protocols[id(p)] = p
        return {"messages": p.num_messages}
    return {"messages": 0}


def _run_result(info: dict, traj) -> None:
    held = sum(s.amplitudes.nbytes for s in traj.steps)
    info["retained_mb"] = (held + traj.final_state.amplitudes.nbytes + traj.output.matrix.nbytes) / 1e6


def _load_info(tracer, args, kwargs) -> dict:
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _entries_result(info: dict, table) -> None:
    info["entries"] = int(np.asarray(table).size)


class Target(NamedTuple):
    module: str
    attr: str
    before: Callable | None = None
    after: Callable | None = None


#: Public functions wrapped in the traced run; the span name is "module.attr".
TARGETS = (
    Target("measures", "entropy", _entropy_info),
    Target("measures", "cond_entropy"),
    Target("measures", "mutual_info"),
    Target("measures", "cond_mutual_info"),
    Target("measures", "trace_norm"),
    Target("hilbert", "apply_unitary", _apply_unitary_info),
    Target("hilbert", "reduced_density"),
    Target("hilbert", "purify"),
    Target("hilbert", "canonical_purification"),
    Target("hilbert", "tensor"),
    Target("protocol", "run", _run_info, _run_result),
    Target("protocol", "qic_terms"),
    Target("protocol", "validate"),
    Target("constructions", "and_average_protocol"),
    Target("constructions", "and_embed_protocol"),
    Target("constructions", "parallel_compose"),
    Target("constructions", "fix_input"),
    Target("constructions", "convex_mix"),
    Target("constructions", "controlled_permutation"),
    Target("classical", "joint_distribution", None, _entries_result),
    Target("classical", "function_channel"),
    Target("classical", "exact_protocol_for"),
    Target("classical", "noisy_protocol_for"),
    Target("classical", "classical_ic"),
    Target("classical", "classical_ic_prime"),
    Target("redistribution", "redist_rates"),
    Target("redistribution", "protocol_step_rates"),
    Target("redistribution", "compression_budget"),
    Target("fileio", "load", _load_info),
)

#: Layer metric prefix -> span names whose self times and calls it sums.
LAYERS = {
    "measures.entropy": ("measures.entropy",),
    "measures.cmi": ("measures.cond_mutual_info", "measures.mutual_info", "measures.cond_entropy"),
    "measures.trace_norm": ("measures.trace_norm",),
    "hilbert.apply_unitary": ("hilbert.apply_unitary",),
    "hilbert.reduced_density": ("hilbert.reduced_density",),
    "hilbert.purify": ("hilbert.purify", "hilbert.canonical_purification"),
    "hilbert.tensor": ("hilbert.tensor",),
    "protocol.run": ("protocol.run",),
    "protocol.qic_terms": ("protocol.qic_terms",),
    "protocol.validate": ("protocol.validate",),
    "constructions.build": (
        "constructions.and_average_protocol",
        "constructions.and_embed_protocol",
        "constructions.parallel_compose",
        "constructions.fix_input",
        "constructions.convex_mix",
    ),
    "constructions.controlled_permutation": ("constructions.controlled_permutation",),
    "classical.joint_distribution": ("classical.joint_distribution",),
    "classical.build": (
        "classical.function_channel",
        "classical.exact_protocol_for",
        "classical.noisy_protocol_for",
    ),
    "classical.ic": ("classical.classical_ic", "classical.classical_ic_prime"),
    "redistribution.rates": (
        "redistribution.redist_rates",
        "redistribution.protocol_step_rates",
        "redistribution.compression_budget",
    ),
    "fileio.load": ("fileio.load",),
    "suite.check": ("suite.check",),
}

#: Layers that also report their call count per operation.
COUNTED = (
    "measures.entropy",
    "hilbert.apply_unitary",
    "hilbert.reduced_density",
    "protocol.run",
    "classical.joint_distribution",
    "fileio.load",
)

#: (metric name, span info key, layer) for computed work summed per operation.
SUMMED = (
    ("measures.entropy.work", "work", "measures.entropy"),
    ("hilbert.apply_unitary.flop", "flop", "hilbert.apply_unitary"),
    ("hilbert.apply_unitary.bytes", "bytes", "hilbert.apply_unitary"),
    ("protocol.run.retained_mb", "retained_mb", "protocol.run"),
    ("classical.joint_distribution.entries", "entries", "classical.joint_distribution"),
    ("fileio.load.mb", "mb", "fileio.load"),
)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self, digests: bool = False):
        self.spans: list[Span | None] = []
        self.digests = digests
        self.op = -1
        self._stack: list[int] = []
        self.seen: set = set()
        self.protocols: dict = {}
        self._digest_cache: dict = {}

    def begin_op(self, op: int) -> None:
        """Start a new operation: repeats and distinct protocols are per operation."""
        self.op = op
        self.seen = set()
        self.protocols = {}
        self._digest_cache = {}

    def digest(self, arr: np.ndarray) -> bytes:
        # the cache keeps ``arr`` alive, so its id is not reused within the operation
        hit = self._digest_cache.get(id(arr))
        if hit is None:
            h = hashlib.blake2b(np.ascontiguousarray(arr).view(np.uint8), digest_size=16)
            hit = (arr, h.digest())
            self._digest_cache[id(arr)] = hit
        return hit[1]

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = Span(name, t0, t1, parent, self.op, info)

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = before(self, args, kwargs) if before else ({} if after else None)
            with self.span(name, info):
                result = fn(*args, **kwargs)
            if after:
                after(info, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every qiclab namespace binding a target; restore on exit."""
        mods = [m for n, m in list(sys.modules.items()) if n == "qiclab" or n.startswith("qiclab.")]
        undo = []
        for t in TARGETS:
            orig = getattr(sys.modules[f"qiclab.{t.module}"], t.attr)
            w = self.wrap(f"{t.module}.{t.attr}", orig, t.before, t.after)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, w)
                        undo.append((m, attr, orig))
        checks = dict(suite.CHECKS)
        for cid, c in checks.items():
            suite.CHECKS[cid] = dataclasses.replace(c, fn=self.wrap("suite.check", c.fn))
        try:
            yield self
        finally:
            for m, attr, orig in undo:
                setattr(m, attr, orig)
            suite.CHECKS.update(checks)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-operation layer figures from one traced pass of ``n_ops`` operations."""
    selfs = self_times(spans)
    layer_of = {name: layer for layer, names in LAYERS.items() for name in names}
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    sums: dict[str, float] = {name: 0.0 for name, _, _ in SUMMED}
    repeats = messages = 0
    for s, t in zip(spans, selfs):
        layer = layer_of.get(s.name)
        if layer is None:
            continue
        self_s[layer] += t
        calls[layer] += 1
        info = s.info or {}
        for name, key, lay in SUMMED:
            if lay == layer:
                sums[name] += info.get(key, 0)
        repeats += bool(info.get("repeat"))
        messages += info.get("messages", 0)
    out = {}
    for layer in LAYERS:
        if layer in COUNTED:
            out[f"{layer}.calls"] = calls[layer] / n_ops
        out[f"{layer}.self_s"] = self_s[layer] / n_ops
    for name, value in sums.items():
        out[name] = value / n_ops
    n_entropy = calls["measures.entropy"]
    out["measures.entropy.repeat_ratio"] = repeats / n_entropy if n_entropy else 0.0
    out["measures.entropy.calls_per_message"] = n_entropy / messages if messages else 0.0
    return out
