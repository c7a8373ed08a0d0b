"""A fixed reference loop that gauges the host's speed while a workload runs.

On a shared host the same code runs tens of percent faster or slower from
one minute to the next, as other tenants' load comes and goes.  The
benchmark times this loop between cycles of a workload and scales the
workload's times by how far the loop is from its nominal time, so that a
run measured in a slow minute and one measured in a fast minute read
alike.  The loop uses numpy and plain Python only, never qiclab, so a
change to qiclab moves the workload's times and not the loop's.

Its mix follows the workloads' own: Python-level bookkeeping, partial
traces of a 4096-amplitude state, small Hermitian eigenvalue problems and
the matrix products of stage application, single-threaded sized.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one `reference_pass` on a 2-vCPU Intel Xeon VM (Python
# 3.11, numpy 2.4 with scipy-openblas 0.3.31, one BLAS thread).  Scaled times
# read as if measured on that host at that speed.
NOMINAL_S = 0.0022

_rng = np.random.default_rng(20140314)
_psi = _rng.standard_normal(4096) + 1j * _rng.standard_normal(4096)
_psi /= np.linalg.norm(_psi)
_u = np.linalg.qr(_rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32)))[0]


def reference_pass() -> float:
    """One pass of the loop; returns a value so the work cannot be skipped."""
    acc = 0.0
    registry = {}
    for i in range(200):  # register bookkeeping
        key = (f"R{i % 12}", i % 4 + 1)
        registry[key] = registry.get(key, 0) + i
    acc += len(registry)
    psi = _psi
    for _ in range(2):
        psi = (_u @ psi.reshape(32, 128)).reshape(-1)  # a stage on 5 of 12 qubits
        t = psi.reshape(8, 8, 64)
        for rho in (np.einsum("abk,cdk->abcd", t, t.conj()).reshape(64, 64),  # reductions
                    np.einsum("akb,ckb->ac", t.reshape(8, 8, 64), t.conj().reshape(8, 8, 64)),
                    np.einsum("kab,kcd->abcd", t.reshape(8, 8, 64)[:, :4, :4], t.conj().reshape(8, 8, 64)[:, :4, :4]).reshape(16, 16)):
            w = np.linalg.eigvalsh(rho)  # entropy kernel
            w = w[w > 1e-12]
            acc -= float(np.sum(w * np.log2(w)))
    return acc


def sample(passes: int) -> float:
    """Median seconds of ``passes`` consecutive passes (at least one)."""
    times = []
    for _ in range(max(1, passes)):
        t0 = time.perf_counter()
        reference_pass()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
