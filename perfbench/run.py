"""qiclab benchmark: seeded closed-loop workloads that call the library in-process.

Run from the repository root:

    python3 perfbench/run.py --workload rates-files --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads are ``slot-average``, ``rates-files`` and ``suite-light`` (see
``workloads.py`` for what each stresses and why).  ``all`` runs each in its
own process, one after another.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs an untraced and a traced pass
over the same operations and reports per-layer metrics per operation.
End-to-end times of the workloads in ``SCALED`` are scaled to the host's
nominal speed by a reference loop timed between pieces of work (see
``reference.py``).  The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
figures for people, with the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("slot-average", "rates-files", "suite-light")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads per workload, capped at nproc.  Two threads make the large
# slot-average kernels about 1.5x faster; the small-matrix workloads run
# steadier on one thread and lose little speed.
THREADS = {"slot-average": 2, "rates-files": 1, "suite-light": 1}
SETUP_REPEATS = 5
# Workloads whose times are scaled to the host's nominal speed (see
# reference.py and README.md).  Their pieces of work (a rates-files operation,
# about 0.08 s; a suite-light check, 2 ms to 0.8 s) are short next to the
# host's speed drift, so probes between them gauge the speed they ran at.
# slot-average stays unscaled: its halving check runs about 14 s in one piece,
# and the loop timed under its two BLAS threads does not track its speed
# (scaled per check, five runs spread 0.13 against 0.11 unscaled).
SCALED = {"rates-files", "suite-light"}
PROBE_EVERY_S = 0.5  # of work between two probes
PROBE_SHARE = 0.03  # of that work's length spent timing the reference loop
PROBE_MIN_PASSES = 5
P90_MIN_OPS = 100  # ten samples beyond the 90th percentile
SUBPROCESS_TIMEOUT_S = 170


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-process set-up, and the single-thread entropy pass
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--entropy-pass", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _child_cmd(workload: str, args, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def _thread_env(threads: int) -> dict:
    return dict(os.environ, **{v: str(threads) for v in THREAD_VARS})


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_threads_in_effect() -> dict:
    """Ask each loaded OpenBLAS library for its thread count."""
    import ctypes

    out = {}
    maps = Path("/proc/self/maps")
    if not maps.is_file():
        return out
    libs = {line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _metadata(workload: str, threads: int) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        b = cfg["Build Dependencies"]["blas"]
        return f"{b.get('name')} {b.get('version')}"

    cpu = "unknown"
    info = Path("/proc/cpuinfo")
    if info.is_file():
        for line in info.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy.show_config(mode="dicts")),
        "blas_scipy": blas(scipy.show_config(mode="dicts")),
        "blas_threads_set": threads,
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "tuning": "none: no CPU pinning, cgroup or cache tuning",
    }


class Gauge:
    """Times the reference loop between pieces of work (see reference.py).

    A probe runs before the first piece and whenever ``PROBE_EVERY_S`` of
    work has run since the last one, for about ``PROBE_SHARE`` of that work's
    length.  Each piece is scaled by the reference loop's nominal time over
    its mean time in the two probes around the piece.
    """

    def __init__(self):
        import reference  # numpy only after main() has set the BLAS threads

        self.reference = reference
        self.probes = [reference.sample(PROBE_MIN_PASSES)]
        self.pieces: list[tuple[int, float, int]] = []  # (operation, seconds, index of the probe before it)
        self.pending = 0.0  # seconds of work since the last probe

    def run(self, k: int, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            self.pieces.append((k, dt, len(self.probes) - 1))
            self.pending += dt
            if self.pending >= PROBE_EVERY_S:
                self.probe()

    def probe(self):
        if self.pending:
            passes = round(PROBE_SHARE * self.pending / self.probes[-1])
            self.probes.append(self.reference.sample(max(PROBE_MIN_PASSES, passes)))
            self.pending = 0.0

    def factors(self) -> list[float]:
        """Host speed between successive probes, as nominal over measured."""
        return [self.reference.NOMINAL_S / ((a + b) / 2) for a, b in zip(self.probes, self.probes[1:])]

    def scaled(self, n_ops: int) -> list[float]:
        """Seconds per operation, each piece scaled by the host speed around it."""
        f = self.factors()
        out = [0.0] * n_ops
        for k, dt, b in self.pieces:
            out[k] += dt * f[b]
        return out


class Window:
    """Operations of one closed-loop run: durations, failures, cycle wall times."""

    def __init__(self):
        self.durations: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.cycles: list[float] = []
        self.gauge: Gauge | None = None


def run_ops(wl, cases, seconds=None, n_ops=None, tracer=None, probe=False) -> Window:
    """Run whole cycles of operations from operation 0.

    With ``seconds``, stop before a cycle that the last cycle's length says
    would end past the deadline (at least one cycle runs); with ``n_ops``,
    run exactly that many whole cycles' worth.  An operation fails when its
    gate reports an error or it raises; a failure never aborts the run.
    With ``probe``, a `Gauge` times each operation (or each of its
    ``wl.parts``) and the reference loop between them; an operation's
    duration then leaves the probes out.
    """
    w = Window()
    gauge = w.gauge = Gauge() if probe else None
    k = 0
    begin = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for _ in range(wl.cycle):
            if tracer is not None:
                tracer.begin_op(k)
            n0 = len(gauge.pieces) if gauge else 0
            t0 = time.perf_counter()
            try:
                if gauge is None:
                    result = wl.op(cases, k)
                elif wl.parts is None:
                    result = gauge.run(k, lambda: wl.op(cases, k))
                else:
                    result = [r for part in wl.parts(cases, k) for r in gauge.run(k, part)]
                dt = time.perf_counter() - t0
                errors = wl.gate(cases, k, result)
            except Exception as e:  # counted in fail_ratio, never aborts the run
                dt = time.perf_counter() - t0
                errors = [f"{type(e).__name__}: {e}"]
            if gauge is not None:
                dt = sum(p[1] for p in gauge.pieces[n0:])
            w.durations.append(dt)
            if errors:
                w.failed += 1
                w.errors.extend(f"op {k}: {e}" for e in errors[:3])
            k += 1
        now = time.perf_counter()
        w.cycles.append(now - c0)
        if n_ops is not None:
            if len(w.durations) >= n_ops:
                break
        elif now - begin + w.cycles[-1] > seconds:
            break
    if gauge is not None:
        gauge.probe()
    return w


def _setup_seconds(args, threads: int) -> list[float]:
    """Set-up time of fresh processes: interpreter start, imports, inputs, files."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(_child_cmd(args.workload, args, "--setup-only"), env=_thread_env(threads), cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=SUBPROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def _entropy_self_single_thread(args) -> float:
    proc = subprocess.run(_child_cmd(args.workload, args, "--entropy-pass"), env=_thread_env(1), cwd=ROOT,
                          check=True, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])["measures.entropy.self_s"]


UNITS = {"calls": "count", "self_s": "s", "work": "count", "flop": "flop", "bytes": "B",
         "retained_mb": "MB", "entries": "count", "mb": "MB", "repeat_ratio": "ratio",
         "calls_per_message": "count", "overhead": "ratio", "blas_speedup": "ratio"}


def _report(metrics: dict, units: dict, attempted: int, failed: int, extra_lines=()) -> None:
    for line in extra_lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {units[name]}")
    print(f"{'fail_ratio':42s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def _run_all(args) -> int:
    status = 0
    for name in NAMES:
        print(f"== {name}", flush=True)
        rc = subprocess.run(_child_cmd(name, args, "--trace", str(args.trace)), cwd=ROOT).returncode
        status = status or rc
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qiclab" / "__init__.py").is_file():
        print(f"perfbench: no qiclab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    threads = min(1 if args.entropy_pass else THREADS[args.workload], os.cpu_count() or 1)
    os.environ.update({v: str(threads) for v in THREAD_VARS})  # before numpy loads BLAS
    sys.path.insert(0, str(SRC))

    import numpy as np
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        cases = wl.setup(args.seed, Path(tmp))
        if args.setup_only:
            return 0
        if args.entropy_pass:
            tracer = Tracer()
            with tracer.installed():
                run_ops(wl, cases, n_ops=wl.cycle, tracer=tracer)
            print(json.dumps(layer_metrics(tracer.spans, wl.cycle)))
            return 0

        meta = _metadata(wl.name, threads)
        if args.trace == 0:
            setups = _setup_seconds(args, threads)
            w = run_ops(wl, cases, seconds=args.seconds, probe=wl.name in SCALED)
            if w.gauge is None:
                d, cycles = w.durations, w.cycles
            else:
                d = w.gauge.scaled(len(w.durations))
                cycles = [sum(d[i:i + wl.cycle]) for i in range(0, len(d), wl.cycle)]
            metrics = {
                "ops_per_s": wl.cycle / statistics.median(cycles),
                "op_s.p50": statistics.median(d),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setups),
            }
            units = {"ops_per_s": "1/s", "op_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}
            lines = [f"meta {json.dumps(meta)}",
                     f"ops {len(d)} in {len(w.cycles)} cycles, {sum(w.cycles):.3f} s; set-ups {[round(s, 4) for s in setups]} s"]
            if w.gauge is not None:
                f = w.gauge.factors()
                lines += [f"host speed (reference nominal over measured) in {len(f)} intervals: median "
                          f"{statistics.median(f):.4g}, range {min(f):.4g}..{max(f):.4g}",
                          f"{'ops_per_s.unscaled':42s} {wl.cycle / statistics.median(w.cycles):.6g} 1/s",
                          f"{'op_s.p50.unscaled':42s} {statistics.median(w.durations):.6g} s"]
            if len(d) >= P90_MIN_OPS:
                lines.append(f"{'op_s.p90':42s} {float(np.percentile(d, 90)):.6g} s")
            else:
                lines.append(f"op_s.p90 not reported: {len(d)} ops < {P90_MIN_OPS}")
            lines += [f"error {e}" for e in w.errors[:20]]
            _report(metrics, units, len(d), w.failed, lines)
            return 0

        plain = run_ops(wl, cases, seconds=args.seconds / 2)
        n = len(plain.durations)
        tracer = Tracer(digests=True)
        with tracer.installed():
            traced = run_ops(wl, cases, n_ops=n, tracer=tracer)
        metrics = layer_metrics(tracer.spans, n)
        metrics["trace.overhead"] = statistics.median(traced.durations) / statistics.median(plain.durations) - 1
        own = metrics["measures.entropy.self_s"]
        metrics["measures.entropy.blas_speedup"] = _entropy_self_single_thread(args) / own if own else 0.0
        units = {name: UNITS[name.rsplit(".", 1)[1]] for name in metrics}
        lines = [f"meta {json.dumps(meta)}", f"traced ops {n} (plus {n} untraced)"]
        lines += [f"error {e}" for e in (plain.errors + traced.errors)[:20]]
        _report(metrics, units, 2 * n, plain.failed + traced.failed, lines)
        return 0


if __name__ == "__main__":
    sys.exit(main())
