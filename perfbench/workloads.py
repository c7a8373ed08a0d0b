"""The benchmark's workloads: seeded inputs, one operation, and its gate.

Every workload is closed-loop with one client: the next operation starts
only after the previous one returned.  ``setup`` turns the workload seed
into the list of cases (generated objects or files) before timing starts;
operation ``k`` runs case ``k % len(cases)``, and ``cycle`` operations make
one pass over distinct work.  ``gate`` returns the reasons an operation's
result is wrong, empty when it is right; the tolerances are the pinned ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

# Library calls go through the module attributes so that the traced run's
# patches of those attributes see them.
from qiclab import fileio, fuzz, protocol, redistribution, suite
from qiclab.suite import ACCEPTANCE_MAP, CHECKS


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int
    setup: Callable[[int, Path], list]
    op: Callable[[list, int], Any]
    gate: Callable[[list, int, Any], list[str]]
    # ``op`` split into pieces whose list results concatenate to its result,
    # for runs that gauge the host's speed between pieces (see run.py)
    parts: Callable[[list, int], list[Callable[[], list]]] | None = None


def derived_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in fuzz.rng_from(seed).integers(0, 2**31 - 1, size=n)]


# -- slot-average ------------------------------------------------------------
# Why: acceptance criterion 07 in full (two bit-pair slots, support-sized
# purifiers, a 3,981,312-dimensional global state) is the heaviest traffic
# users and tier-1 pay for.  The halving check is almost all large entropy
# kernels (matrices up to 1728 x 2304), the channel check mostly stage
# application and reductions; peak memory is set here.  No entropy call
# repeats within an operation, so work deduplication should not move it.

SLOT_CHECKS = tuple(ACCEPTANCE_MAP["slot-averaging"])
HALVING_TOL = 1e-5  # pinned in tests/test_acceptance.py


def _slot_setup(seed: int, workdir: Path) -> list:
    return derived_seeds(seed, 1)


def _slot_op(cases: list, k: int):
    return suite.run_suite(SLOT_CHECKS, seed=cases[k % len(cases)])


def _slot_gate(cases: list, k: int, results) -> list[str]:
    errors = [f"{r.check_id}: {r.status} ({r.detail})" for r in results if r.status != "pass"]
    if sorted(r.check_id for r in results) != sorted(SLOT_CHECKS):
        errors.append(f"ran {[r.check_id for r in results]}")
    for r in results:
        if r.check_id == "and-average-halving" and not abs(r.lhs - r.rhs) <= HALVING_TOL:
            errors.append(f"halving residual {abs(r.lhs - r.rhs)} > {HALVING_TOL}")
    return errors


# -- rates-files ---------------------------------------------------------------
# Why: the `qiclab qic` / `redist-rates` / `budget` traffic on one pair of
# files.  Medium dimension (4096), so `run` and the entropy kernel share the
# time and file loading is visible.  Each operation simulates the same
# protocol three times and most entropy calls repeat a (state, side) pair
# already computed in the operation: deduplication gains show here, large
# kernel gains much less than on slot-average.

RATES_FILES = 8
RATES_MESSAGES = 6
DELTA = 0.1
BUDGET_TOL = 1e-8  # pinned for budget-total
STEP_TOL = 1e-9  # pinned for redistribution-steps
SANDWICH_TOL = 1e-8  # pinned for qic-sandwich


def _rates_setup(seed: int, workdir: Path) -> list:
    cases = []
    for i, s in enumerate(derived_seeds(seed, RATES_FILES)):
        p = fuzz.random_protocol(
            s,
            RATES_MESSAGES,
            alice_in_dims=(4,),
            bob_in_dims=(4,),
            preshared_dims=(4, 4),
        )
        rho = fuzz.random_input_density(p, s + 1)  # full rank
        pp, sp = workdir / f"protocol-{i}.json", workdir / f"state-{i}.json"
        fileio.save(p, pp)
        fileio.save(rho, sp)
        cases.append((pp, sp))
    return cases


def _rates_op(cases: list, k: int):
    pp, sp = cases[k % len(cases)]
    p = fileio.load_protocol(pp)
    rho = fileio.load_state(sp)
    terms = protocol.qic_terms(p, rho)
    steps = redistribution.protocol_step_rates(p, rho)
    budget = redistribution.compression_budget(p, rho, DELTA)
    return terms, steps, budget, protocol.qcc(p)


def _rates_gate(cases: list, k: int, result) -> list[str]:
    terms, steps, budget, qcc_value = result
    errors = []
    if len(terms) != RATES_MESSAGES or len(steps) != RATES_MESSAGES:
        errors.append(f"{len(terms)} terms, {len(steps)} steps for {RATES_MESSAGES} messages")
    qic_value = sum(terms)
    if not abs(budget.total_rate - (qic_value + DELTA)) <= BUDGET_TOL:
        errors.append(f"budget {budget.total_rate} != QIC {qic_value} + {DELTA}")
    for i, (st, t) in enumerate(zip(steps, terms), start=1):
        if not abs(st.q_min - t) <= STEP_TOL:
            errors.append(f"step {i}: q_min {st.q_min} != term {t}")
    if not -SANDWICH_TOL <= qic_value <= qcc_value + SANDWICH_TOL:
        errors.append(f"QIC {qic_value} outside [0, QCC {qcc_value}]")
    return errors


# -- suite-light -----------------------------------------------------------------
# Why: the 31 non-heavy registry checks are overhead-bound: about 16k entropy
# calls of about 0.1 ms per pass and many validate/tensor/apply_unitary calls
# on tiny states, plus the only classical and small-construction traffic.
# Added per-call cost (memo bookkeeping, tracing hooks, validation gates)
# shows here first; a large-matrix kernel change should leave it unchanged.
# One operation is a whole pass: single checks take 2 ms to 0.7 s, and the
# median of such a mix jumps between checks from run to run.

LIGHT_CHECKS = tuple(sorted(c for c, d in CHECKS.items() if not d.heavy))
LIGHT_SEEDS = 8


def _light_setup(seed: int, workdir: Path) -> list:
    return derived_seeds(seed, LIGHT_SEEDS)


def _light_op(cases: list, k: int):
    return suite.run_suite(LIGHT_CHECKS, seed=cases[k % len(cases)])


def _light_parts(cases: list, k: int):
    # each check draws from its own seed, so one check at a time gives the same results
    return [partial(suite.run_suite, (c,), seed=cases[k % len(cases)]) for c in LIGHT_CHECKS]


def _light_gate(cases: list, k: int, results) -> list[str]:
    errors = []
    if [r.check_id for r in results] != list(LIGHT_CHECKS):
        errors.append(f"ran {len(results)} checks, expected {len(LIGHT_CHECKS)}")
    for r in results:
        if r.status != "pass":
            errors.append(f"{r.check_id}: {r.status} lhs={r.lhs} rhs={r.rhs} ({r.detail})")
        if r.tolerance != CHECKS[r.check_id].tolerance:
            errors.append(f"{r.check_id}: ran at {r.tolerance}, registered {CHECKS[r.check_id].tolerance}")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload("slot-average", 1, _slot_setup, _slot_op, _slot_gate),
        Workload("rates-files", RATES_FILES, _rates_setup, _rates_op, _rates_gate),
        Workload("suite-light", 1, _light_setup, _light_op, _light_gate, _light_parts),
    )
}
