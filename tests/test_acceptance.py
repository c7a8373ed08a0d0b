"""Acceptance criteria.

Each test runs one criterion's checks at the pinned tolerance, prints a
pass/fail line, and enforces the runtime budget where one is stated.
Criteria run the registered suite checks, which evaluate both sides of
every identity through independent code paths.
"""

import time

from qiclab.suite import ACCEPTANCE_MAP, CHECKS, run_suite

SEED = 2024

# pinned tolerances per check; a drift in the registry is a test failure
PINNED_TOLERANCES = {
    "entropy-bounds": 1e-8,
    "chain-rule": 1e-8,
    "strong-subadditivity": 1e-8,
    "data-processing": 1e-8,
    "product-additivity": 1e-8,
    "classical-conditioning": 1e-8,
    "pure-state-symmetry": 1e-8,
    "trace-distance-properties": 1e-8,
    "qic-sandwich": 1e-8,
    "pure-input-zero": 1e-9,
    "parallel-additivity": 1e-7,
    "input-fixing-split": 1e-7,
    "mixture-channel": 1e-9,
    "mixture-affinity": 1e-7,
    "mixture-degenerate": 1e-9,
    "input-concavity": 1e-8,
    "and-average-halving": 1e-5,
    "and-average-channel": 1e-8,
    "and-average-pure": 1e-8,
    "failure-bound": 1e-9,
    "ic-rewrite": 1e-10,
    "budget-total": 1e-8,
    "entanglement-rate-bounds": 1e-9,
    "redistribution-steps": 1e-9,
    "known-values": 1e-9,
    "error-unitary-invariance": 1e-9,
    "mixture-error-convexity": 1e-8,
    "measured-state-form": 1e-12,
    "nfold-percopy": 1e-8,
    "purity-symmetry": 1e-9,
    "run-norm-audit": 1e-12,
    "qic-padding": 1e-9,
    "budget-correlated-bit": 1e-8,
}


def _run_criterion(name: str, budget_s: float | None = None) -> None:
    ids = ACCEPTANCE_MAP[name]
    for check_id in ids:
        assert CHECKS[check_id].tolerance == PINNED_TOLERANCES[check_id], (
            f"{check_id}: registered tolerance drifted from the pinned value"
        )
    t0 = time.perf_counter()
    results = run_suite(ids, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = all(r.status == "pass" for r in results)
    budget = f" ({elapsed:.1f}s/{budget_s:.0f}s)" if budget_s else f" ({elapsed:.1f}s)"
    print(f"{'PASS' if ok else 'FAIL'} {name}{budget}")
    for r in results:
        assert r.status == "pass", (
            f"{r.check_id}: kind={r.kind} lhs={r.lhs!r} rhs={r.rhs!r} "
            f"tol={r.tolerance} seed={r.seed} detail={r.detail!r}"
        )
    if budget_s is not None:
        assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"


def test_criteria_cover_every_registered_check_once():
    listed = [check_id for ids in ACCEPTANCE_MAP.values() for check_id in ids]
    assert sorted(listed) == sorted(CHECKS)


def test_every_registered_check_is_pinned():
    for check_id, check in CHECKS.items():
        assert check_id in PINNED_TOLERANCES, f"{check_id}: no pinned tolerance"
        assert check.tolerance == PINNED_TOLERANCES[check_id], (
            f"{check_id}: registered tolerance drifted from the pinned value"
        )


def test_criterion_01_entropy_identity_suite():
    """Chain rule, strong subadditivity, data processing, additivity,
    classical conditioning, purity symmetry, trace-distance properties:
    at least 100 seeded instances each on dimensions 2-4 within 1e-8; and
    complementary reductions of every protocol step share their entropy
    within 1e-9."""
    _run_criterion("entropy-identity-suite", budget_s=120.0)


def test_criterion_02_cost_sandwich():
    """0 <= information cost <= communication cost over 100 seeded
    protocols with 2 or 4 messages on qubit registers; dimension-1 padding
    rounds leave both costs unchanged within 1e-9; every intermediate
    global state stays normalized within 1e-12."""
    _run_criterion("cost-sandwich", budget_s=120.0)


def test_criterion_03_pure_input_nullity():
    """Information cost at most 1e-9 on 50 random pure inputs."""
    _run_criterion("pure-input-nullity")


def test_criterion_04_additivity():
    """Parallel-composition additivity and the input-fixing split, each
    within 1e-7 on 25 seeded instances; per-copy errors of parallel copies
    within 1e-8."""
    _run_criterion("additivity")


def test_criterion_05_convex_mixture():
    """Mixture channel identity within 1e-9 on probes, cost affinity
    within 1e-7, degenerate probabilities exact to 1e-9, the mixture's
    error convex within 1e-8."""
    _run_criterion("convex-mixture")


def test_criterion_06_input_concavity():
    """Concavity slack at least -1e-8 on 50 instances including
    orthogonal classical mixtures."""
    _run_criterion("input-concavity")


def test_criterion_07_slot_averaging():
    """Two-slot averaging at full scale: the averaged protocol costs half
    the two-slot cost within 1e-5, its channel is the uniform average of
    the embeddings, and a point-mass input is free."""
    _run_criterion("slot-averaging", budget_s=1800.0)


def test_criterion_08_failure_bound():
    """Average failure probability at most half the protocol error on 20
    classical task instances including an exact and a corrupted one; the
    error unchanged by a joint output unitary within 1e-9."""
    _run_criterion("failure-bound")


def test_criterion_09_ic_rewrite():
    """Transcript information cost equals the message-local rewriting
    within 1e-10 on 200 seeded classical protocols."""
    _run_criterion("ic-rewrite")


def test_criterion_10_budget():
    """Compression budget totals cost plus delta within 1e-8; per-message
    entanglement rates within message capacity; step partitions reproduce
    the cost terms within 1e-9; the correlated bit budgets 1 + delta
    within 1e-8."""
    _run_criterion("budget")


def test_criterion_11_known_values():
    """Hand-derived spot values: entangled pair 2 bits, three-party chain
    1 bit, basis-vs-diagonal distance sqrt(2), correlated bit cost 1; a
    function channel's measured output state within 1e-12."""
    _run_criterion("known-values")
