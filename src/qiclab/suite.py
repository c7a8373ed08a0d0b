"""Registry of self-checks keyed to the identities the package implements.

Every check draws its instances from a seeded generator, evaluates both
sides of an equality (or the slack of an inequality) through independent
code paths, and reports the worst instance. ``run_suite`` executes a
selection and returns one result per check; results are deterministic
for a fixed seed.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import fuzz
from .hilbert import (
    ALICE,
    BOB,
    REFERENCE,
    ChannelOp,
    Register,
    RegisterSystem,
    Stage,
    StateVector,
    UnitaryOp,
    _dot,
    channel_from_kraus,
    classical_state,
    canonical_classical_purification,
    canonical_purification,
    measurement_channel,
    permute,
    reduced_density,
    tensor,
)
from .measures import (
    cond_entropy,
    cond_mutual_info,
    entropy,
    mutual_info,
    trace_distance,
    trace_norm,
)
from .protocol import (
    ProtocolSpec,
    QuantumTask,
    _output_regs,
    message_dims,
    pad_rounds,
    protocol_error,
    qcc,
    qic,
    run,
    nfold_error_check,
    purify_input,
)
from .constructions import (
    and_average_protocol,
    and_embed_protocol,
    concavity_check,
    convex_mix,
    fix_input,
    parallel_compose,
)
from .classical import (
    and_pair,
    classical_ic,
    classical_ic_prime,
    disjointness_pair,
    exact_protocol_for,
    failure_probability,
    function_channel,
    noisy_protocol_for,
)
from .redistribution import compression_budget, protocol_step_rates


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one registered check.

    ``kind`` records how lhs/rhs compare: ``eq`` fails when |lhs - rhs|
    exceeds the tolerance, ``ge``/``le`` when the slack is beyond it.
    """

    check_id: str
    status: str
    kind: str
    lhs: float
    rhs: float
    tolerance: float
    runtime_ms: float
    seed: int
    anchor: str
    detail: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CheckDef:
    anchor: str
    tolerance: float
    fn: Callable
    heavy: bool = False


CHECKS: dict[str, CheckDef] = {}


def _register(check_id: str, anchor: str, tolerance: float, heavy: bool = False):
    def wrap(fn):
        CHECKS[check_id] = CheckDef(anchor, tolerance, fn, heavy)
        return fn

    return wrap


class _Worst:
    """Tracks the worst instance of an equality or inequality family."""

    def __init__(self, kind: str):
        self.kind = kind
        self.lhs = 0.0
        self.rhs = 0.0
        self.detail = ""
        self._score = -math.inf

    def add(self, lhs: float, rhs: float, detail: str = "") -> None:
        if self.kind == "eq":
            score = abs(lhs - rhs)
        elif self.kind == "ge":
            score = rhs - lhs  # largest violation of lhs >= rhs
        else:  # le
            score = lhs - rhs
        if score > self._score:
            self._score = score
            self.lhs, self.rhs, self.detail = float(lhs), float(rhs), detail

    def result(self) -> tuple[str, float, float, str]:
        return self.kind, self.lhs, self.rhs, self.detail


def _passes(kind: str, lhs: float, rhs: float, tol: float) -> bool:
    if kind == "eq":
        return abs(lhs - rhs) <= tol
    if kind == "ge":
        return lhs >= rhs - tol
    return lhs <= rhs + tol


# ---------------------------------------------------------------------------
# Entropy and distance identities
# ---------------------------------------------------------------------------


def _random_tripartite(rng) -> StateVector:
    dims = rng.integers(2, 5, size=4)
    return fuzz.random_state_vector(
        [
            ("A", int(dims[0]), ALICE),
            ("B", int(dims[1]), BOB),
            ("C", int(dims[2]), REFERENCE),
            ("E", int(dims[3]), REFERENCE),
        ],
        rng,
    )


@_register(
    "entropy-bounds",
    "0 <= H(A) <= log2 dim A; -H(A) <= H(A|B) <= H(A); 0 <= I(A;B) <= 2H(A); 0 <= I(A;B|C) <= 2H(A)",
    1e-8,
)
def _check_entropy_bounds(rng, tol):
    worst = _Worst("ge")
    for _ in range(100):
        st = _random_tripartite(rng)
        da = st.system.register("A").dim
        h_a = entropy(st, ["A"])
        h_ab = cond_entropy(st, ["A"], ["B"])
        i_ab = mutual_info(st, ["A"], ["B"])
        i_abc = cond_mutual_info(st, ["A"], ["B"], ["C"])
        worst.add(h_a, 0.0, "H(A) >= 0")
        worst.add(math.log2(da), h_a, "H(A) <= log2 dim")
        worst.add(h_ab, -h_a, "H(A|B) >= -H(A)")
        worst.add(h_a, h_ab, "H(A|B) <= H(A)")
        worst.add(i_ab, 0.0, "I >= 0")
        worst.add(2 * h_a, i_ab, "I <= 2H(A)")
        worst.add(i_abc, 0.0, "CMI >= 0")
        worst.add(2 * h_a, i_abc, "CMI <= 2H(A)")
    return worst.result()


@_register("chain-rule", "I(AB;C|D) = I(A;C|D) + I(B;C|AD)", 1e-8)
def _check_chain_rule(rng, tol):
    worst = _Worst("eq")
    for _ in range(100):
        dims = rng.integers(2, 4, size=5)
        st = fuzz.random_state_vector(
            [
                ("A", int(dims[0]), ALICE),
                ("B", int(dims[1]), ALICE),
                ("C", int(dims[2]), BOB),
                ("D", int(dims[3]), BOB),
                ("E", int(dims[4]), REFERENCE),
            ],
            rng,
        )
        lhs = cond_mutual_info(st, ["A", "B"], ["C"], ["D"])
        rhs = cond_mutual_info(st, ["A"], ["C"], ["D"]) + cond_mutual_info(
            st, ["B"], ["C"], ["A", "D"]
        )
        worst.add(lhs, rhs)
    return worst.result()


@_register("strong-subadditivity", "I(A;B|C) >= 0", 1e-8)
def _check_ssa(rng, tol):
    worst = _Worst("ge")
    for _ in range(100):
        st = _random_tripartite(rng)
        worst.add(cond_mutual_info(st, ["A"], ["B"], ["C"]), 0.0)
    return worst.result()


@_register(
    "data-processing", "I(A;B|C) >= I(A;B'|C) after a channel on B", 1e-8
)
def _check_data_processing(rng, tol):
    worst = _Worst("ge")
    for _ in range(100):
        st = _random_tripartite(rng)
        d_b = st.system.register("B").dim
        d_out = int(rng.integers(2, 4))
        ch = fuzz.random_kraus_channel(
            [("B", d_b)], [("Bp", d_out)], int(rng.integers(1, 4)), rng
        )
        lhs = cond_mutual_info(st, ["A"], ["B"], ["C"])
        out, _ = ch.apply_to_vector(st)
        rhs = cond_mutual_info(out, ["A"], ["Bp"], ["C"])
        worst.add(lhs, rhs)
    return worst.result()


@_register(
    "product-additivity",
    "on product states entropy adds, cross blocks carry no conditional information",
    1e-8,
)
def _check_product_additivity(rng, tol):
    worst = _Worst("eq")
    for _ in range(100):
        d1 = [int(x) for x in rng.integers(2, 4, size=4)]
        d2 = [int(x) for x in rng.integers(2, 4, size=4)]
        s1 = fuzz.random_state_vector(
            [("A1", d1[0], ALICE), ("B1", d1[1], BOB), ("C1", d1[2], BOB), ("E1", d1[3], REFERENCE)],
            rng,
        )
        s2 = fuzz.random_state_vector(
            [("A2", d2[0], ALICE), ("B2", d2[1], BOB), ("C2", d2[2], BOB), ("E2", d2[3], REFERENCE)],
            rng,
        )
        st = tensor(s1, s2)
        worst.add(
            entropy(st, ["A1", "A2"]),
            entropy(st, ["A1"]) + entropy(st, ["A2"]),
            "H(A1 A2) = H(A1) + H(A2)",
        )
        worst.add(
            cond_mutual_info(st, ["A1"], ["A2"], ["B1", "B2"]),
            0.0,
            "I(A1;A2|B1 B2) = 0",
        )
        worst.add(
            cond_mutual_info(st, ["A1"], ["B1"], ["C1", "A2"]),
            cond_mutual_info(st, ["A1"], ["B1"], ["C1"]),
            "conditioning on a product block is idle",
        )
        worst.add(
            cond_mutual_info(st, ["A1", "A2"], ["B1", "B2"], ["C1", "C2"]),
            cond_mutual_info(st, ["A1"], ["B1"], ["C1"])
            + cond_mutual_info(st, ["A2"], ["B2"], ["C2"]),
            "blockwise CMI adds",
        )
    return worst.result()


@_register(
    "classical-conditioning",
    "conditioning on a classical flag averages: I(A;B|CX) = sum_x p(x) I(A;B|C)",
    1e-8,
)
def _check_classical_conditioning(rng, tol):
    worst = _Worst("eq")
    for _ in range(100):
        k = int(rng.integers(2, 4))
        p = rng.random(k)
        p /= p.sum()
        dims = [int(x) for x in rng.integers(2, 4, size=4)]
        specs = [
            ("A", dims[0], ALICE),
            ("B", dims[1], BOB),
            ("C", dims[2], BOB),
            ("E", dims[3], REFERENCE),
        ]
        branches = [fuzz.random_state_vector(specs, rng) for _ in range(k)]
        d = branches[0].system.total_dim
        amps = np.zeros(k * d * k, dtype=complex)
        for x, b in enumerate(branches):
            block = math.sqrt(p[x]) * b.amplitudes
            for j, z in enumerate(block):
                amps[(x * d + j) * k + x] = z
        system = RegisterSystem(
            (Register("X", k),) + branches[0].system.registers + (Register("Xc", k),),
            (ALICE,) + branches[0].system.holders + (REFERENCE,),
        )
        st = StateVector(system, amps)
        lhs = cond_mutual_info(st, ["A"], ["B"], ["C", "X"])
        rhs = sum(
            p[x] * cond_mutual_info(b, ["A"], ["B"], ["C"])
            for x, b in enumerate(branches)
        )
        worst.add(lhs, rhs)
    return worst.result()


@_register("pure-state-symmetry", "H(A) = H(B) for pure bipartite states", 1e-8)
def _check_pure_symmetry(rng, tol):
    worst = _Worst("eq")
    for _ in range(100):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        st = fuzz.random_state_vector([("A", da, ALICE), ("B", db, BOB)], rng)
        worst.add(entropy(st, ["A"]), entropy(st, ["B"]))
    return worst.result()


@_register(
    "trace-distance-properties",
    "monotone under channels, invariant under unitaries and uncorrelated factors, jointly linear over a classical flag",
    1e-8,
)
def _check_trace_distance(rng, tol):
    worst_eq = _Worst("eq")
    worst_ge = _Worst("ge")
    for _ in range(100):
        d = int(rng.integers(2, 5))
        r1 = fuzz.random_density_operator([("A", d, ALICE)], rng)
        r2 = fuzz.random_density_operator([("A", d, ALICE)], rng)
        base = trace_distance(r1, r2)
        ch = fuzz.random_kraus_channel(
            [("A", d)], [("Ap", int(rng.integers(2, 4)))], 2, rng
        )
        o1 = reduced_density(ch.apply(r1), ["Ap"])
        o2 = reduced_density(ch.apply(r2), ["Ap"])
        worst_ge.add(base, trace_distance(o1, o2), "monotonicity")
        u = fuzz.haar_random_unitary(d, rng)
        worst_eq.add(
            trace_norm(_dot(_dot(u, r1.matrix - r2.matrix), u, trans_b=2)),
            base,
            "unitary invariance",
        )
        sigma = fuzz.random_density_operator([("S", 2, BOB)], rng)
        worst_eq.add(
            trace_distance(tensor(r1, sigma), tensor(r2, sigma)),
            base,
            "uncorrelated factor",
        )
        k = int(rng.integers(2, 4))
        p = rng.random(k)
        p /= p.sum()
        pairs = [
            (
                fuzz.random_density_operator([("A", d, ALICE)], rng),
                fuzz.random_density_operator([("A", d, ALICE)], rng),
            )
            for _ in range(k)
        ]
        m1 = np.zeros((k * d, k * d), dtype=complex)
        m2 = np.zeros((k * d, k * d), dtype=complex)
        for x, (a, b) in enumerate(pairs):
            m1[x * d : (x + 1) * d, x * d : (x + 1) * d] = p[x] * a.matrix
            m2[x * d : (x + 1) * d, x * d : (x + 1) * d] = p[x] * b.matrix
        worst_eq.add(
            trace_norm(m1 - m2),
            sum(p[x] * trace_distance(a, b) for x, (a, b) in enumerate(pairs)),
            "joint linearity",
        )
    if worst_ge._score > 0:  # any monotonicity violation dominates
        kind, lhs, rhs, detail = worst_ge.result()
        if not _passes(kind, lhs, rhs, 1e-8):
            return kind, lhs, rhs, detail
    return worst_eq.result()


# ---------------------------------------------------------------------------
# Protocol cost properties
# ---------------------------------------------------------------------------


def _random_protocol_and_input(rng):
    m = 2 if rng.random() < 0.5 else 4
    pres = (2, 2) if rng.random() < 0.5 else (1, 1)
    p = fuzz.random_protocol(rng, m, preshared_dims=pres)
    rho = fuzz.random_input_density(p, rng)
    return p, rho


@_register("qic-sandwich", "0 <= QIC(protocol, input) <= QCC(protocol)", 1e-8)
def _check_qic_sandwich(rng, tol):
    worst = _Worst("ge")
    for _ in range(100):
        p, rho = _random_protocol_and_input(rng)
        q = qic(p, rho)
        c = qcc(p)
        worst.add(q, 0.0, "QIC >= 0")
        worst.add(c, q, "QIC <= QCC")
    return worst.result()


@_register("pure-input-zero", "QIC vanishes on pure inputs", 1e-9)
def _check_pure_input(rng, tol):
    worst = _Worst("le")
    for _ in range(50):
        m = 2 if rng.random() < 0.5 else 4
        p = fuzz.random_protocol(rng, m)
        vec = fuzz.random_state_vector(
            [(r.name, r.dim, ALICE) for r in p.alice_in]
            + [(r.name, r.dim, BOB) for r in p.bob_in],
            rng,
        )
        worst.add(qic(p, vec), 0.0)
    return worst.result()


@_register("qic-padding", "appending dimension-1 message rounds leaves QIC and QCC unchanged", 1e-9)
def _check_padding(rng, tol):
    worst = _Worst("eq")
    for _ in range(10):
        p, rho = _random_protocol_and_input(rng)
        padded = pad_rounds(p)
        worst.add(qic(padded, rho), qic(p, rho), "QIC")
        worst.add(qcc(padded), qcc(p), "QCC")
    return worst.result()


@_register("run-norm-audit", "every intermediate global state stays normalized", 1e-12)
def _check_norms(rng, tol):
    worst = _Worst("eq")
    for _ in range(20):
        p, rho = _random_protocol_and_input(rng)
        traj = run(p, rho)
        for st in traj.steps + (traj.final_state,):
            worst.add(st.norm, 1.0)
    return worst.result()


@_register(
    "purity-symmetry",
    "global purity: complementary reductions share their entropy at every step",
    1e-9,
)
def _check_purity(rng, tol):
    worst = _Worst("eq")
    for _ in range(20):
        p, rho = _random_protocol_and_input(rng)
        traj = run(p, rho)
        for st in traj.steps:
            names = list(st.system.names)
            k = int(rng.integers(1, len(names)))
            pick = [names[i] for i in rng.choice(len(names), size=k, replace=False)]
            comp = [n for n in names if n not in set(pick)]
            worst.add(entropy(st, pick), entropy(st, comp))
    return worst.result()


@_register(
    "error-unitary-invariance",
    "protocol error is unchanged by a unitary applied jointly to both outputs",
    1e-9,
)
def _check_error_invariance(rng, tol):
    worst = _Worst("eq")
    fp = and_pair()
    ch = function_channel(fp)
    mu = fuzz.random_distribution((2, 2), rng)
    rho = classical_state(mu, [("A_in", 2, ALICE), ("B_in", 2, BOB)])
    task = QuantumTask(ch, rho, 2.0)
    for _ in range(5):
        angle = float(rng.random())
        p = noisy_protocol_for(fp, angle)
        base = protocol_error(p, task)
        ua = fuzz.haar_random_unitary(2, rng)
        ub = fuzz.haar_random_unitary(2, rng)
        rot_p = _rotate_protocol_outputs(p, ua, ub)
        rot_ch = _rotate_channel_outputs(ch, ua, ub)
        rotated = protocol_error(rot_p, QuantumTask(rot_ch, rho, 2.0))
        worst.add(rotated, base)
    return worst.result()


def _rotate_protocol_outputs(p: ProtocolSpec, ua: np.ndarray, ub: np.ndarray) -> ProtocolSpec:
    (a_reg,) = _output_regs(p, p.alice_out[:1])
    (b_reg,) = _output_regs(p, p.bob_out[:1])
    m = p.num_messages
    u_last_b, u_last_a = p.unitaries[m - 1], p.unitaries[m]
    new_b = UnitaryOp(
        u_last_b.in_regs,
        u_last_b.out_regs,
        u_last_b.stages + (Stage(ub, (b_reg.name,), (b_reg,)),),
    )
    new_a = UnitaryOp(
        u_last_a.in_regs,
        u_last_a.out_regs,
        u_last_a.stages + (Stage(ua, (a_reg.name,), (a_reg,)),),
    )
    return replace(p, unitaries=p.unitaries[: m - 1] + (new_b, new_a))


def _rotate_channel_outputs(ch: ChannelOp, ua: np.ndarray, ub: np.ndarray) -> ChannelOp:
    a_reg, b_reg = ch.out_regs
    dil = ch.dilation
    new_dil = UnitaryOp(
        dil.in_regs,
        dil.out_regs,
        dil.stages
        + (
            Stage(ua, (a_reg.name,), (a_reg,)),
            Stage(ub, (b_reg.name,), (b_reg,)),
        ),
    )
    return ChannelOp(ch.in_regs, ch.out_regs, ch.ancilla_state, new_dil, ch.traced)


# ---------------------------------------------------------------------------
# Construction identities
# ---------------------------------------------------------------------------


@_register(
    "parallel-additivity",
    "composing two protocols adds their information costs on product inputs",
    1e-7,
)
def _check_parallel_additivity(rng, tol):
    worst = _Worst("eq")
    for _ in range(25):
        m1 = 2 if rng.random() < 0.5 else 4
        m2 = 2 if rng.random() < 0.5 else 4
        p1 = fuzz.random_protocol(rng, m1)
        p2 = fuzz.random_protocol(rng, m2)
        comp = parallel_compose(p1, p2)
        r1 = fuzz.random_input_density(p1, rng)
        r2 = fuzz.random_input_density(p2, rng)
        joint = tensor(
            r1.renamed({r.name: r.name + "#1" for r in p1.alice_in + p1.bob_in}),
            r2.renamed({r.name: r.name + "#2" for r in p2.alice_in + p2.bob_in}),
        )
        worst.add(qic(comp, joint), qic(p1, r1) + qic(p2, r2))
    return worst.result()


@_register(
    "input-fixing-split",
    "freezing each slot of a two-slot protocol splits the joint information cost",
    1e-7,
)
def _check_fixing_split(rng, tol):
    worst = _Worst("eq")
    for _ in range(25):
        p1 = fuzz.random_protocol(rng, 2)
        p2 = fuzz.random_protocol(rng, 2 if rng.random() < 0.5 else 4)
        comp = parallel_compose(p1, p2)
        r1 = fuzz.random_input_density(p1, rng).renamed(
            {r.name: r.name + "#1" for r in p1.alice_in + p1.bob_in}
        )
        r2 = fuzz.random_input_density(p2, rng).renamed(
            {r.name: r.name + "#2" for r in p2.alice_in + p2.bob_in}
        )
        first = fix_input(comp, "second", r2)
        second = fix_input(comp, "first", r1)
        lhs = qic(first, r1) + qic(second, r2)
        rhs = qic(comp, tensor(r1, r2))
        worst.add(lhs, rhs)
    return worst.result()


def _mix_pair(rng):
    m1 = 2 if rng.random() < 0.5 else 4
    m2 = 2 if rng.random() < 0.5 else 4
    p1 = fuzz.random_protocol(rng, m1)
    p2 = fuzz.random_protocol(rng, m2)
    return p1, p2


@_register(
    "mixture-channel",
    "the coherent mixture implements the probabilistic mixture of the two channels",
    1e-9,
)
def _check_mixture_channel(rng, tol):
    worst = _Worst("le")
    for prob in (0.0, 1.0, 0.3, 0.62, 0.5):
        p1, p2 = _mix_pair(rng)
        mix = convex_mix(p1, p2, prob)
        probe = fuzz.random_input_density(p1, rng)
        pp = purify_input(probe, "Rprobe")
        o_mix = run(mix, pp).output.matrix
        o1 = run(p1, pp).output.matrix
        o2 = run(p2, pp).output.matrix
        blend = prob * o1 + (1.0 - prob) * o2
        worst.add(trace_norm(o_mix - blend), 0.0, f"prob={prob}")
    return worst.result()


@_register(
    "mixture-affinity",
    "information cost of the coherent mixture is the probability-weighted average",
    1e-7,
)
def _check_mixture_affinity(rng, tol):
    worst = _Worst("eq")
    for _ in range(25):
        p1, p2 = _mix_pair(rng)
        prob = float(rng.random())
        mix = convex_mix(p1, p2, prob)
        rho = fuzz.random_input_density(p1, rng, classical=rng.random() < 0.5)
        lhs = qic(mix, rho)
        rhs = prob * qic(p1, rho) + (1.0 - prob) * qic(p2, rho)
        worst.add(lhs, rhs, f"prob={prob:.3f}")
    return worst.result()


@_register(
    "mixture-degenerate",
    "at probability 0 or 1 the mixture reproduces a branch exactly",
    1e-9,
)
def _check_mixture_degenerate(rng, tol):
    worst = _Worst("eq")
    for prob in (0.0, 1.0):
        p1, p2 = _mix_pair(rng)
        mix = convex_mix(p1, p2, prob)
        rho = fuzz.random_input_density(p1, rng)
        branch = p1 if prob == 1.0 else p2
        worst.add(qic(mix, rho), qic(branch, rho), f"prob={prob}")
    return worst.result()


def _measure_prepare_kraus(fp) -> list[np.ndarray]:
    """Kraus operators of the measure-and-prepare channel of a function pair."""
    ks = []
    for x in range(fp.x_size):
        for y in range(fp.y_size):
            k = np.zeros((fp.a_size * fp.b_size, fp.x_size * fp.y_size))
            k[int(fp.f_a[x, y]) * fp.b_size + int(fp.f_b[x, y]), x * fp.y_size + y] = 1.0
            ks.append(k)
    return ks


@_register(
    "mixture-error-convexity",
    "the mixture's error against a mixed target is at most the mixed errors",
    1e-8,
)
def _check_mixture_error(rng, tol):
    from .classical import ClassicalFunctionPair

    worst = _Worst("le")
    fp1 = and_pair()
    fp2 = ClassicalFunctionPair(1 - fp1.f_a, 1 - fp1.f_b, 2, 2)  # the negation
    ch1 = function_channel(fp1)
    ch2 = function_channel(fp2)
    mu = fuzz.random_distribution((2, 2), rng)
    rho = classical_state(mu, [("A_in", 2, ALICE), ("B_in", 2, BOB)])
    k1 = _measure_prepare_kraus(fp1)
    k2 = _measure_prepare_kraus(fp2)
    for _ in range(5):
        prob = float(rng.random())
        p1 = noisy_protocol_for(fp1, float(rng.random()))
        p2 = noisy_protocol_for(fp2, float(rng.random()))
        e1 = protocol_error(p1, QuantumTask(ch1, rho, 2.0))
        e2 = protocol_error(p2, QuantumTask(ch2, rho, 2.0))
        mixed_kraus = [math.sqrt(prob) * k for k in k1] + [
            math.sqrt(1 - prob) * k for k in k2
        ]
        target = channel_from_kraus(
            mixed_kraus, [("A_in", 2), ("B_in", 2)], [("A_out", 2), ("B_out", 2)]
        )
        mix = convex_mix(p1, p2, prob)
        e_mix = protocol_error(mix, QuantumTask(target, rho, 2.0))
        worst.add(e_mix, prob * e1 + (1 - prob) * e2, f"prob={prob:.3f}")
    return worst.result()


@_register(
    "input-concavity",
    "information cost is concave in the input state",
    1e-8,
)
def _check_concavity(rng, tol):
    worst = _Worst("ge")
    for k in range(50):
        m = 2 if rng.random() < 0.5 else 4
        p = fuzz.random_protocol(rng, m)
        specs = [(r.name, r.dim, ALICE) for r in p.alice_in] + [
            (r.name, r.dim, BOB) for r in p.bob_in
        ]
        if k % 3 == 0:
            # orthogonal classical pair
            d = int(np.prod([s[1] for s in specs]))
            t1 = np.zeros(d)
            t1[0] = 1.0
            t2 = np.zeros(d)
            t2[-1] = 1.0
            rho1 = classical_state(t1, specs)
            rho2 = classical_state(t2, specs)
            prob = 0.5
        else:
            rho1 = fuzz.random_density_operator(specs, rng)
            rho2 = fuzz.random_density_operator(specs, rng)
            prob = float(rng.random())
        rep = concavity_check(p, rho1, rho2, prob)
        worst.add(rep.slack, 0.0, f"prob={prob:.3f}")
    return worst.result()


# ---------------------------------------------------------------------------
# Slot averaging (instance-to-many-slot reduction)
# ---------------------------------------------------------------------------


def _averaging_instance(rng):
    pd = fuzz.random_protocol(
        rng,
        2,
        alice_in_dims=(2, 2),
        bob_in_dims=(2, 2),
        preshared_dims=(1, 1),
    )
    mu = np.array([[1.0, 1.0], [1.0, 0.0]]) / 3.0
    return pd, mu


@_register(
    "and-average-halving",
    "averaging over 2 slots halves the 2-slot information cost on product inputs",
    1e-5,
    heavy=True,
)
def _check_average_halving(rng, tol):
    pd, mu = _averaging_instance(rng)
    pa = and_average_protocol(pd, mu, 2)
    sigma = classical_state(
        mu, [(pa.alice_in[0].name, 2, ALICE), (pa.bob_in[0].name, 2, BOB)]
    )
    lhs = qic(pa, sigma)
    c1 = canonical_classical_purification(mu, "Xa1", "Yb1", "Rc1")
    c2 = canonical_classical_purification(mu, "Xa2", "Yb2", "Rc2")
    rhs = 0.5 * qic(pd, tensor(c1, c2))
    return "eq", lhs, rhs, "uniform selector, support-sized purifiers"


@_register(
    "and-average-channel",
    "the averaged protocol's channel is the uniform average of the slot embeddings",
    1e-8,
    heavy=True,
)
def _check_average_channel(rng, tol):
    pd, mu = _averaging_instance(rng)
    pa = and_average_protocol(pd, mu, 2)
    embeds = [and_embed_protocol(pd, mu, i) for i in (1, 2)]
    worst = _Worst("le")
    for k in range(5):
        w = fuzz.random_distribution((2, 2), rng)
        probe = classical_state(
            w, [(pa.alice_in[0].name, 2, ALICE), (pa.bob_in[0].name, 2, BOB)]
        )
        pp = canonical_purification(probe, "Rprobe")
        o_avg = run(pa, pp).output.matrix
        mats = []
        for e in embeds:
            probe_e = pp.renamed(
                {
                    pa.alice_in[0].name: e.alice_in[0].name,
                    pa.bob_in[0].name: e.bob_in[0].name,
                }
            )
            mats.append(run(e, probe_e).output.matrix)
        blend = 0.5 * (mats[0] + mats[1])
        worst.add(trace_norm(o_avg - blend), 0.0, f"probe {k}")
    return worst.result()


@_register(
    "and-average-pure",
    "a point-mass distribution gives a pure input and zero cost on both sides",
    1e-8,
)
def _check_average_pure(rng, tol):
    pd, _ = _averaging_instance(rng)
    mu = np.array([[1.0, 0.0], [0.0, 0.0]])
    pa = and_average_protocol(pd, mu, 2)
    sigma = classical_state(
        mu, [(pa.alice_in[0].name, 2, ALICE), (pa.bob_in[0].name, 2, BOB)]
    )
    lhs = qic(pa, sigma)
    c1 = canonical_classical_purification(mu, "Xa1", "Yb1", "Rc1")
    c2 = canonical_classical_purification(mu, "Xa2", "Yb2", "Rc2")
    rhs = 0.5 * qic(pd, tensor(c1, c2))
    worst = _Worst("eq")
    worst.add(lhs, 0.0, "averaged cost vanishes")
    worst.add(rhs, 0.0, "2-slot cost vanishes")
    return worst.result()


# ---------------------------------------------------------------------------
# Classical content
# ---------------------------------------------------------------------------


@_register(
    "failure-bound",
    "average failure probability is at most half the protocol error",
    1e-9,
)
def _check_failure_bound(rng, tol):
    worst = _Worst("le")
    cases = []
    for k in range(9):
        cases.append((and_pair(), 0.0 if k == 0 else float(rng.random())))
    for k in range(9):
        cases.append((disjointness_pair(2), 0.0 if k == 0 else float(rng.random())))
    cases.append((and_pair(), math.pi / 2))
    cases.append((disjointness_pair(2), math.pi / 2))
    for fp, angle in cases:
        p = exact_protocol_for(fp) if angle == 0.0 else noisy_protocol_for(fp, angle)
        mu = fuzz.random_distribution((fp.x_size, fp.y_size), rng)
        specs = [("A_in", fp.x_size, ALICE), ("B_in", fp.y_size, BOB)]
        task = QuantumTask(
            function_channel(fp), classical_state(mu, specs), 2.0
        )
        fail = failure_probability(p, fp, mu)
        err = protocol_error(p, task)
        worst.add(fail, err / 2.0, f"angle={angle:.3f}")
    return worst.result()


@_register(
    "ic-rewrite",
    "transcript information cost equals its message-local rewriting",
    1e-10,
)
def _check_ic_rewrite(rng, tol):
    worst = _Worst("eq")
    for _ in range(200):
        cp = fuzz.random_classical_protocol(rng, int(rng.integers(1, 5)))
        mu = fuzz.random_distribution((cp.x_size, cp.y_size), rng)
        worst.add(classical_ic(cp, mu), classical_ic_prime(cp, mu))
    return worst.result()


@_register(
    "measured-state-form",
    "a function channel on a canonically purified input yields the averaged "
    "basis output correlated with the reference",
    1e-12,
)
def _check_measured_state(rng, tol):
    worst = _Worst("eq")
    for _ in range(10):
        fp = and_pair()
        mu = fuzz.random_distribution((2, 2), rng)
        pure = canonical_classical_purification(mu)
        ch = function_channel(fp)
        out = ch.apply(pure)
        out = measurement_channel(out, "R")
        support = np.nonzero(mu.reshape(-1) > 1e-9)[0]
        s = support.size
        want = np.zeros((4 * s, 4 * s), dtype=complex)
        for k, z in enumerate(support):
            x, y = divmod(int(z), 2)
            za, zb = int(fp.f_a[x, y]), int(fp.f_b[x, y])
            idx = (za * 2 + zb) * s + k
            want[idx, idx] = mu[x, y]
        got = permute(out, ["A_out", "B_out", "R"]).matrix
        worst.add(float(np.max(np.abs(got - want))), 0.0)
    return worst.result()


# ---------------------------------------------------------------------------
# Redistribution rates and budgets
# ---------------------------------------------------------------------------


def _direct_cost_terms(p: ProtocolSpec, rho) -> list[float]:
    """Per-message cost terms from ``cond_mutual_info`` on each step.

    The budget and the step rates read the per-trajectory entropy ledger
    that ``qic_terms`` also reads, so their checks take the other side
    from here instead.
    """
    terms = []
    for i, st in enumerate(run(p, rho).steps, start=1):
        receiver = BOB if i % 2 == 1 else ALICE
        holding = st.system.held_by(receiver)
        terms.append(
            0.5
            * cond_mutual_info(
                st, p.messages[i - 1], st.system.reference_names, holding
            )
        )
    return terms


@_register(
    "budget-total",
    "the per-message budget totals the information cost plus the overhead",
    1e-8,
)
def _check_budget_total(rng, tol):
    worst = _Worst("eq")
    for _ in range(15):
        p, rho = _random_protocol_and_input(rng)
        delta = float(rng.uniform(0.001, 0.1))
        rep = compression_budget(p, rho, delta)
        worst.add(rep.total_rate, sum(_direct_cost_terms(p, rho)) + delta)
    return worst.result()


@_register(
    "entanglement-rate-bounds",
    "per-message net entanglement rate is within +/- log2 of the message dimension",
    1e-9,
)
def _check_e_bounds(rng, tol):
    worst = _Worst("ge")
    for _ in range(15):
        p, rho = _random_protocol_and_input(rng)
        reports = protocol_step_rates(p, rho)
        for rep, d in zip(reports, message_dims(p)):
            bound = math.log2(d) if d > 1 else 0.0
            worst.add(bound, abs(rep.e_net), f"dim={d}")
    return worst.result()


@_register(
    "redistribution-steps",
    "single-shot rates on each step partition reproduce the per-message cost terms",
    1e-9,
)
def _check_redist_steps(rng, tol):
    worst = _Worst("eq")
    for _ in range(15):
        p, rho = _random_protocol_and_input(rng)
        terms = _direct_cost_terms(p, rho)
        reports = protocol_step_rates(p, rho)
        for t, rep in zip(terms, reports):
            worst.add(rep.q_min, t)
    return worst.result()


@_register(
    "nfold-percopy",
    "per-copy errors: parallel exact copies pass, a corrupted copy fails alone",
    1e-8,
)
def _check_nfold(rng, tol):
    fp = and_pair()
    exact = exact_protocol_for(fp)
    mu = fuzz.random_distribution((2, 2), rng)
    rho = classical_state(mu, [("A_in", 2, ALICE), ("B_in", 2, BOB)])
    task = QuantumTask(function_channel(fp), rho, 0.1)
    both = parallel_compose(exact, exact)
    entries = nfold_error_check(both, task, 2)
    worst = _Worst("le")
    for i, e in enumerate(entries):
        worst.add(e, 0.0, f"exact copy {i + 1}")
    corrupted = parallel_compose(noisy_protocol_for(fp, math.pi / 2), exact)
    bad = nfold_error_check(corrupted, task, 2)
    worst.add(bad[1], 0.0, "clean copy next to a corrupted one")
    if bad[0] <= task.epsilon:
        return "le", 2.0, 0.0, "corrupted copy failed to exceed the error budget"
    return worst.result()


@_register(
    "known-values",
    "maximally entangled pair carries 2 bits; three-party chain 1 bit; "
    "basis-vs-diagonal distance sqrt(2); shipping a correlated bit costs 1",
    1e-9,
)
def _check_known_values(rng, tol):
    worst = _Worst("eq")
    bell = StateVector(
        RegisterSystem.make([("A", 2, ALICE), ("B", 2, BOB)]),
        np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    )
    worst.add(mutual_info(bell, ["A"], ["B"]), 2.0, "entangled pair")
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / math.sqrt(2)
    ghz = StateVector(
        RegisterSystem.make([("A", 2, ALICE), ("B", 2, BOB), ("C", 2, REFERENCE)]),
        amps,
    )
    worst.add(cond_mutual_info(ghz, ["A"], ["B"], ["C"]), 1.0, "three-party chain")
    zero = StateVector(
        RegisterSystem.make([("Q", 2, ALICE)]), np.array([1, 0], dtype=complex)
    )
    plus = StateVector(
        RegisterSystem.make([("Q", 2, ALICE)]),
        np.array([1, 1], dtype=complex) / math.sqrt(2),
    )
    worst.add(trace_distance(zero, plus), math.sqrt(2), "basis vs diagonal")
    p = _correlated_bit_protocol()
    rho = classical_state(
        np.array([[0.5], [0.5]]), [("A_in", 2, ALICE), ("B_in", 1, BOB)]
    )
    worst.add(qic(p, rho), 1.0, "send a correlated bit")
    return worst.result()


def _correlated_bit_protocol() -> ProtocolSpec:
    empty = StateVector(RegisterSystem((), ()), np.array([1.0], dtype=complex))
    u1 = UnitaryOp.rename((Register("A_in", 2),), (Register("C_1", 2),))
    u2 = UnitaryOp(
        (Register("B_in", 1), Register("C_1", 2)),
        (Register("B_in", 1), Register("B_out", 2), Register("C_2", 1)),
        UnitaryOp.rename((Register("C_1", 2),), (Register("B_out", 2),)).stages
        + UnitaryOp.rename((), (Register("C_2", 1),)).stages,
    )
    u3 = UnitaryOp.rename((Register("C_2", 1),), (Register("A_fin", 1),))
    return ProtocolSpec(
        num_messages=2,
        preshared=empty,
        unitaries=(u1, u2, u3),
        alice_in=(Register("A_in", 2),),
        bob_in=(Register("B_in", 1),),
        messages=(("C_1",), ("C_2",)),
        alice_out=("A_fin",),
        bob_out=("B_out",),
        alice_scratch=(),
        bob_scratch=("B_in",),
    )


@_register(
    "budget-correlated-bit",
    "the correlated-bit protocol budgets 1 + delta total",
    1e-8,
)
def _check_budget_bit(rng, tol):
    p = _correlated_bit_protocol()
    rho = classical_state(
        np.array([[0.5], [0.5]]), [("A_in", 2, ALICE), ("B_in", 1, BOB)]
    )
    rep = compression_budget(p, rho, 0.01)
    return "eq", rep.total_rate, 1.01, ""


def run_suite(
    selection: Sequence[str] | None = None,
    seed: int = 2024,
    tolerances: Mapping[str, float] | None = None,
) -> list[SuiteResult]:
    """Run the selected checks (all by default), ordered by check id."""
    tolerances = dict(tolerances or {})
    ids = sorted(CHECKS) if selection is None else list(selection)
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check ids: {unknown}")
    results = []
    for check_id in sorted(ids):
        check = CHECKS[check_id]
        tol = tolerances.get(check_id, check.tolerance)
        child_seed = (zlib.crc32(check_id.encode()) ^ seed) & 0x7FFFFFFF
        rng = np.random.default_rng(child_seed)
        t0 = time.perf_counter()
        try:
            kind, lhs, rhs, detail = check.fn(rng, tol)
            status = "pass" if _passes(kind, lhs, rhs, tol) else "fail"
        except Exception as e:  # a crash is a failure with the message attached
            kind, lhs, rhs = "eq", math.nan, math.nan
            detail = f"{type(e).__name__}: {e}"
            status = "fail"
        ms = (time.perf_counter() - t0) * 1000.0
        results.append(
            SuiteResult(
                check_id=check_id,
                status=status,
                kind=kind,
                lhs=lhs,
                rhs=rhs,
                tolerance=tol,
                runtime_ms=ms,
                seed=child_seed,
                anchor=check.anchor,
                detail=detail,
            )
        )
    return results


#: Acceptance criteria to check-id mapping (used by the acceptance tests).
ACCEPTANCE_MAP: dict[str, list[str]] = {
    "entropy-identity-suite": [
        "entropy-bounds",
        "chain-rule",
        "strong-subadditivity",
        "data-processing",
        "product-additivity",
        "classical-conditioning",
        "pure-state-symmetry",
        "trace-distance-properties",
    ],
    "cost-sandwich": ["qic-sandwich"],
    "pure-input-nullity": ["pure-input-zero"],
    "additivity": ["parallel-additivity", "input-fixing-split"],
    "convex-mixture": ["mixture-channel", "mixture-affinity", "mixture-degenerate"],
    "input-concavity": ["input-concavity"],
    "slot-averaging": ["and-average-halving", "and-average-channel", "and-average-pure"],
    "failure-bound": ["failure-bound"],
    "ic-rewrite": ["ic-rewrite"],
    "budget": ["budget-total", "entanglement-rate-bounds", "redistribution-steps"],
    "known-values": ["known-values"],
}
