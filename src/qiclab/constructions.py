"""Derived protocols built from existing ones.

* parallel composition: run two protocols side by side, information costs
  add on product inputs;
* input fixing: freeze one slot of a two-slot protocol with a purified
  state handed out as extra pre-shared entanglement, the per-slot costs
  split the joint cost exactly;
* coherent convex mixture: a selector register routes the input into one
  of two protocols and padding into the other, the mixture's information
  cost is the probability-weighted average;
* slot averaging: route a single instance coherently into one of the n
  slots of a many-slot protocol (the remaining slots fed from pre-shared
  purified copies), dividing the n-slot information cost by n.

Routing unitaries are selector-controlled permutations of basis-aligned
register blocks, built as index maps by :meth:`UnitaryOp.permutation`, so
they are exact and unitary by construction and move amplitudes without a
matrix product. The mixture runs its branches as one
:func:`parallel_compose`; it and slot averaging chain their routers onto
the first and last unitaries and replay the result as one schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    ALICE,
    BOB,
    DEFAULT_MAX_DIM,
    DensityOperator,
    Register,
    RegisterSystem,
    StateVector,
    UnitaryOp,
    _fresh_name,
    _prod,
    _zero_state,
    canonical_classical_purification,
    chain_unitaries,
    tensor,
)
from .protocol import (
    ProtocolSpec,
    Slot,
    _ProtocolBuilder,
    _output_regs,
    _require_valid,
    purify_input,
    qic,
    suffix_protocol,
)


def controlled_permutation(
    control: Register,
    sources: Sequence[Register],
    targets: Sequence[Register],
    assign: Sequence[Sequence[int]],
) -> UnitaryOp:
    """Permutation of register contents controlled on a selector register.

    ``assign[v][t]`` names the source whose content lands in target ``t``
    when the control is in basis state ``v``; each row must be a bijection
    with matching dimensions. Consumes ``(control, *sources)``, produces
    ``(control, *targets)``.
    """
    n = control.dim
    if len(assign) != n:
        raise ValueError(f"need one assignment per control value ({n}), got {len(assign)}")
    sdims = [r.dim for r in sources]
    tdims = [r.dim for r in targets]
    d = _prod(sdims)
    for v, row in enumerate(assign):
        if sorted(row) != list(range(len(sources))):
            raise ValueError(f"assignment for control={v} is not a bijection")
        for t, s in enumerate(row):
            if tdims[t] != sdims[s]:
                raise ValueError(
                    f"control={v}: target {targets[t].name!r} (dim {tdims[t]}) cannot "
                    f"take source {sources[s].name!r} (dim {sdims[s]})"
                )
    # digit t of the destination of source state s under control v is
    # digit assign[v][t] of s
    digits = np.indices(sdims).reshape(len(sdims), d)
    picked = digits[np.array(assign, dtype=int).reshape(n, len(sources))]
    dst = np.ravel_multi_index(tuple(picked.swapaxes(0, 1)), tdims)
    return UnitaryOp.permutation(
        (dst + d * np.arange(n)[:, None]).ravel(),
        (control,) + tuple(sources),
        (control,) + tuple(targets),
    )


def _selector_state(weights: Sequence[float], s_a: Register, s_b: Register) -> StateVector:
    """The selector pair sum_i sqrt(w_i) |i>|i>, Alice holding ``s_a``."""
    n = len(weights)
    amps = np.zeros(n * n, dtype=complex)
    for i, w in enumerate(weights):
        amps[i * n + i] = math.sqrt(w)
    return StateVector(
        RegisterSystem((s_a, s_b), (ALICE, BOB)), amps
    )


def parallel_compose(p1: ProtocolSpec, p2: ProtocolSpec) -> ProtocolSpec:
    """Run two protocols in parallel; the result implements their tensor.

    The shorter protocol finishes first and its registers then ride along
    untouched. Message blocks are the concatenation of the two protocols'
    blocks while both are running.
    """
    _require_valid(p1)
    _require_valid(p2)
    q1 = suffix_protocol(p1, "#1")
    q2 = suffix_protocol(p2, "#2")
    swapped = p2.num_messages > p1.num_messages
    longer, shorter = (q2, q1) if swapped else (q1, q2)
    m_long, m_short = longer.num_messages, shorter.num_messages
    preshared = tensor(q1.preshared, q2.preshared)
    builder = _ProtocolBuilder(
        preshared, q1.alice_in + q2.alice_in, q1.bob_in + q2.bob_in
    )
    for i in range(1, m_long + 2):
        if i <= m_short + 1:
            core = chain_unitaries(longer.unitaries[i - 1], shorter.unitaries[i - 1])
        else:
            core = longer.unitaries[i - 1]
        if i <= m_long:
            block = longer.messages[i - 1] + (
                shorter.messages[i - 1] if i <= m_short else ()
            )
            builder.step(core, block)
        else:
            builder.step(core, None)
    return builder.build(
        q1.alice_out + q2.alice_out,
        q1.bob_out + q2.bob_out,
        slots=q1.input_slots + q2.input_slots,
    )


def fix_input(p2: ProtocolSpec, side: str, fixed: DensityOperator) -> ProtocolSpec:
    """Freeze one input slot of a two-slot protocol with a fixed state.

    The frozen state joins the pre-shared entanglement as a purification;
    the purifier goes to Alice when the second slot is frozen and to Bob
    when the first is, so it counts as holding in the information cost.
    """
    _require_valid(p2)
    if side not in ("first", "second"):
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    slots = p2.input_slots
    if len(slots) != 2:
        raise ValueError(f"fix_input needs a protocol with two input slots, got {len(slots)}")
    frozen = slots[1] if side == "second" else slots[0]
    kept = slots[0] if side == "second" else slots[1]
    frozen_names = set(frozen.alice_in) | set(frozen.bob_in)
    reg_by_name = {r.name: r for r in p2.alice_in + p2.bob_in}
    want = {n: reg_by_name[n].dim for n in frozen_names}
    have = {r.name: r.dim for r in fixed.system.registers}
    if have != want:
        raise ValueError(
            f"fixed state registers {sorted(have)} do not match the frozen slot {sorted(want)}"
        )
    ref = _fresh_name("Rfix", p2.all_names)
    pure = purify_input(fixed, ref)
    holders = {n: ALICE for n in frozen.alice_in}
    holders.update({n: BOB for n in frozen.bob_in})
    holders[ref] = ALICE if side == "second" else BOB
    preshared = tensor(p2.preshared, pure.with_holders(holders))
    alice_in = tuple(r for r in p2.alice_in if r.name in set(kept.alice_in))
    bob_in = tuple(r for r in p2.bob_in if r.name in set(kept.bob_in))
    builder = _ProtocolBuilder(preshared, alice_in, bob_in)
    builder.replay(p2.unitaries, p2.messages)
    return builder.build(kept.alice_out, kept.bob_out, slots=(kept,))


def convex_mix(p1: ProtocolSpec, p2: ProtocolSpec, prob: float) -> ProtocolSpec:
    """Coherent mixture implementing prob * p1 + (1 - prob) * p2.

    A two-branch selector pair routes the input into the selected
    protocol and all-zeros padding into the other, both run in parallel,
    and the selector finally routes the selected outputs to the declared
    output registers. Tracing the selectors leaves the convex mixture.
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"prob must lie in [0, 1], got {prob}")
    _require_valid(p1)
    _require_valid(p2)
    if p2.num_messages > p1.num_messages:
        p1, p2 = p2, p1
        prob = 1.0 - prob
    in_dims = tuple(r.dim for r in p1.alice_in), tuple(r.dim for r in p1.bob_in)
    if in_dims != (
        tuple(r.dim for r in p2.alice_in),
        tuple(r.dim for r in p2.bob_in),
    ):
        raise ValueError("the two protocols must share input register shapes")
    a1_out = _output_regs(p1, p1.alice_out)
    b1_out = _output_regs(p1, p1.bob_out)
    a2_out = _output_regs(p2, p2.alice_out)
    b2_out = _output_regs(p2, p2.bob_out)
    if tuple(r.dim for r in a1_out) != tuple(r.dim for r in a2_out) or tuple(
        r.dim for r in b1_out
    ) != tuple(r.dim for r in b2_out):
        raise ValueError("the two protocols must share output register shapes")

    comp = parallel_compose(p1, p2)
    mix_alice_in, mix_bob_in, mix_alice_out, mix_bob_out = p1.alice_in, p1.bob_in, a1_out, b1_out
    taken = comp.all_names | {
        r.name for r in mix_alice_in + mix_bob_in + mix_alice_out + mix_bob_out
    }
    s_a = Register(_fresh_name("SA", taken), 2)
    s_b = Register(_fresh_name("SB", taken), 2)
    pad_a = [Register(_fresh_name(f"{r.name}~pad", taken), r.dim) for r in mix_alice_in]
    pad_b = [Register(_fresh_name(f"{r.name}~pad", taken), r.dim) for r in mix_bob_in]
    junk_a = [Register(_fresh_name(f"{r.name}~junk", taken), r.dim) for r in mix_alice_out]
    junk_b = [Register(_fresh_name(f"{r.name}~junk", taken), r.dim) for r in mix_bob_out]
    preshared = tensor(comp.preshared, _selector_state([prob, 1.0 - prob], s_a, s_b))
    preshared = tensor(preshared, _zero_state(pad_a, ALICE))
    preshared = tensor(preshared, _zero_state(pad_b, BOB))

    def route(control: Register, sources, targets) -> UnitaryOp:
        # selector 0 keeps the two halves in place, selector 1 swaps them
        k = len(sources) // 2
        keep = list(range(2 * k))
        return controlled_permutation(
            control, sources, targets, [keep, keep[k:] + keep[:k]]
        )

    # the composition lists the first branch's inputs and outputs, then the second's
    route_in_a = route(s_a, mix_alice_in + tuple(pad_a), comp.alice_in)
    route_in_b = route(s_b, mix_bob_in + tuple(pad_b), comp.bob_in)
    route_out_a = route(s_a, _output_regs(comp, comp.alice_out), mix_alice_out + tuple(junk_a))
    route_out_b = route(s_b, _output_regs(comp, comp.bob_out), mix_bob_out + tuple(junk_b))

    # each party routes the inputs on its first step and the outputs on
    # its last: Bob's are U_M's, Alice's U_{M+1}'s
    m = comp.num_messages
    us = list(comp.unitaries)
    us[0] = chain_unitaries(route_in_a, us[0])
    us[1] = chain_unitaries(route_in_b, us[1])
    us[m - 1] = chain_unitaries(us[m - 1], route_out_b)
    us[m] = chain_unitaries(us[m], route_out_a)
    builder = _ProtocolBuilder(preshared, mix_alice_in, mix_bob_in)
    builder.replay(us, comp.messages)
    slot = Slot(
        tuple(r.name for r in mix_alice_in),
        tuple(r.name for r in mix_bob_in),
        tuple(r.name for r in mix_alice_out),
        tuple(r.name for r in mix_bob_out),
    )
    return builder.build(
        [r.name for r in mix_alice_out],
        [r.name for r in mix_bob_out],
        slots=(slot,),
    )


@dataclass(frozen=True)
class ConcavityReport:
    """Both sides of the input-concavity inequality and their slack."""

    lhs: float
    rhs: float
    slack: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance


def concavity_check(
    p: ProtocolSpec,
    rho1: DensityOperator,
    rho2: DensityOperator,
    prob: float,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> ConcavityReport:
    """Information cost of a mixed input vs the mixture of costs."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"prob must lie in [0, 1], got {prob}")
    if rho1.system.names != rho2.system.names or rho1.system.dims != rho2.system.dims:
        raise ValueError("the two states must live on the same registers")
    mixed = DensityOperator(
        rho1.system,
        prob * rho1.matrix + (1.0 - prob) * rho2.matrix,
        classical=rho1.classical and rho2.classical,
    )
    lhs = qic(p, mixed, max_dim=max_dim)
    rhs = prob * qic(p, rho1, max_dim=max_dim) + (1.0 - prob) * qic(
        p, rho2, max_dim=max_dim
    )
    return ConcavityReport(lhs, rhs, lhs - rhs, 1e-8)


def _slot_dims(p: ProtocolSpec) -> tuple[int, int]:
    slots = p.input_slots
    reg_by = {r.name: r for r in p.alice_in + p.bob_in}
    for s in slots:
        if len(s.alice_in) != 1 or len(s.bob_in) != 1:
            raise ValueError("slot averaging needs one register per party per slot")
    da = reg_by[slots[0].alice_in[0]].dim
    db = reg_by[slots[0].bob_in[0]].dim
    for s in slots:
        if reg_by[s.alice_in[0]].dim != da or reg_by[s.bob_in[0]].dim != db:
            raise ValueError("all slots must share the same register dimensions")
    return da, db


def and_embed_protocol(
    pd: ProtocolSpec, mu: np.ndarray, index: int
) -> ProtocolSpec:
    """Single-slot protocol embedding an input at slot ``index``.

    The other slots are fed from pre-shared purified copies of the
    distribution ``mu``; purifiers of earlier slots go to Alice, later
    ones to Bob.
    """
    _require_valid(pd)
    slots = pd.input_slots
    n = len(slots)
    if not 1 <= index <= n:
        raise ValueError(f"slot index {index} out of range 1..{n}")
    da, db = _slot_dims(pd)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (da, db):
        raise ValueError(f"distribution shape {mu.shape} does not match slots {(da, db)}")
    taken = set(pd.all_names)
    preshared = pd.preshared
    for j, slot in enumerate(slots, start=1):
        if j == index:
            continue
        ref = _fresh_name(f"Rcopy{j}", taken)
        pure = canonical_classical_purification(
            mu,
            alice_name=slot.alice_in[0],
            bob_name=slot.bob_in[0],
            ref_name=ref,
        )
        pure = pure.with_holders({ref: ALICE if j < index else BOB})
        preshared = tensor(preshared, pure)
    keep = slots[index - 1]
    reg_by = {r.name: r for r in pd.alice_in + pd.bob_in}
    builder = _ProtocolBuilder(
        preshared, (reg_by[keep.alice_in[0]],), (reg_by[keep.bob_in[0]],)
    )
    builder.replay(pd.unitaries, pd.messages)
    return builder.build(
        pd.alice_out,
        pd.bob_out,
        slots=(Slot(keep.alice_in, keep.bob_in, pd.alice_out, pd.bob_out),),
    )


def _slot_routing_rows(n: int) -> list[list[int]]:
    """Slot-averaging router rows, one per selector value: targets are the
    n slots then the 2n copy homes; source 0 is the instance input, j the
    copy j (1..2n) and 2n+k the padding k."""
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):  # slot j
            if j < i:
                row.append(j)
            elif j == i:
                row.append(0)
            else:
                row.append(n + j)
        used = set(range(1, i)) | {n + j for j in range(i + 1, n + 1)}
        pads = iter(range(2 * n + 1, 3 * n))
        for h in range(1, 2 * n + 1):  # home of copy h
            row.append(next(pads) if h in used else h)
        rows.append(row)
    return rows


def and_average_protocol(
    pd: ProtocolSpec, mu: np.ndarray, n: int
) -> ProtocolSpec:
    """Uniform coherent average of the n slot embeddings of a protocol.

    The pre-shared state carries 2n purified copies of ``mu`` (purifiers
    of the first n at Alice, the last n at Bob), padding zeros, and a
    uniform selector pair. On selector value i the input is routed into
    slot i, copies fill the other slots (earlier slots from Alice's
    copies, later from Bob's), and padding replaces the copies consumed.
    The message schedule of the underlying protocol is unchanged.
    """
    _require_valid(pd)
    if n < 2:
        raise ValueError(f"need at least two slots, got {n}")
    slots = pd.input_slots
    if len(slots) != n:
        raise ValueError(f"protocol exposes {len(slots)} input slots, expected {n}")
    da, db = _slot_dims(pd)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (da, db):
        raise ValueError(f"distribution shape {mu.shape} does not match slots {(da, db)}")
    qd = suffix_protocol(pd, "#D")
    taken = set(qd.all_names)
    a_in = Register(_fresh_name("A_in", taken), da)
    b_in = Register(_fresh_name("B_in", taken), db)
    s_a = Register(_fresh_name("SA", taken), n)
    s_b = Register(_fresh_name("SB", taken), n)
    copies_a: list[Register] = []
    copies_b: list[Register] = []
    preshared = qd.preshared
    for j in range(1, 2 * n + 1):
        ca = _fresh_name(f"DA{j}", taken)
        cb = _fresh_name(f"DB{j}", taken)
        ref = _fresh_name(f"DR{j}", taken)
        pure = canonical_classical_purification(
            mu, alice_name=ca, bob_name=cb, ref_name=ref
        )
        pure = pure.with_holders({ref: ALICE if j <= n else BOB})
        preshared = tensor(preshared, pure)
        copies_a.append(Register(ca, da))
        copies_b.append(Register(cb, db))
    pad_a = [Register(_fresh_name(f"PA{k}", taken), da) for k in range(1, n)]
    pad_b = [Register(_fresh_name(f"PB{k}", taken), db) for k in range(1, n)]
    home_a = [Register(_fresh_name(f"HA{j}", taken), da) for j in range(1, 2 * n + 1)]
    home_b = [Register(_fresh_name(f"HB{j}", taken), db) for j in range(1, 2 * n + 1)]
    preshared = tensor(preshared, _selector_state([1.0 / n] * n, s_a, s_b))
    preshared = tensor(preshared, _zero_state(pad_a, ALICE))
    preshared = tensor(preshared, _zero_state(pad_b, BOB))

    reg_by = {r.name: r for r in qd.alice_in + qd.bob_in}
    slot_regs_a = tuple(reg_by[s.alice_in[0] + "#D"] for s in slots)
    slot_regs_b = tuple(reg_by[s.bob_in[0] + "#D"] for s in slots)
    rows = _slot_routing_rows(n)
    route_a = controlled_permutation(
        s_a,
        (a_in,) + tuple(copies_a) + tuple(pad_a),
        slot_regs_a + tuple(home_a),
        rows,
    )
    route_b = controlled_permutation(
        s_b,
        (b_in,) + tuple(copies_b) + tuple(pad_b),
        slot_regs_b + tuple(home_b),
        rows,
    )
    us = list(qd.unitaries)
    us[0] = chain_unitaries(route_a, us[0])
    us[1] = chain_unitaries(route_b, us[1])
    builder = _ProtocolBuilder(preshared, (a_in,), (b_in,))
    builder.replay(us, qd.messages)
    return builder.build(
        qd.alice_out,
        qd.bob_out,
        slots=(Slot((a_in.name,), (b_in.name,), qd.alice_out, qd.bob_out),),
    )
