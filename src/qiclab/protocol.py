"""Two-party interactive protocol model.

A protocol is a pre-shared pure state plus a sequence of unitaries with a
fixed alternating schedule: Alice acts on odd steps, Bob on even steps,
each unitary consuming the speaker's entire holding plus the incoming
message block and emitting the next message block. Costs:

* communication cost: sum over messages of log2 of the message dimension;
* information cost: sum over messages of half the conditional mutual
  information between the message and the input's purifying reference,
  conditioned on everything the receiver holds at that moment.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, NamedTuple, Sequence

from .hilbert import (
    ALICE,
    BOB,
    DEFAULT_MAX_DIM,
    IN_FLIGHT,
    REFERENCE,
    ChannelOp,
    DensityOperator,
    Holder,
    Register,
    StateVector,
    UnitaryOp,
    _fresh_name,
    _prod,
    _renamed_fields,
    apply_unitary,
    canonical_purification,
    chain_unitaries,
    purify,
    reduced_density,
    tensor,
)
from .measures import entropy, trace_norm


class ProtocolValidationError(ValueError):
    """Raised when an operation requires a protocol that fails validation."""

    def __init__(self, findings: Sequence[str]):
        super().__init__("; ".join(findings))
        self.findings = list(findings)


@dataclass(frozen=True)
class Slot:
    """One input/output slot of a protocol (register names per party)."""

    alice_in: tuple[str, ...]
    bob_in: tuple[str, ...]
    alice_out: tuple[str, ...] = ()
    bob_out: tuple[str, ...] = ()

    renamed = _renamed_fields


@dataclass(frozen=True)
class ProtocolSpec:
    """A validated description of an interactive protocol.

    ``messages[i]`` names the register block emitted by unitary i+1; the
    final unitary emits no message. ``alice_scratch``/``bob_scratch`` are
    the local leftovers traced out of the protocol's channel output.
    """

    num_messages: int
    preshared: StateVector
    unitaries: tuple[UnitaryOp, ...]
    alice_in: tuple[Register, ...]
    bob_in: tuple[Register, ...]
    messages: tuple[tuple[str, ...], ...]
    alice_out: tuple[str, ...]
    bob_out: tuple[str, ...]
    alice_scratch: tuple[str, ...] = ()
    bob_scratch: tuple[str, ...] = ()
    slots: tuple[Slot, ...] = ()

    def __post_init__(self):
        # every field after num_messages and preshared becomes a tuple (messages
        # a tuple of tuples): the ledger memo relies on a spec never changing
        for f in fields(self)[2:]:
            v = getattr(self, f.name)
            object.__setattr__(self, f.name, tuple(map(tuple, v) if f.name == "messages" else v))

    renamed = _renamed_fields

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.alice_in + self.bob_in)

    @property
    def input_slots(self) -> tuple[Slot, ...]:
        if self.slots:
            return self.slots
        return (
            Slot(
                tuple(r.name for r in self.alice_in),
                tuple(r.name for r in self.bob_in),
                self.alice_out,
                self.bob_out,
            ),
        )

    @property
    def all_names(self) -> set[str]:
        names = set(self.input_names) | set(self.preshared.system.names)
        for u in self.unitaries:
            names |= set(u.in_names) | set(u.out_names)
            for st in u.stages:
                names |= set(st.in_names) | {r.name for r in st.out_regs}
        return names


def validate(p: ProtocolSpec) -> list[str]:
    """Check the schedule; an empty list means the protocol is well formed."""
    findings: list[str] = []
    m = p.num_messages
    if m < 2 or m % 2 != 0:
        findings.append(
            f"protocols must have a positive even number of messages, got {m}"
        )
    if len(p.unitaries) != m + 1:
        findings.append(
            f"expected {m + 1} unitaries for {m} messages, got {len(p.unitaries)}"
        )
    if len(p.messages) != m:
        findings.append(
            f"expected {m} message blocks, got {len(p.messages)}"
        )
    if findings:
        return findings

    for r, h in zip(p.preshared.system.registers, p.preshared.system.holders):
        if h not in (ALICE, BOB):
            findings.append(
                f"pre-shared register {r.name!r} must be held by Alice or Bob"
            )
    in_names = list(p.input_names)
    if len(set(in_names)) != len(in_names):
        findings.append("duplicate input register names")
    clash = set(in_names) & set(p.preshared.system.names)
    if clash:
        findings.append(
            f"input registers collide with pre-shared registers: {sorted(clash)}"
        )
    if findings:
        return findings

    pres = p.preshared.system
    alice_hold = {r.name: r.dim for r in p.alice_in}
    bob_hold = {r.name: r.dim for r in p.bob_in}
    for r, h in zip(pres.registers, pres.holders):
        (alice_hold if h is ALICE else bob_hold)[r.name] = r.dim
    msg_prev: dict[str, int] = {}
    for i, u in enumerate(p.unitaries, start=1):
        alice_turn = i % 2 == 1
        speaker_hold = alice_hold if alice_turn else bob_hold
        expected = dict(speaker_hold)
        expected.update(msg_prev)
        got = {r.name: r.dim for r in u.in_regs}
        if got != expected:
            findings.append(
                f"U_{i} inputs {_fmt(got)} do not equal the speaker's holding plus "
                f"the incoming message {_fmt(expected)}"
            )
            return findings
        out = {r.name: r.dim for r in u.out_regs}
        if i <= m:
            msg = p.messages[i - 1]
            missing = [n for n in msg if n not in out]
            if missing:
                findings.append(
                    f"U_{i} outputs are missing message registers {missing}"
                )
                return findings
            msg_prev = {n: out[n] for n in msg}
            new_hold = {n: d for n, d in out.items() if n not in set(msg)}
        else:
            msg_prev = {}
            new_hold = out
        other_hold = bob_hold if alice_turn else alice_hold
        clash = set(out) & set(other_hold)
        if clash:
            findings.append(
                f"U_{i} output names collide with the other party's registers: "
                f"{sorted(clash)}"
            )
            return findings
        if alice_turn:
            alice_hold = new_hold
        else:
            bob_hold = new_hold

    declared_a = list(p.alice_out) + list(p.alice_scratch)
    if sorted(declared_a) != sorted(alice_hold):
        findings.append(
            f"declared Alice outputs+scratch {sorted(declared_a)} do not match her "
            f"final holding {sorted(alice_hold)}"
        )
    declared_b = list(p.bob_out) + list(p.bob_scratch)
    if sorted(declared_b) != sorted(bob_hold):
        findings.append(
            f"declared Bob outputs+scratch {sorted(declared_b)} do not match his "
            f"final holding {sorted(bob_hold)}"
        )
    return findings


def _require_valid(p: ProtocolSpec) -> None:
    findings = validate(p)
    if findings:
        raise ProtocolValidationError(findings)


def _fmt(d: Mapping[str, int]) -> str:
    return "{" + ", ".join(f"{k}:{v}" for k, v in sorted(d.items())) + "}"


class _ProtocolBuilder:
    """The one constructor of protocol schedules.

    Walks the alternating schedule, tracking what each party holds, and
    extends each step's unitary with pass-through registers so it formally
    covers the speaker's whole holding plus the incoming message.
    """

    def __init__(
        self,
        preshared: StateVector,
        alice_in: Sequence[Register],
        bob_in: Sequence[Register],
    ):
        self.preshared = preshared
        self.alice_in = tuple(alice_in)
        self.bob_in = tuple(bob_in)
        self.alice_hold: dict[str, Register] = {r.name: r for r in alice_in}
        self.bob_hold: dict[str, Register] = {r.name: r for r in bob_in}
        for r, h in zip(preshared.system.registers, preshared.system.holders):
            (self.alice_hold if h is ALICE else self.bob_hold)[r.name] = r
        self.incoming: dict[str, Register] = {}
        self.unitaries: list[UnitaryOp] = []
        self.messages: list[tuple[str, ...]] = []

    def inputs(self) -> tuple[Register, ...]:
        """The next step's inputs: the speaker's holding, then the incoming message."""
        hold = self.alice_hold if len(self.unitaries) % 2 == 0 else self.bob_hold
        return tuple(hold.values()) + tuple(self.incoming.values())

    def step(self, core: UnitaryOp, message: Sequence[str] | None) -> None:
        """Append the next unitary; ``message`` names the block it sends,
        ``None`` for the closing unitary."""
        i = len(self.unitaries) + 1
        expected = {r.name: r for r in self.inputs()}
        consumed = set(core.in_names)
        stray = consumed - set(expected)
        if stray:
            raise ValueError(
                f"step {i}: unitary consumes registers the speaker does not "
                f"hold: {sorted(stray)}"
            )
        missing = tuple(r for n, r in expected.items() if n not in consumed)
        u = core.extended(missing)
        out_regs = {r.name: r for r in u.out_regs}
        msg = tuple(message) if message is not None else ()
        new_hold = {n: r for n, r in out_regs.items() if n not in msg}
        if i % 2 == 1:
            self.alice_hold = new_hold
        else:
            self.bob_hold = new_hold
        self.incoming = {n: out_regs[n] for n in msg}
        self.unitaries.append(u)
        if message is not None:
            self.messages.append(msg)

    def replay(
        self, unitaries: Sequence[UnitaryOp], messages: Sequence[tuple[str, ...]]
    ) -> None:
        """Step through ``unitaries`` in order, each sending its entry of
        ``messages``; a unitary past the end of ``messages`` sends none."""
        for k, u in enumerate(unitaries):
            self.step(u, messages[k] if k < len(messages) else None)

    def build(
        self,
        alice_out: Sequence[str],
        bob_out: Sequence[str],
        slots: Sequence[Slot] = (),
    ) -> ProtocolSpec:
        p = ProtocolSpec(
            num_messages=len(self.messages),
            preshared=self.preshared,
            unitaries=tuple(self.unitaries),
            alice_in=self.alice_in,
            bob_in=self.bob_in,
            messages=tuple(self.messages),
            alice_out=tuple(alice_out),
            bob_out=tuple(bob_out),
            alice_scratch=tuple(n for n in self.alice_hold if n not in set(alice_out)),
            bob_scratch=tuple(n for n in self.bob_hold if n not in set(bob_out)),
            slots=tuple(slots),
        )
        _require_valid(p)
        return p


def _output_regs(p: ProtocolSpec, names: Sequence[str]) -> tuple[Register, ...]:
    """Output registers, with their dims, as the two closing unitaries emit them.

    Bob's outputs come from U_M and Alice's from U_{M+1}; on a valid
    protocol U_{M+1} emits no name Bob still holds.
    """
    dims = {r.name: r.dim for u in p.unitaries[-2:] for r in u.out_regs}
    return tuple(Register(n, dims[n]) for n in names)


@dataclass(frozen=True)
class QuantumTask:
    """A channel to implement, an input to implement it on, and an error budget."""

    channel: ChannelOp
    input: DensityOperator
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 2.0:
            raise ValueError(f"epsilon must lie in [0, 2], got {self.epsilon}")
        ch = {r.name: r.dim for r in self.channel.in_regs}
        st = {r.name: r.dim for r in self.input.system.registers}
        if ch != st:
            raise ValueError(
                f"channel input registers {_fmt(ch)} do not match state registers {_fmt(st)}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Global pure states after each message, plus the channel output."""

    steps: tuple[StateVector, ...]
    final_state: StateVector
    output: DensityOperator


def purify_input(rho: DensityOperator, ref_name: str) -> StateVector:
    """Purify a protocol input: basis-labelled if classical, spectral otherwise."""
    if rho.classical:
        return canonical_purification(rho, ref_name=ref_name)
    return purify(rho, ref_name=ref_name)


def _prepare_input(p: ProtocolSpec, input_state) -> StateVector:
    in_regs = p.alice_in + p.bob_in
    want = {r.name: r.dim for r in in_regs}
    if isinstance(input_state, DensityOperator):
        have = {r.name: r.dim for r in input_state.system.registers}
        if have != want:
            raise ValueError(
                f"input registers {_fmt(have)} do not match protocol inputs {_fmt(want)}"
            )
        fresh = _fresh_name("R", p.all_names)
        vec = purify_input(input_state, fresh)
    elif isinstance(input_state, StateVector):
        vec = input_state
        for r in in_regs:
            got = vec.system.register(r.name)
            if got.dim != r.dim:
                raise ValueError(
                    f"input register {r.name!r} has dim {got.dim}, expected {r.dim}"
                )
        extra = [n for n in vec.system.names if n not in want]
        clash = set(extra) & (p.all_names - set(want))
        if clash:
            raise ValueError(
                f"input reference registers collide with protocol registers: {sorted(clash)}"
            )
    else:
        raise TypeError(f"cannot run a protocol on {type(input_state).__name__}")
    holders: dict[str, Holder] = {r.name: ALICE for r in p.alice_in}
    holders.update({r.name: BOB for r in p.bob_in})
    holders.update(
        {n: REFERENCE for n in vec.system.names if n not in holders}
    )
    return vec.with_holders(holders)


def _walk(p: ProtocolSpec, input_state, max_dim: int) -> Iterator[StateVector]:
    """The global pure state after each unitary of ``p``, one per ``next()``.

    Validation, input preparation and the ``max_dim`` refusal run at the
    call, not at the first ``next()``: a refused walk raises before it starts.
    """
    _require_valid(p)
    vec = _prepare_input(p, input_state)
    start = tensor(vec, p.preshared)
    if start.system.total_dim > max_dim:
        raise ValueError(
            f"global dimension {start.system.total_dim} exceeds max_dim={max_dim}"
        )

    def states(state: StateVector) -> Iterator[StateVector]:
        m = p.num_messages
        for i, u in enumerate(p.unitaries, start=1):
            speaker = ALICE if i % 2 == 1 else BOB
            msg = set(p.messages[i - 1]) if i <= m else set()
            # what the step emits, passed-through registers included, is in
            # flight if it is in the outgoing message and the speaker's otherwise
            emitted = [r.name for st in u.stages for r in st.out_regs] + list(u.out_names)
            holders = {n: IN_FLIGHT if n in msg else speaker for n in emitted}
            state = apply_unitary(state, u, holders=holders).with_holders(
                {n: holders[n] for n in u.out_names}
            )
            yield state

    return states(start)


def run(
    p: ProtocolSpec,
    input_state,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> Trajectory:
    """Simulate the protocol globally on a (purified) input.

    Mixed inputs are purified first; the reference registers ride along
    untouched and appear in the output reduction.
    """
    *steps, final = _walk(p, input_state, max_dim)
    keep = list(p.alice_out) + list(p.bob_out) + list(final.system.reference_names)
    return Trajectory(tuple(steps), final, reduced_density(final, keep))


def _message_regs(p: ProtocolSpec) -> list[tuple[Register, ...]]:
    """The registers of each message block, with the dims its unitary emits."""
    out = []
    for u, block in zip(p.unitaries, p.messages):
        dims = {r.name: r.dim for r in u.out_regs}
        out.append(tuple(Register(n, dims[n]) for n in block))
    return out


def qcc(p: ProtocolSpec) -> float:
    """Communication cost: sum of log2 message dimensions, in qubits."""
    _require_valid(p)
    # a sum of per-register logs: the log of a block's product can differ in the last bit
    return sum((sum(math.log2(r.dim) for r in block) for block in _message_regs(p)), 0.0)


def message_dims(p: ProtocolSpec) -> list[int]:
    """Dimension of each message block (product over its registers)."""
    return [_prod(r.dim for r in block) for block in _message_regs(p)]


class MessageEntropies(NamedTuple):
    """Entropies in bits around one message of a protocol.

    C is the message block, B the receiver's holding when it arrives and
    R the input's purifying reference.
    """

    h_cb: float
    h_rb: float
    h_b: float
    h_crb: float

    @property
    def cost(self) -> float:
        """Information cost term: half of I(C;R|B)."""
        return 0.5 * (self.h_cb + self.h_rb - self.h_b - self.h_crb)


# the last ledger: (weakref to p, weakref to the input, max_dim, rows)
_last_ledger = None


def message_entropies(
    p: ProtocolSpec,
    input_state,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> list[MessageEntropies]:
    """H(CB), H(RB), H(B) and H(CRB) for every message, from one walk.

    The walk stops at the state after the last message: the closing
    unitary is never applied and the output never reduced, and each step
    is dropped once its four entropies are taken.

    Entropies are memoized by register set. A subsystem and its
    complement share an entry, since the global state is pure. An entry
    carries over to the next step when the next unitary outputs none of
    its registers: if those registers all still exist, the unitary acted
    on the complement alone. The receiver of message i+1 holds what the
    sender of message i kept, so after the first message H(B) and H(RB)
    are the entries of H(CRB) and H(CB) one step earlier.

    The last result is kept (weak references and floats only), so the
    cost terms, step rates and budget of one pair share one walk. It is
    returned for the very same live ``ProtocolSpec`` and ``StateVector``
    or ``DensityOperator`` input (identity; all are immutable) and the
    same ``max_dim``.
    """
    global _last_ledger
    last = _last_ledger
    if last and last[0]() is p and last[1]() is input_state and last[2] == max_dim:
        return list(last[3])
    states = _walk(p, input_state, max_dim)
    memo: dict[frozenset[str], float] = {}
    out = []
    # messages first: zip stops on them before pulling the closing unitary's state
    for i, (block, st) in enumerate(zip(p.messages, states), start=1):
        touched = {r.name for r in p.unitaries[i - 1].out_regs}
        memo = {k: h for k, h in memo.items() if not k & touched}
        system = st.system
        names = frozenset(system.names)
        c = frozenset(block)
        b = frozenset(system.held_by(BOB if i % 2 == 1 else ALICE))
        r = frozenset(system.reference_names)
        row = []
        for sub in (c | b, r | b, b, c | r | b):
            if sub not in memo:
                ordered = [n for n in system.names if n in sub]
                memo[sub] = memo[names - sub] = entropy(st, ordered)
            row.append(memo[sub])
        out.append(MessageEntropies(*row))
    if isinstance(p, ProtocolSpec) and isinstance(input_state, (StateVector, DensityOperator)):
        _last_ledger = (weakref.ref(p), weakref.ref(input_state), max_dim, tuple(out))
    return out


def qic_terms(
    p: ProtocolSpec,
    input_state,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> list[float]:
    """Per-message information cost terms (half CMI against the reference)."""
    return [e.cost for e in message_entropies(p, input_state, max_dim=max_dim)]


def qic(p: ProtocolSpec, input_state, *, max_dim: int = DEFAULT_MAX_DIM) -> float:
    """Information cost of the protocol on the given input, in qubits."""
    return float(sum(qic_terms(p, input_state, max_dim=max_dim)))


def protocol_error(
    p: ProtocolSpec, task: QuantumTask, *, max_dim: int = DEFAULT_MAX_DIM
) -> float:
    """Trace distance between the protocol's channel and the target channel.

    Both are applied to the same purification of the task input, with the
    target channel acting as its dilation tensored with the identity on
    the reference.
    """
    in_names = list(p.input_names)
    ch = task.channel
    ch_names = [r.name for r in ch.in_regs]
    if set(ch_names) != set(in_names):
        raise ValueError(
            f"channel inputs {sorted(ch_names)} do not match protocol inputs {sorted(in_names)}"
        )
    pure = _prepare_input(p, task.input)
    refs = [n for n in pure.system.names if n not in set(in_names)]
    out1 = run(p, pure, max_dim=max_dim).output
    vec2, ch2 = ch.apply_to_vector(pure)
    out2 = reduced_density(vec2, list(ch2.out_names) + refs)
    if out1.system.dims != out2.system.dims:
        raise ValueError(
            f"output dimensions differ: {out1.system.dims} vs {out2.system.dims}"
        )
    return trace_norm(out1.matrix - out2.matrix)


def nfold_error_check(
    p_n: ProtocolSpec,
    task: QuantumTask,
    n: int,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> list[float]:
    """Per-copy errors of a protocol for n parallel instances of a task.

    The i-th entry compares the reduction to copy i's outputs and its own
    reference factor against the single-copy channel output; the check
    succeeds when every entry is at most ``task.epsilon``.
    """
    slots = p_n.input_slots
    if len(slots) != n:
        raise ValueError(f"protocol exposes {len(slots)} input slots, expected {n}")
    ch = task.channel
    ch_in = [r.name for r in ch.in_regs]
    copies = []
    targets = []
    for i, slot in enumerate(slots, start=1):
        slot_names = list(slot.alice_in) + list(slot.bob_in)
        if len(slot_names) != len(ch_in):
            raise ValueError(f"slot {i} arity does not match the channel input")
        ref = f"R@{i}"
        pure_i = purify_input(task.input, ref)
        vec_i, ch_i = ch.apply_to_vector(pure_i)
        targets.append(reduced_density(vec_i, list(ch_i.out_names) + [ref]))
        mapping = dict(zip(ch_in, slot_names))
        copies.append(pure_i.renamed(mapping))
    joint = copies[0]
    for c in copies[1:]:
        joint = tensor(joint, c)
    traj = run(p_n, joint, max_dim=max_dim)
    entries = []
    for i, slot in enumerate(slots, start=1):
        keep = list(slot.alice_out) + list(slot.bob_out) + [f"R@{i}"]
        lhs = reduced_density(traj.final_state, keep)
        rhs = targets[i - 1]
        if lhs.system.dims != rhs.system.dims:
            raise ValueError(
                f"copy {i}: output dimensions differ: {lhs.system.dims} vs {rhs.system.dims}"
            )
        entries.append(trace_norm(lhs.matrix - rhs.matrix))
    return entries


def suffix_protocol(p: ProtocolSpec, suffix: str) -> ProtocolSpec:
    """Rename every register of a protocol with a suffix."""
    return p.renamed({n: n + suffix for n in p.all_names})


def pad_rounds(p: ProtocolSpec, rounds: int = 2) -> ProtocolSpec:
    """Append trivial one-dimensional message rounds to a protocol.

    Padding rounds carry dimension-1 communication registers, so both
    costs are unchanged; useful for aligning message counts.
    """
    if rounds <= 0 or rounds % 2 != 0:
        raise ValueError("rounds must be a positive even integer")
    _require_valid(p)
    m = p.num_messages
    builder = _ProtocolBuilder(p.preshared, p.alice_in, p.bob_in)
    builder.replay(p.unitaries[:m], p.messages)
    taken = set(p.all_names)
    # every step sends a fresh dimension-1 block: U_{M+1} the first, and
    # each later step after dropping the block it received
    receive = p.unitaries[m]
    for k in range(rounds):
        name = _fresh_name(f"Cpad{k + 1}", taken)
        pad = Register(name, 1)
        send = UnitaryOp.rename((), (pad,))
        builder.step(chain_unitaries(receive, send), (name,))
        receive = UnitaryOp.rename((pad,), ())
    builder.step(receive, None)
    return builder.build(p.alice_out, p.bob_out, p.slots)
