"""Protocol model: schedule validation, simulation, costs, error measures."""

import math

import numpy as np
import pytest

from qiclab import (
    ALICE,
    BOB,
    REFERENCE,
    DensityOperator,
    ProtocolSpec,
    ProtocolValidationError,
    QuantumTask,
    Register,
    RegisterSystem,
    Slot,
    Stage,
    StateVector,
    UnitaryOp,
    channel_from_kraus,
    haar_random_unitary,
    classical_state,
    nfold_error_check,
    pad_rounds,
    protocol_error,
    qcc,
    qic,
    qic_terms,
    run,
    tensor,
    validate,
)
from qiclab.classical import and_pair, exact_protocol_for, function_channel, noisy_protocol_for
from qiclab.constructions import parallel_compose
from qiclab.fuzz import (
    random_input_density,
    random_protocol,
    random_state_vector,
)
from qiclab.fileio import protocol_to_obj


def empty_state():
    return StateVector(RegisterSystem((), ()), np.array([1.0], dtype=complex))


def correlated_bit_protocol():
    """Alice ships one classical bit to Bob; nothing comes back."""
    u1 = UnitaryOp.rename((Register("A_in", 2),), (Register("C_1", 2),))
    u2 = UnitaryOp(
        (Register("B_in", 1), Register("C_1", 2)),
        (Register("B_in", 1), Register("B_out", 2), Register("C_2", 1)),
        (
            Stage(np.eye(2), ("C_1",), (Register("B_out", 2),)),
            Stage(np.eye(1), (), (Register("C_2", 1),)),
        ),
    )
    u3 = UnitaryOp.rename((Register("C_2", 1),), (Register("A_fin", 1),))
    return ProtocolSpec(
        num_messages=2,
        preshared=empty_state(),
        unitaries=(u1, u2, u3),
        alice_in=(Register("A_in", 2),),
        bob_in=(Register("B_in", 1),),
        messages=(("C_1",), ("C_2",)),
        alice_out=("A_fin",),
        bob_out=("B_out",),
        alice_scratch=(),
        bob_scratch=("B_in",),
    )


def relay_protocol():
    """Alice ships a qubit; Bob keeps it as his output."""
    return correlated_bit_protocol()


class TestValidate:
    def test_well_formed_protocol(self):
        assert validate(correlated_bit_protocol()) == []
        assert validate(random_protocol(0, 4)) == []

    def test_wrong_second_unitary_dims(self):
        p = correlated_bit_protocol()
        bad_u2 = UnitaryOp.rename(
            (Register("B_in", 1), Register("C_1", 2), Register("ghost", 2)),
            (Register("B_out", 4), Register("C_2", 1), Register("B_in", 1)),
        )
        bad = ProtocolSpec(
            num_messages=2,
            preshared=p.preshared,
            unitaries=(p.unitaries[0], bad_u2, p.unitaries[2]),
            alice_in=p.alice_in,
            bob_in=p.bob_in,
            messages=p.messages,
            alice_out=p.alice_out,
            bob_out=p.bob_out,
            alice_scratch=p.alice_scratch,
            bob_scratch=p.bob_scratch,
        )
        findings = validate(bad)
        assert findings and "U_2" in findings[0]

    def test_odd_message_count_rejected(self):
        p = correlated_bit_protocol()
        bad = ProtocolSpec(
            num_messages=3,
            preshared=p.preshared,
            unitaries=p.unitaries,
            alice_in=p.alice_in,
            bob_in=p.bob_in,
            messages=p.messages,
            alice_out=p.alice_out,
            bob_out=p.bob_out,
        )
        findings = validate(bad)
        assert any("even" in f for f in findings)

    def test_preshared_must_be_held_by_parties(self):
        bad_pres = StateVector(
            RegisterSystem.make([("T", 2, REFERENCE)]),
            np.array([1, 0], dtype=complex),
        )
        p = correlated_bit_protocol()
        bad = ProtocolSpec(
            num_messages=2,
            preshared=bad_pres,
            unitaries=p.unitaries,
            alice_in=p.alice_in,
            bob_in=p.bob_in,
            messages=p.messages,
            alice_out=p.alice_out,
            bob_out=p.bob_out,
            bob_scratch=p.bob_scratch,
        )
        findings = validate(bad)
        assert any("Alice or Bob" in f for f in findings)


class TestRun:
    def test_identity_relay_moves_the_bit(self):
        p = relay_protocol()
        amps = np.zeros(2, dtype=complex)
        amps[1] = 1.0
        st = StateVector(
            RegisterSystem.make([("A_in", 2, ALICE), ("B_in", 1, BOB)]), amps
        )
        traj = run(p, st)
        out = traj.output
        # |1> arrived in Bob's output register
        assert out.system.names == ("A_fin", "B_out")
        assert abs(out.matrix[1, 1] - 1.0) < 1e-12

    def test_all_dims_one_protocol(self):
        one = Register("A_in", 1)
        bone = Register("B_in", 1)
        u1 = UnitaryOp.rename((one,), (Register("C_1", 1),))
        u2 = UnitaryOp.rename(
            (bone, Register("C_1", 1)), (Register("B_out", 1), Register("C_2", 1))
        )
        u3 = UnitaryOp.rename((Register("C_2", 1),), (Register("A_out", 1),))
        p = ProtocolSpec(
            num_messages=2,
            preshared=empty_state(),
            unitaries=(u1, u2, u3),
            alice_in=(one,),
            bob_in=(bone,),
            messages=(("C_1",), ("C_2",)),
            alice_out=("A_out",),
            bob_out=("B_out",),
        )
        st = StateVector(
            RegisterSystem.make([("A_in", 1, ALICE), ("B_in", 1, BOB)]),
            np.array([1.0], dtype=complex),
        )
        traj = run(p, st)
        assert traj.output.system.total_dim == 1
        assert abs(traj.output.matrix[0, 0] - 1.0) < 1e-12

    def test_intermediate_norms(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = random_protocol(rng, 2)
            rho = random_input_density(p, rng)
            traj = run(p, rho)
            for st in traj.steps:
                assert abs(st.norm - 1.0) < 1e-12

    def test_in_flight_tagging(self):
        p = correlated_bit_protocol()
        rho = classical_state(
            np.array([[0.5], [0.5]]), [("A_in", 2, ALICE), ("B_in", 1, BOB)]
        )
        traj = run(p, rho)
        step1 = traj.steps[0]
        from qiclab import IN_FLIGHT

        assert step1.system.holder_of("C_1") is IN_FLIGHT

    def test_invalid_protocol_raises(self):
        p = correlated_bit_protocol()
        bad = ProtocolSpec(
            num_messages=4,
            preshared=p.preshared,
            unitaries=p.unitaries,
            alice_in=p.alice_in,
            bob_in=p.bob_in,
            messages=p.messages,
            alice_out=p.alice_out,
            bob_out=p.bob_out,
        )
        with pytest.raises(ProtocolValidationError):
            run(bad, random_input_density(p, 0))


class TestQcc:
    def test_two_qubit_messages(self):
        assert qcc(correlated_bit_protocol()) == 1.0  # one qubit + one trivial message
        assert qcc(random_protocol(1, 2)) == 2.0

    def test_non_power_of_two_message(self):
        # message dimensions 2 then 3
        a_in = Register("A_in", 6)
        b_in = Register("B_in", 3)
        u1 = UnitaryOp.rename((a_in,), (Register("A_1", 3), Register("C_1", 2)))
        u2 = UnitaryOp.rename(
            (b_in, Register("C_1", 2)),
            (Register("B_out", 2), Register("C_2", 3)),
        )
        u3 = UnitaryOp.rename(
            (Register("A_1", 3), Register("C_2", 3)), (Register("A_out", 9),)
        )
        p = ProtocolSpec(
            num_messages=2,
            preshared=empty_state(),
            unitaries=(u1, u2, u3),
            alice_in=(a_in,),
            bob_in=(b_in,),
            messages=(("C_1",), ("C_2",)),
            alice_out=("A_out",),
            bob_out=("B_out",),
        )
        assert validate(p) == []
        assert abs(qcc(p) - (1.0 + math.log2(3))) < 1e-12

    def test_all_trivial_messages(self):
        p = pad_rounds(correlated_bit_protocol())
        assert qcc(p) == qcc(correlated_bit_protocol())


class TestQic:
    def test_pure_input_is_free(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_protocol(rng, 2)
            vec = random_state_vector(
                [(r.name, r.dim, ALICE) for r in p.alice_in]
                + [(r.name, r.dim, BOB) for r in p.bob_in],
                rng,
            )
            assert qic(p, vec) <= 1e-9

    def test_correlated_bit_costs_one(self):
        # hand derivation: after the first message the message register is
        # maximally correlated with the reference and Bob holds nothing,
        # so the single term is half of 2 bits; the return message is trivial.
        p = correlated_bit_protocol()
        rho = classical_state(
            np.array([[0.5], [0.5]]), [("A_in", 2, ALICE), ("B_in", 1, BOB)]
        )
        terms = qic_terms(p, rho)
        assert abs(terms[0] - 1.0) < 1e-9
        assert abs(terms[1]) < 1e-12
        assert abs(qic(p, rho) - 1.0) < 1e-9

    def test_sandwich_on_random_protocols(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = 2 if rng.random() < 0.5 else 4
            p = random_protocol(rng, m)
            rho = random_input_density(p, rng)
            q = qic(p, rho)
            assert -1e-8 <= q <= qcc(p) + 1e-8

    def test_padding_rounds_are_free(self):
        for num_messages in (2, 4, 6):
            p = random_protocol(12, num_messages)
            rho = random_input_density(p, 13)
            for rounds in (2, 4):
                padded = pad_rounds(p, rounds)
                assert validate(padded) == []
                assert padded.num_messages == num_messages + rounds
                assert qcc(padded) == qcc(p)
                assert abs(qic(padded, rho) - qic(p, rho)) < 1e-9, (num_messages, rounds)

    def test_pass_through_message_register(self):
        # a protocol may send a register without applying any gate to it;
        # holder bookkeeping and costs behave as if it were relabeled
        u1 = UnitaryOp((Register("A_in", 2),), (Register("A_in", 2),), ())
        u2 = UnitaryOp(
            (Register("B_in", 1), Register("A_in", 2)),
            (Register("B_in", 1), Register("B_out", 2), Register("C_2", 1)),
            (
                Stage(np.eye(2), ("A_in",), (Register("B_out", 2),)),
                Stage(np.eye(1), (), (Register("C_2", 1),)),
            ),
        )
        u3 = UnitaryOp.rename((Register("C_2", 1),), (Register("A_fin", 1),))
        p = ProtocolSpec(
            num_messages=2,
            preshared=empty_state(),
            unitaries=(u1, u2, u3),
            alice_in=(Register("A_in", 2),),
            bob_in=(Register("B_in", 1),),
            messages=(("A_in",), ("C_2",)),
            alice_out=("A_fin",),
            bob_out=("B_out",),
            bob_scratch=("B_in",),
        )
        assert validate(p) == []
        rho = classical_state(
            np.array([[0.5], [0.5]]), [("A_in", 2, ALICE), ("B_in", 1, BOB)]
        )
        traj = run(p, rho)
        from qiclab import IN_FLIGHT

        assert traj.steps[0].system.holder_of("A_in") is IN_FLIGHT
        assert abs(qic(p, rho) - 1.0) < 1e-9
        from qiclab import compression_budget

        rep = compression_budget(p, rho, 0.01)
        assert abs(rep.total_rate - 1.01) < 1e-8

    def test_cost_does_not_depend_on_the_purification(self):
        # spectral and basis-labelled purifications of a diagonal input are
        # unitarily related on the reference, so the cost agrees
        from qiclab import canonical_purification, purify
        from qiclab.fuzz import random_classical_density

        rng = np.random.default_rng(14)
        p = random_protocol(rng, 2)
        specs = [(r.name, r.dim, ALICE) for r in p.alice_in] + [
            (r.name, r.dim, BOB) for r in p.bob_in
        ]
        rho = random_classical_density(specs, rng)
        via_spectral = qic(p, purify(rho, "R"))
        via_canonical = qic(p, canonical_purification(rho, "R"))
        assert abs(via_spectral - via_canonical) < 1e-9

    def test_cost_is_continuous_across_the_purification_cut(self):
        """QIC barely moves when an input eigenvalue crosses purify's 1e-9 cut.

        At eps = 0.99e-9 purify drops the eigenvalue and renormalizes, so
        the cost is that of rho_rest, the input without it. At 1.01e-9 it
        is kept: the input is rho_hi = (1 - eps) rho_rest + eps |v><v|,
        and 1/2 ||rho_hi - rho_rest||_1 = eps. Each message term is half
        of I(C;R|B) = H(C|B) + H(C|A) on the global pure state, A the
        sender's other registers, so both conditional entropies live on
        marginals without the reference. Those are images of the input
        under the protocol's unitaries and a partial trace, and trace
        distance only shrinks under those. By Alicki-Fannes-Winter each
        conditional entropy moves by at most
        2 eps log d_C + (1 + eps) h(eps / (1 + eps)), so each term by at
        most that and QIC by at most the sum over messages: about 6.5e-8
        per message here, against errors near 1e-12 in the eigen solver.
        """
        p = random_protocol(4, 4)
        rho = random_input_density(p, 5)
        w, v = np.linalg.eigh(rho.matrix)
        w[0] = 0.0
        rest = (v * (w / w.sum())) @ v.conj().T

        def cost(eps):
            mixed = (1 - eps) * rest + eps * np.outer(v[:, 0], v[:, 0].conj())
            return qic(p, DensityOperator(rho.system, mixed))

        lo, hi = cost(0.99e-9), cost(1.01e-9)
        assert lo == pytest.approx(qic(p, DensityOperator(rho.system, rest)), abs=1e-12)
        # sum over messages of 2 eps log2 d_C is 2 eps qcc
        eps, x = 1.01e-9, 1.01e-9 / (1 + 1.01e-9)
        h = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        bound = 2 * eps * qcc(p) + p.num_messages * (1 + eps) * h
        assert bound < 3e-7
        assert 0 < abs(hi - lo) <= bound + 1e-12


class TestProtocolError:
    def test_exact_protocol_has_zero_error(self):
        fp = and_pair()
        p = exact_protocol_for(fp)
        mu = np.array([[0.3, 0.2], [0.25, 0.25]])
        task = QuantumTask(
            function_channel(fp),
            classical_state(mu, [("A_in", 2, ALICE), ("B_in", 2, BOB)]),
            0.0,
        )
        assert protocol_error(p, task) < 1e-10

    def test_orthogonal_outputs_saturate(self):
        fp = and_pair()
        flipped = noisy_protocol_for(fp, math.pi / 2)
        mu = np.zeros((2, 2))
        mu[1, 1] = 1.0  # point mass; flipped protocol outputs the wrong basis state
        task = QuantumTask(
            function_channel(fp),
            classical_state(mu, [("A_in", 2, ALICE), ("B_in", 2, BOB)]),
            2.0,
        )
        assert abs(protocol_error(flipped, task) - 2.0) < 1e-9

    def test_relay_versus_measurement_target(self):
        # Protocol: relay the qubit to Bob untouched. Target: dephase it.
        # On a maximally correlated input the protocol output stays the
        # entangled pair with the reference while the target decoheres it.
        # Oracle (dense 4x4): || Bell - dephased Bell ||_1 = 1.
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        dephased = np.diag(np.diag(bell))
        oracle = float(np.sum(np.abs(np.linalg.eigvalsh(bell - dephased))))
        assert abs(oracle - 1.0) < 1e-12

        p = relay_protocol()
        kraus = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        # channel from (A_in 2, B_in 1) to (A_fin 1, B_out 2): dephase and hand over
        ch = channel_from_kraus(
            kraus, [("A_in", 2), ("B_in", 1)], [("A_fin", 1), ("B_out", 2)]
        )
        rho = classical_state(
            np.array([[0.5], [0.5]]), [("A_in", 2, ALICE), ("B_in", 1, BOB)]
        )
        # maximally correlated classical input purifies to an entangled pair
        task = QuantumTask(ch, rho, 2.0)
        err = protocol_error(p, task)
        assert err > 0.5
        assert abs(err - oracle) < 1e-10

    def test_unitary_rotation_of_both_outputs_is_invisible(self):
        from qiclab.suite import _rotate_channel_outputs, _rotate_protocol_outputs
        from qiclab import haar_random_unitary

        fp = and_pair()
        p = noisy_protocol_for(fp, 0.4)
        ch = function_channel(fp)
        mu = np.array([[0.4, 0.1], [0.2, 0.3]])
        rho = classical_state(mu, [("A_in", 2, ALICE), ("B_in", 2, BOB)])
        base = protocol_error(p, QuantumTask(ch, rho, 2.0))
        ua, ub = haar_random_unitary(2, 1), haar_random_unitary(2, 2)
        rotated = protocol_error(
            _rotate_protocol_outputs(p, ua, ub),
            QuantumTask(_rotate_channel_outputs(ch, ua, ub), rho, 2.0),
        )
        assert abs(base - rotated) < 1e-9


class TestNfoldError:
    def test_parallel_exact_copies_pass(self):
        fp = and_pair()
        p2 = parallel_compose(exact_protocol_for(fp), exact_protocol_for(fp))
        mu = np.array([[0.3, 0.2], [0.25, 0.25]])
        task = QuantumTask(
            function_channel(fp),
            classical_state(mu, [("A_in", 2, ALICE), ("B_in", 2, BOB)]),
            0.05,
        )
        entries = nfold_error_check(p2, task, 2)
        assert len(entries) == 2
        assert all(e < 1e-10 for e in entries)

    def test_corrupted_copy_fails_alone(self):
        fp = and_pair()
        p2 = parallel_compose(
            noisy_protocol_for(fp, math.pi / 2), exact_protocol_for(fp)
        )
        mu = np.array([[0.3, 0.2], [0.25, 0.25]])
        task = QuantumTask(
            function_channel(fp),
            classical_state(mu, [("A_in", 2, ALICE), ("B_in", 2, BOB)]),
            0.1,
        )
        entries = nfold_error_check(p2, task, 2)
        assert entries[0] > task.epsilon
        assert entries[1] < 1e-10

    def test_slot_count_mismatch(self):
        fp = and_pair()
        p = exact_protocol_for(fp)
        task = QuantumTask(
            function_channel(fp),
            classical_state(np.ones((2, 2)) / 4, [("A_in", 2, ALICE), ("B_in", 2, BOB)]),
            0.1,
        )
        with pytest.raises(ValueError, match="slots"):
            nfold_error_check(p, task, 2)


class TestRenameAndInputs:
    def test_renamed_density_is_physical_identity(self):
        rho = random_input_density(random_protocol(2, 2), 3)
        renamed = rho.renamed({"Xa1": "left", "Yb1": "right"})
        assert set(renamed.system.names) == {"left", "right"}
        assert np.array_equal(renamed.matrix, rho.matrix)

    def test_renamed_protocol_round_trip(self):
        p = parallel_compose(random_protocol(6, 4), random_protocol(7, 2))
        names = sorted(p.all_names)
        mapping = {n: f"x{k}" for k, n in enumerate(names) if k % 3}
        q = p.renamed(mapping)
        assert not set(mapping) & q.all_names
        assert validate(q) == []
        back = q.renamed({v: k for k, v in mapping.items()})
        assert protocol_to_obj(back) == protocol_to_obj(p)

    def test_wrong_input_registers_rejected(self):
        p = correlated_bit_protocol()
        wrong = classical_state(np.array([0.5, 0.5]), [("other", 2, ALICE)])
        with pytest.raises(ValueError, match="input registers"):
            run(p, wrong)

    def test_max_dim_guardrail(self):
        p = random_protocol(4, 2)
        rho = random_input_density(p, 5)
        with pytest.raises(ValueError, match="max_dim"):
            run(p, rho, max_dim=4)

    def test_product_purified_input_accepted(self):
        p = parallel_compose(
            correlated_bit_protocol(), correlated_bit_protocol()
        )
        rho1 = classical_state(
            np.array([[0.5], [0.5]]), [("A_in#1", 2, ALICE), ("B_in#1", 1, BOB)]
        )
        rho2 = classical_state(
            np.array([[0.5], [0.5]]), [("A_in#2", 2, ALICE), ("B_in#2", 1, BOB)]
        )
        joint = tensor(rho1, rho2)
        assert abs(qic(p, joint) - 2.0) < 1e-8


def _hand_walk_random_protocol(
    seed,
    num_messages,
    *,
    alice_in_dims=(2,),
    bob_in_dims=(2,),
    preshared_dims=(2, 2),
    msg_dim=2,
):
    """Reference: ``random_protocol`` with its holdings tracked by hand."""
    rng = np.random.default_rng(seed)
    m = num_messages
    alice_in = tuple(Register(f"Xa{k+1}", d) for k, d in enumerate(alice_in_dims))
    bob_in = tuple(Register(f"Yb{k+1}", d) for k, d in enumerate(bob_in_dims))
    ta, tb = preshared_dims
    pres_specs = []
    if ta > 1:
        pres_specs.append(("TA", ta, ALICE))
    if tb > 1:
        pres_specs.append(("TB", tb, BOB))
    if pres_specs:
        preshared = random_state_vector(pres_specs, rng)
    else:
        preshared = StateVector(RegisterSystem((), ()), np.array([1.0], complex))

    alice_hold = list(alice_in) + [
        r for r, h in zip(preshared.system.registers, preshared.system.holders) if h is ALICE
    ]
    bob_hold = list(bob_in) + [
        r for r, h in zip(preshared.system.registers, preshared.system.holders) if h is BOB
    ]
    unitaries = []
    messages = []
    incoming = None
    alice_out = bob_out = None
    alice_scratch = bob_scratch = None
    for i in range(1, m + 2):
        hold = alice_hold if i % 2 == 1 else bob_hold
        in_regs = tuple(hold) + ((incoming,) if incoming is not None else ())
        d = int(np.prod([r.dim for r in in_regs])) if in_regs else 1
        u_mat = haar_random_unitary(d, rng)
        if i < m:
            c = msg_dim if d % msg_dim == 0 else 1
            mem = Register(f"M{i}", d // c)
            msg = Register(f"C{i}", c)
            out_regs = (mem, msg)
            messages.append((msg.name,))
            incoming = msg
            new_hold = [mem]
        elif i == m:
            c = msg_dim if d % msg_dim == 0 else 1
            rest = d // c
            d_bout = 2 if rest % 2 == 0 else 1
            out = Register("Bout", d_bout)
            scr = Register("Bscr", rest // d_bout)
            msg = Register(f"C{i}", c)
            out_regs = (out, scr, msg)
            messages.append((msg.name,))
            incoming = msg
            bob_out, bob_scratch = (out.name,), (scr.name,)
            new_hold = [out, scr]
        else:
            d_out = 2 if d % 2 == 0 else 1
            out = Register("Aout", d_out)
            scr = Register("Ascr", d // d_out)
            out_regs = (out, scr)
            alice_out, alice_scratch = (out.name,), (scr.name,)
            new_hold = [out, scr]
        unitaries.append(UnitaryOp.dense(u_mat, in_regs, out_regs))
        if i % 2 == 1:
            alice_hold = new_hold
        else:
            bob_hold = new_hold
    slots = ()
    if len(alice_in) == len(bob_in) and len(alice_in) > 1:
        slots = tuple(Slot((a.name,), (b.name,)) for a, b in zip(alice_in, bob_in))
    return ProtocolSpec(
        num_messages=m,
        preshared=preshared,
        unitaries=tuple(unitaries),
        alice_in=alice_in,
        bob_in=bob_in,
        messages=tuple(messages),
        alice_out=alice_out,
        bob_out=bob_out,
        alice_scratch=alice_scratch,
        bob_scratch=bob_scratch,
        slots=slots,
    )


@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"alice_in_dims": (2, 2), "bob_in_dims": (2, 2), "preshared_dims": (1, 1)},
        {"alice_in_dims": (4,), "bob_in_dims": (4,), "preshared_dims": (4, 4)},
        {"msg_dim": 3},
    ],
    ids=["default", "two-slot", "rates-files", "msg-dim-3"],
)
def test_random_protocol_matches_the_hand_walk(shape):
    # random_protocol builds its schedule through the shared builder; the
    # hand walk it replaced is the reference, entry for entry
    for seed in range(30):
        for m in (2, 4, 6):
            want = protocol_to_obj(_hand_walk_random_protocol(seed, m, **shape))
            assert protocol_to_obj(random_protocol(seed, m, **shape)) == want, (seed, m)
