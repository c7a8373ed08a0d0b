"""Derived protocols and their exact cost identities."""

import numpy as np
import pytest

from qiclab import (
    ALICE,
    BOB,
    ProtocolSpec,
    Register,
    UnitaryOp,
    and_average_protocol,
    and_embed_protocol,
    canonical_classical_purification,
    canonical_purification,
    classical_state,
    concavity_check,
    controlled_permutation,
    convex_mix,
    fix_input,
    parallel_compose,
    purify_input,
    qcc,
    qic,
    reduced_density,
    run,
    suffix_protocol,
    tensor,
    trace_norm,
    validate,
)
from qiclab import measures
from qiclab.constructions import _slot_routing_rows
from qiclab.fuzz import random_input_density, random_protocol

from test_measures import _component_shapes, _gram_sides
from test_protocol import correlated_bit_protocol, empty_state


def trivial_protocol():
    """A protocol whose registers all have dimension one."""
    one = Register("A_in", 1)
    bone = Register("B_in", 1)
    u1 = UnitaryOp.rename((one,), (Register("C_1", 1),))
    u2 = UnitaryOp.rename(
        (bone, Register("C_1", 1)), (Register("B_out", 1), Register("C_2", 1))
    )
    u3 = UnitaryOp.rename((Register("C_2", 1),), (Register("A_out", 1),))
    return ProtocolSpec(
        num_messages=2,
        preshared=empty_state(),
        unitaries=(u1, u2, u3),
        alice_in=(one,),
        bob_in=(bone,),
        messages=(("C_1",), ("C_2",)),
        alice_out=("A_out",),
        bob_out=("B_out",),
    )


def _loop_permutation(n, sdims, tdims, assign):
    """Reference: controlled_permutation's matrix filled one basis state at a time."""

    def digits_of(x, dims):
        out = []
        for d in reversed(dims):
            out.append(x % d)
            x //= d
        return list(reversed(out))

    def index_of(digits, dims):
        x = 0
        for g, d in zip(digits, dims):
            x = x * d + g
        return x

    d = int(np.prod(sdims, dtype=int))
    mat = np.zeros((n * d, n * d))
    for v in range(n):
        row = assign[v]
        for src in range(d):
            digits = digits_of(src, sdims)
            tgt = index_of([digits[row[t]] for t in range(len(tdims))], tdims)
            mat[v * d + tgt, v * d + src] = 1.0
    return mat


def _check_against_loop(n, sdims, tdims, assign):
    ctrl = Register("S", n)
    sources = tuple(Register(f"s{k}", x) for k, x in enumerate(sdims))
    targets = tuple(Register(f"t{k}", x) for k, x in enumerate(tdims))
    u = controlled_permutation(ctrl, sources, targets, assign)
    ref = _loop_permutation(n, list(sdims), list(tdims), assign)
    assert np.array_equal(u.stages[0].matrix, ref)


class TestControlledPermutation:
    def test_matches_loop_reference_on_random_bijections(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            sdims = rng.integers(1, 4, size=int(rng.integers(0, 5)))
            tdims = sdims[rng.permutation(sdims.size)]
            assign = []
            for _ in range(n):
                # a random bijection that sends each source to a target of its dim
                row = np.empty(sdims.size, dtype=int)
                for dim in set(sdims.tolist()):
                    row[tdims == dim] = rng.permutation(np.flatnonzero(sdims == dim))
                assign.append(row.tolist())
            _check_against_loop(n, sdims.tolist(), tdims.tolist(), assign)

    @pytest.mark.parametrize("n, dim", [(2, 2), (2, 3), (3, 2)])
    def test_matches_loop_reference_on_slot_routing(self, n, dim):
        rows = _slot_routing_rows(n)
        assert len(rows) == n and all(len(r) == 3 * n for r in rows)
        _check_against_loop(n, [dim] * (3 * n), [dim] * (3 * n), rows)

    def test_swap_under_control(self):
        ctrl = Register("S", 2)
        a, b = Register("a", 2), Register("b", 2)
        a2, b2 = Register("a2", 2), Register("b2", 2)
        u = controlled_permutation(ctrl, (a, b), (a2, b2), [[0, 1], [1, 0]])
        mat = u.matrix
        # control 0: identity block; control 1: swap block
        assert np.array_equal(mat[:4, :4], np.eye(4))
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.array_equal(mat[4:, 4:], swap)

    def test_non_bijection_rejected(self):
        ctrl = Register("S", 2)
        a, b = Register("a", 2), Register("b", 2)
        with pytest.raises(ValueError, match="bijection"):
            controlled_permutation(ctrl, (a, b), (a, b), [[0, 0], [1, 0]])


class TestParallelCompose:
    def test_every_output_validates(self):
        for s1, s2, m1, m2 in [(0, 1, 2, 2), (2, 3, 4, 2), (4, 5, 2, 4)]:
            comp = parallel_compose(random_protocol(s1, m1), random_protocol(s2, m2))
            assert validate(comp) == []
            assert comp.num_messages == max(m1, m2)

    def test_compose_with_trivial_protocol_keeps_cost(self):
        p = correlated_bit_protocol()
        comp = parallel_compose(p, trivial_protocol())
        rho = classical_state(
            np.array([[0.5], [0.5]]), [("A_in#1", 2, ALICE), ("B_in#1", 1, BOB)]
        )
        triv = classical_state(
            np.array([[1.0]]), [("A_in#2", 1, ALICE), ("B_in#2", 1, BOB)]
        )
        assert abs(qic(comp, tensor(rho, triv)) - 1.0) < 1e-9
        assert qcc(comp) == qcc(p)

    def test_two_correlated_bits_cost_two(self):
        comp = parallel_compose(correlated_bit_protocol(), correlated_bit_protocol())
        rho1 = classical_state(
            np.array([[0.5], [0.5]]), [("A_in#1", 2, ALICE), ("B_in#1", 1, BOB)]
        )
        rho2 = classical_state(
            np.array([[0.5], [0.5]]), [("A_in#2", 2, ALICE), ("B_in#2", 1, BOB)]
        )
        assert abs(qic(comp, tensor(rho1, rho2)) - 2.0) < 1e-8

    def test_additivity_on_random_instances(self):
        rng = np.random.default_rng(20)
        p1 = random_protocol(rng, 4)
        p2 = random_protocol(rng, 2)
        comp = parallel_compose(p1, p2)
        r1 = random_input_density(p1, rng)
        r2 = random_input_density(p2, rng)
        joint = tensor(
            r1.renamed({r.name: r.name + "#1" for r in p1.alice_in + p1.bob_in}),
            r2.renamed({r.name: r.name + "#2" for r in p2.alice_in + p2.bob_in}),
        )
        assert abs(qic(comp, joint) - qic(p1, r1) - qic(p2, r2)) < 1e-7

    def test_slots_follow_argument_order(self):
        comp = parallel_compose(random_protocol(0, 2), random_protocol(1, 4))
        slots = comp.input_slots
        assert slots[0].alice_in[0].endswith("#1")
        assert slots[1].alice_in[0].endswith("#2")


class TestFixInput:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        p1 = random_protocol(rng, 2)
        p2 = random_protocol(rng, 2)
        comp = parallel_compose(p1, p2)
        r1 = random_input_density(p1, rng).renamed(
            {r.name: r.name + "#1" for r in p1.alice_in + p1.bob_in}
        )
        r2 = random_input_density(p2, rng).renamed(
            {r.name: r.name + "#2" for r in p2.alice_in + p2.bob_in}
        )
        return comp, r1, r2

    def test_split_equality(self):
        comp, r1, r2 = self._setup(31)
        first = fix_input(comp, "second", r2)
        second = fix_input(comp, "first", r1)
        lhs = qic(first, r1) + qic(second, r2)
        rhs = qic(comp, tensor(r1, r2))
        assert abs(lhs - rhs) < 1e-7

    def test_purifier_handed_to_the_right_party(self):
        comp, r1, r2 = self._setup(32)
        first = fix_input(comp, "second", r2)
        second = fix_input(comp, "first", r1)
        pres1 = first.preshared.system
        ref1 = [n for n in pres1.names if n.startswith("Rfix")][0]
        assert pres1.holder_of(ref1) is ALICE
        pres2 = second.preshared.system
        ref2 = [n for n in pres2.names if n.startswith("Rfix")][0]
        assert pres2.holder_of(ref2) is BOB

    def test_pure_fixed_state_has_trivial_purifier(self):
        comp, r1, _ = self._setup(33)
        slot2 = comp.input_slots[1]
        # a basis (pure) state on the frozen slot purifies with a rank-1 reference
        regs = {r.name: r for r in comp.alice_in + comp.bob_in}
        specs = [(n, regs[n].dim, ALICE) for n in slot2.alice_in] + [
            (n, regs[n].dim, BOB) for n in slot2.bob_in
        ]
        table = np.zeros(int(np.prod([s[1] for s in specs])))
        table[0] = 1.0
        fixed = classical_state(table, specs)
        frozen = fix_input(comp, "second", fixed)
        ref = [n for n in frozen.preshared.system.names if n.startswith("Rfix")][0]
        assert frozen.preshared.system.register(ref).dim == 1
        lhs = qic(frozen, r1)
        rhs = qic(comp, tensor(r1, fixed))
        assert abs(lhs - rhs) < 1e-8

    def test_channel_equals_partial_trace_composition(self):
        comp, r1, r2 = self._setup(34)
        frozen = fix_input(comp, "second", r2)
        rho2_pure = purify_input(r2, "Rx2")
        for seed in range(5):
            probe = random_input_density(random_protocol(31, 2), seed + 200).renamed(
                {n: n + "#1" for n in ("Xa1", "Yb1")}
            )
            probe_pure = purify_input(probe, "Rp")
            keep = list(frozen.alice_out) + list(frozen.bob_out) + ["Rp"]
            o1 = reduced_density(run(frozen, probe_pure).final_state, keep)
            o2 = reduced_density(
                run(comp, tensor(probe_pure, rho2_pure)).final_state, keep
            )
            assert trace_norm(o1.matrix - o2.matrix) < 1e-9

    def test_needs_two_slots(self):
        p = random_protocol(0, 2)
        rho = random_input_density(p, 1)
        with pytest.raises(ValueError, match="two input slots"):
            fix_input(p, "second", rho)


class TestConvexMix:
    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(41)
        p1 = random_protocol(rng, 2)
        p2 = random_protocol(rng, 2)
        rho = random_input_density(p1, rng)
        probe_pure = purify_input(rho, "Rp")
        for prob, branch in ((1.0, p1), (0.0, p2)):
            mix = convex_mix(p1, p2, prob)
            assert validate(mix) == []
            keep_mix = list(mix.alice_out) + list(mix.bob_out) + ["Rp"]
            o_mix = reduced_density(run(mix, probe_pure).final_state, keep_mix)
            keep_b = list(branch.alice_out) + list(branch.bob_out) + ["Rp"]
            o_branch = reduced_density(run(branch, probe_pure).final_state, keep_b)
            assert trace_norm(o_mix.matrix - o_branch.matrix) < 1e-9
            assert abs(qic(mix, rho) - qic(branch, rho)) < 1e-8

    def test_affinity_on_classical_input(self):
        rng = np.random.default_rng(42)
        p1 = random_protocol(rng, 2)
        p2 = random_protocol(rng, 2)
        mix = convex_mix(p1, p2, 0.3)
        rho = random_input_density(p1, rng, classical=True)
        lhs = qic(mix, rho)
        rhs = 0.3 * qic(p1, rho) + 0.7 * qic(p2, rho)
        assert abs(lhs - rhs) < 1e-7

    def test_unequal_message_counts(self):
        rng = np.random.default_rng(43)
        p1 = random_protocol(rng, 2)
        p2 = random_protocol(rng, 4)
        mix = convex_mix(p1, p2, 0.75)
        assert mix.num_messages == 4
        rho = random_input_density(p1, rng)
        lhs = qic(mix, rho)
        rhs = 0.75 * qic(p1, rho) + 0.25 * qic(p2, rho)
        assert abs(lhs - rhs) < 1e-7

    def test_shape_mismatch_rejected(self):
        p1 = random_protocol(0, 2)
        p2 = random_protocol(1, 2, alice_in_dims=(4,))
        with pytest.raises(ValueError, match="shape"):
            convex_mix(p1, p2, 0.5)


class TestConcavity:
    def test_equal_states_have_zero_slack(self):
        p = random_protocol(50, 2)
        rho = random_input_density(p, 51)
        rep = concavity_check(p, rho, rho, 0.3)
        assert abs(rep.slack) < 1e-9
        assert rep.passed

    def test_degenerate_probability_has_zero_slack(self):
        p = random_protocol(52, 2)
        r1 = random_input_density(p, 53)
        r2 = random_input_density(p, 54)
        for prob in (0.0, 1.0):
            rep = concavity_check(p, r1, r2, prob)
            assert abs(rep.slack) < 1e-9

    def test_orthogonal_classical_mixture(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            p = random_protocol(rng, 2)
            specs = [(r.name, r.dim, ALICE) for r in p.alice_in] + [
                (r.name, r.dim, BOB) for r in p.bob_in
            ]
            d = int(np.prod([s[1] for s in specs]))
            t1 = np.zeros(d)
            t1[0] = 1.0
            t2 = np.zeros(d)
            t2[-1] = 1.0
            rep = concavity_check(p, classical_state(t1, specs), classical_state(t2, specs), 0.5)
            assert rep.slack >= -1e-8


class TestSlotAveraging:
    def _base(self, seed=7):
        pd = random_protocol(
            seed, 2, alice_in_dims=(2, 2), bob_in_dims=(2, 2), preshared_dims=(1, 1)
        )
        mu = np.array([[1.0, 1.0], [1.0, 0.0]]) / 3.0
        return pd, mu

    def test_message_count_preserved(self):
        pd, mu = self._base()
        pa = and_average_protocol(pd, mu, 2)
        assert pa.num_messages == pd.num_messages
        assert validate(pa) == []

    def test_point_mass_distribution_is_free(self):
        pd, _ = self._base()
        mu = np.zeros((2, 2))
        mu[0, 0] = 1.0
        pa = and_average_protocol(pd, mu, 2)
        sigma = classical_state(
            mu, [(pa.alice_in[0].name, 2, ALICE), (pa.bob_in[0].name, 2, BOB)]
        )
        assert qic(pa, sigma) < 1e-8

    def test_channel_is_uniform_average_of_embeddings(self):
        pd, mu = self._base()
        pa = and_average_protocol(pd, mu, 2)
        embeds = [and_embed_protocol(pd, mu, i) for i in (1, 2)]
        rng = np.random.default_rng(3)
        for _ in range(2):
            w = rng.random((2, 2))
            w /= w.sum()
            probe = classical_state(
                w, [(pa.alice_in[0].name, 2, ALICE), (pa.bob_in[0].name, 2, BOB)]
            )
            pp = canonical_purification(probe, "Rp")
            keep_a = list(pa.alice_out) + list(pa.bob_out) + ["Rp"]
            o_avg = reduced_density(run(pa, pp).final_state, keep_a)
            mats = []
            for e in embeds:
                probe_e = pp.renamed(
                    {
                        pa.alice_in[0].name: e.alice_in[0].name,
                        pa.bob_in[0].name: e.bob_in[0].name,
                    }
                )
                keep_e = list(e.alice_out) + list(e.bob_out) + ["Rp"]
                mats.append(reduced_density(run(e, probe_e).final_state, keep_e).matrix)
            assert trace_norm(o_avg.matrix - 0.5 * (mats[0] + mats[1])) < 1e-8

    def test_halving_identity(self):
        pd, mu = self._base()
        pa = and_average_protocol(pd, mu, 2)
        sigma = classical_state(
            mu, [(pa.alice_in[0].name, 2, ALICE), (pa.bob_in[0].name, 2, BOB)]
        )
        lhs = qic(pa, sigma)
        joint = tensor(
            canonical_classical_purification(mu, "Xa1", "Yb1", "Rc1"),
            canonical_classical_purification(mu, "Xa2", "Yb2", "Rc2"),
        )
        rhs = 0.5 * qic(pd, joint)
        assert abs(lhs - rhs) < 1e-5

    def test_needs_matching_slots(self):
        pd, mu = self._base()
        with pytest.raises(ValueError, match="slots"):
            and_average_protocol(pd, mu, 3)

    @staticmethod
    def _wide(n):
        pd = random_protocol(
            np.random.default_rng(3), 2, alice_in_dims=(2,) * n, bob_in_dims=(2,) * n,
            preshared_dims=(1, 1),
        )
        return and_average_protocol(pd, np.array([[1.0, 1.0], [1.0, 0.0]]) / 3.0, n)

    def test_three_slot_halving_identity(self, monkeypatch):
        # QIC(avg_3, mu) = QIC(pd, mu^{x3}) / 3; every Gram matrix of the
        # 5,159,780,352-dimensional steps is one direct-sum block's
        pd = random_protocol(
            3, 2, alice_in_dims=(2,) * 3, bob_in_dims=(2,) * 3, preshared_dims=(1, 1)
        )
        _, mu = self._base()
        pa = and_average_protocol(pd, mu, 3)
        sigma = classical_state(
            mu, [(pa.alice_in[0].name, 2, ALICE), (pa.bob_in[0].name, 2, BOB)]
        )
        sides = _gram_sides(monkeypatch)
        calls = []
        kernel = measures._pure_subsystem_spectrum

        def spy(state, subsystem):
            before = len(sides)
            w = kernel(state, subsystem)
            largest = max((min(s) for s in _component_shapes(state, subsystem)), default=0)
            calls.append((max(sides[before:], default=0), largest))
            return w

        monkeypatch.setattr(measures, "_pure_subsystem_spectrum", spy)
        lhs = qic(pa, sigma, max_dim=2**62)
        assert calls and all(side == largest for side, largest in calls)
        assert max(side for side, _ in calls) <= 144  # of matrices up to 4536 x 2592, 3024 x 9072
        c1, c2, c3 = (
            canonical_classical_purification(mu, f"Xa{i}", f"Yb{i}", f"Rc{i}") for i in (1, 2, 3)
        )
        rhs = qic(pd, tensor(tensor(c1, c2), c3)) / 3
        assert abs(lhs - rhs) < 1e-5

    def test_three_slots_run_on_their_supports(self):
        # 5,159,780,352 amplitudes globally; the routers move only the support
        pa = self._wide(3)
        sigma = classical_state(
            np.array([[1.0, 1.0], [1.0, 0.0]]) / 3.0,
            [(pa.alice_in[0].name, 2, ALICE), (pa.bob_in[0].name, 2, BOB)],
        )
        steps = run(pa, sigma, max_dim=2**62).steps
        assert [s._nonzeros() for s in steps] == [52488, 419904]

    def test_four_slot_routers_keep_index_maps(self):
        pa = self._wide(4)
        for p in (pa, suffix_protocol(pa, "~")):
            for u in p.unitaries[:2]:
                router = u.stages[0]
                assert router.dim == 4 * 2**12
                assert router.perm is not None and "matrix" not in router.__dict__
