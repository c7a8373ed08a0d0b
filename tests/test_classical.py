"""Function channels, failure probability, classical information cost."""

import math

import numpy as np
import pytest

from qiclab import (
    ALICE,
    BOB,
    ClassicalProtocol,
    QuantumTask,
    RegisterSystem,
    StateVector,
    and_pair,
    classical_cc,
    classical_ic,
    classical_ic_prime,
    classical_state,
    disjointness_pair,
    exact_protocol_for,
    failure_probability,
    function_channel,
    joint_distribution,
    measurement_channel,
    noisy_protocol_for,
    permute,
    protocol_error,
    validate,
)
from qiclab.fuzz import random_classical_protocol, random_distribution


class TestFunctionChannel:
    def test_and_on_one_one(self):
        ch = function_channel(and_pair())
        amps = np.zeros(4, dtype=complex)
        amps[3] = 1.0  # |x=1, y=1>
        st = StateVector(RegisterSystem.make([("A_in", 2, ALICE), ("B_in", 2, BOB)]), amps)
        out = ch.apply(st)
        z = int(np.argmax(np.diag(out.matrix).real))
        assert divmod(z, 2) == (1, 1)

    def test_disjointness_intersecting_strings(self):
        fp = disjointness_pair(2)
        # x = 01, y = 01 intersect, so both outputs are NOT(1) = 0
        assert fp.f_a[0b01, 0b01] == 0
        assert fp.f_b[0b01, 0b01] == 0
        # x = 10, y = 01 are disjoint
        assert fp.f_a[0b10, 0b01] == 1

    def test_constant_function_ignores_input(self):
        from qiclab import ClassicalFunctionPair

        fp = ClassicalFunctionPair(np.ones((2, 2), dtype=int), np.zeros((2, 2), dtype=int), 2, 2)
        ch = function_channel(fp)
        outs = []
        for x in range(2):
            for y in range(2):
                amps = np.zeros(4, dtype=complex)
                amps[x * 2 + y] = 1.0
                st = StateVector(
                    RegisterSystem.make([("A_in", 2, ALICE), ("B_in", 2, BOB)]), amps
                )
                from qiclab import reduced_density

                outs.append(reduced_density(ch.apply(st), ["A_out", "B_out"]).matrix)
        for o in outs[1:]:
            assert np.allclose(o, outs[0])

    def test_partial_table_rejected(self):
        from qiclab import ClassicalFunctionPair

        # out of range; fractional (a cast would truncate 1.9 to 1); NaN
        for f_a in ([[0, 2], [0, 1]], [[0, 0], [0, 1.9]], [[0, 0], [0, np.nan]]):
            with pytest.raises(ValueError):
                ClassicalFunctionPair(np.array(f_a), np.zeros((2, 2), dtype=int), 2, 2)

    def test_measured_output_form(self):
        # channel + canonical purification -> averaged basis outputs tagged by
        # the reference, exactly
        from qiclab import canonical_classical_purification

        fp = and_pair()
        mu = np.array([[0.4, 0.3], [0.2, 0.1]])
        pure = canonical_classical_purification(mu)
        ch = function_channel(fp)
        out = measurement_channel(ch.apply(pure), "R")
        got = permute(out, ["A_out", "B_out", "R"]).matrix
        s = 4  # full support
        want = np.zeros((4 * s, 4 * s), dtype=complex)
        for k, (x, y) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            z = (fp.f_a[x, y] * 2 + fp.f_b[x, y]) * s + k
            want[z, z] = mu[x, y]
        assert np.max(np.abs(got - want)) < 1e-14


def _loop_counter_permutation(fp, outputs_first):
    """Reference: the counter permutation filled entry by entry."""
    x, y, a, b = fp.x_size, fp.y_size, fp.a_size, fp.b_size
    mat = np.zeros((x * y * a * b,) * 2)
    for xi in range(x):
        for yi in range(y):
            for ai in range(a):
                for bi in range(b):
                    src = ((xi * y + yi) * a + ai) * b + bi
                    ao = (ai + int(fp.f_a[xi, yi])) % a
                    bo = (bi + int(fp.f_b[xi, yi])) % b
                    if outputs_first:
                        dst = ((ao * b + bo) * x + xi) * y + yi
                    else:
                        dst = ((xi * y + yi) * a + ao) * b + bo
                    mat[dst, src] = 1.0
    return mat


@pytest.mark.parametrize("seed", range(6))
def test_permutation_builders_match_loop_reference(seed):
    from qiclab import ClassicalFunctionPair

    rng = np.random.default_rng(seed)
    x, y, a, b = (int(v) for v in rng.integers(1, 5, 4))
    fp = ClassicalFunctionPair(rng.integers(0, a, (x, y)), rng.integers(0, b, (x, y)), a, b)
    dilation = function_channel(fp).dilation.stages[0].matrix
    assert np.array_equal(dilation, _loop_counter_permutation(fp, True))
    compute = exact_protocol_for(fp).unitaries[1].stages[0].matrix
    assert np.array_equal(compute, _loop_counter_permutation(fp, False))


class TestFailureProbability:
    def test_exact_protocol_never_fails(self):
        fp = and_pair()
        p = exact_protocol_for(fp)
        assert validate(p) == []
        mu = random_distribution((2, 2), 0)
        assert failure_probability(p, fp, mu) == 0.0

    def test_wrong_constant_under_point_mass(self):
        fp = and_pair()
        p = noisy_protocol_for(fp, math.pi / 2)  # deterministic flip of both outputs
        mu = np.zeros((2, 2))
        mu[1, 1] = 1.0
        assert abs(failure_probability(p, fp, mu) - 1.0) < 1e-12

    def test_bounded_by_half_the_error(self):
        fp = and_pair()
        rng = np.random.default_rng(5)
        for _ in range(10):
            angle = float(rng.random())
            p = noisy_protocol_for(fp, angle)
            mu = random_distribution((2, 2), rng)
            task = QuantumTask(
                function_channel(fp),
                classical_state(mu, [("A_in", 2, ALICE), ("B_in", 2, BOB)]),
                2.0,
            )
            fail = failure_probability(p, fp, mu)
            err = protocol_error(p, task)
            assert fail <= err / 2.0 + 1e-9

    def test_disjointness_protocol(self):
        fp = disjointness_pair(2)
        p = exact_protocol_for(fp)
        mu = random_distribution((4, 4), 1)
        assert failure_probability(p, fp, mu) < 1e-12


class TestClassicalInformationCost:
    def test_silent_protocol_costs_nothing(self):
        cp = ClassicalProtocol(2, 2, np.array([1.0]), (np.ones((2, 1, 1)),))
        mu = random_distribution((2, 2), 2)
        assert abs(classical_ic(cp, mu)) < 1e-12
        assert abs(classical_ic_prime(cp, mu)) < 1e-12

    def test_verbatim_message_costs_one_bit(self):
        # Alice sends X itself; X uniform on {0,1}, Y fixed
        cp = ClassicalProtocol(2, 1, np.array([1.0]), (np.eye(2).reshape(2, 1, 2),))
        mu = np.array([[0.5], [0.5]])
        assert abs(classical_ic(cp, mu) - 1.0) < 1e-12
        assert abs(classical_ic_prime(cp, mu) - 1.0) < 1e-12

    def test_rewriting_matches_on_random_protocols(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cp = random_classical_protocol(rng, int(rng.integers(1, 5)))
            mu = random_distribution((2, 2), rng)
            assert abs(classical_ic(cp, mu) - classical_ic_prime(cp, mu)) < 1e-10

    def test_randomness_distribution_is_free_when_ignored(self):
        # kernels constant in the randomness axis
        k1 = np.zeros((2, 2, 2))
        k1[0, :, 0] = 1.0
        k1[1, :, 1] = 1.0
        mu = random_distribution((2, 2), 4)
        cp_a = ClassicalProtocol(2, 2, np.array([0.5, 0.5]), (k1,))
        cp_b = ClassicalProtocol(2, 2, np.array([0.9, 0.1]), (k1,))
        assert abs(classical_ic(cp_a, mu) - classical_ic(cp_b, mu)) < 1e-12

    def test_cost_bounded_by_message_alphabets(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            cp = random_classical_protocol(rng, int(rng.integers(1, 4)))
            mu = random_distribution((2, 2), rng)
            ic = classical_ic(cp, mu)
            assert -1e-12 <= ic <= sum(math.log2(s) for s in cp.message_sizes) + 1e-9

    def test_transcript_lengths(self):
        cp = random_classical_protocol(7, 3, max_alphabet=3)
        mu = random_distribution((2, 2), 8)
        expected = sum(math.ceil(math.log2(s)) for s in cp.message_sizes)
        assert classical_cc(cp, mu) == expected
        assert classical_cc(cp, np.zeros((2, 2))) == 0.0
        with pytest.raises(ValueError):
            classical_cc(cp, np.full((3, 2), 1 / 6))

    def test_joint_distribution_normalized(self):
        cp = random_classical_protocol(9, 4)
        mu = random_distribution((2, 2), 10)
        joint = joint_distribution(cp, mu)
        assert abs(joint.sum() - 1.0) < 1e-12

    def test_kernel_normalization_gate(self):
        bad = np.ones((2, 1, 2)) * 0.4
        with pytest.raises(ValueError, match="normalized"):
            ClassicalProtocol(2, 1, np.array([1.0]), (bad,))

    def test_table_size_guardrail(self):
        big = ClassicalProtocol(
            2,
            2,
            np.ones(1),
            tuple(
                np.ones((2 if i % 2 == 0 else 2, *([32] * i), 1, 32)) / 32
                for i in range(4)
            ),
        )
        with pytest.raises(ValueError, match="entries"):
            joint_distribution(big, np.ones((2, 2)) / 4)
