"""The per-trajectory entropy ledger against direct per-step evaluation."""

import dataclasses
import gc
import weakref

import pytest

from qiclab import (
    ALICE,
    BOB,
    DEFAULT_MAX_DIM,
    ProtocolValidationError,
    compression_budget,
    cond_mutual_info,
    message_entropies,
    protocol_step_rates,
    qic_terms,
    redist_rates,
    run,
    validate,
)
from qiclab import measures, protocol
from qiclab.fuzz import random_input_density, random_protocol

SEEDS = range(30)


def _instance(seed):
    p = random_protocol(seed, 4 if seed % 2 == 0 else 6)
    return p, random_input_density(p, seed + 1000)


def _reused_names(p):
    """The same protocol with each party's memory and every message under
    one name, so a register set can name different contents at different
    steps and a stale ledger entry would be found."""
    m = p.num_messages
    mapping = {f"M{i}": "MA" if i % 2 else "MB" for i in range(1, m)}
    mapping.update({f"C{i}": "C" for i in range(1, m + 1)})
    q = p.renamed(mapping)
    assert validate(q) == []
    return q


def _step_groups(p, st, i):
    """(sender holding, receiver holding, message block, reference) at step i."""
    sender, receiver = (ALICE, BOB) if i % 2 == 1 else (BOB, ALICE)
    return (
        st.system.held_by(sender),
        st.system.held_by(receiver),
        p.messages[i - 1],
        st.system.reference_names,
    )


@pytest.mark.parametrize("reuse", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_matches_direct_evaluation(seed, reuse):
    p, rho = _instance(seed)
    if reuse:
        p = _reused_names(p)
    terms = qic_terms(p, rho)
    rates = protocol_step_rates(p, rho)
    budget = compression_budget(p, rho, 0.05)
    steps = run(p, rho).steps
    assert len(terms) == len(rates) == len(steps) == p.num_messages
    share = 0.05 / (2 * p.num_messages)
    for i, st in enumerate(steps, start=1):
        a, b, c, r = _step_groups(p, st, i)
        direct = 0.5 * cond_mutual_info(st, c, r, b)
        assert abs(terms[i - 1] - direct) < 1e-12
        ref = redist_rates(st, a=a, b=b, c=c, r=r)
        got = rates[i - 1]
        assert abs(got.q_min - ref.q_min) < 1e-12
        assert abs(got.e_net - ref.e_net) < 1e-12
        assert abs(got.h_c_given_b - ref.h_c_given_b) < 1e-12
        per = budget.per_message[i - 1]
        assert per.index == i
        assert abs(per.q - ref.q_min - share) < 1e-12
        assert abs(per.f - max(0.0, ref.e_net) - share) < 1e-12


@pytest.fixture
def entropy_calls(monkeypatch):
    """Count calls of ``measures.entropy`` wherever the package binds it."""
    calls = []
    original = measures.entropy

    def counting(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("subsystem"))
        return original(*args, **kwargs)

    monkeypatch.setattr(measures, "entropy", counting)
    monkeypatch.setattr(protocol, "entropy", counting)
    return calls


@pytest.mark.parametrize("num_messages", [2, 4, 6])
def test_two_new_spectra_per_message_after_the_first(entropy_calls, num_messages):
    for seed in range(5):
        p = random_protocol(seed, num_messages)
        rho = random_input_density(p, seed + 1000)
        entropy_calls.clear()
        qic_terms(p, rho)
        assert len(entropy_calls) == 4 + 2 * (num_messages - 1)


def test_ledger_rows_reuse_the_previous_step():
    p, rho = _instance(0)
    rows = message_entropies(p, rho)
    for prev, row in zip(rows, rows[1:]):
        # the receiver of message i+1 holds what the sender of message i kept
        assert row.h_b == prev.h_crb
        assert row.h_rb == prev.h_cb
    steps = run(p, rho).steps
    for i, (row, st) in enumerate(zip(rows, steps), start=1):
        _, b, c, r = _step_groups(p, st, i)
        for got, groups in (
            (row.h_cb, (c, b)),
            (row.h_rb, (r, b)),
            (row.h_b, (b,)),
            (row.h_crb, (c, r, b)),
        ):
            names = [n for g in groups for n in g]
            assert abs(got - measures.entropy(st, names)) < 1e-12


@pytest.fixture
def run_calls(monkeypatch):
    """Count the walks of a protocol's schedule (``protocol._walk``), which
    ``run`` and every ledger call start."""
    calls = []
    original = protocol._walk

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "_walk", counting)
    return calls


def test_the_ledger_stops_after_the_last_message(monkeypatch):
    applied = []
    original = protocol.apply_unitary

    def counting(state, u, **kwargs):
        applied.append(u)
        return original(state, u, **kwargs)

    monkeypatch.setattr(protocol, "apply_unitary", counting)
    p, rho = _instance(13)
    m = p.num_messages
    message_entropies(p, rho)
    assert len(applied) == m and all(a is u for a, u in zip(applied, p.unitaries))
    applied.clear()
    run(p, rho)
    assert len(applied) == m + 1 and all(a is u for a, u in zip(applied, p.unitaries))


@pytest.mark.parametrize("case", ["max_dim", "not a state", "no messages"])
def test_the_walk_refuses_at_the_call(case):
    p, rho = _instance(14)
    args, error, message = {
        "max_dim": ((p, rho, 1), ValueError, "exceeds max_dim=1"),
        "not a state": ((p, rho.matrix, DEFAULT_MAX_DIM), TypeError, "cannot run a protocol on ndarray"),
        "no messages": (
            (dataclasses.replace(p, num_messages=0, messages=()), rho, DEFAULT_MAX_DIM),
            ProtocolValidationError,
            "positive even number of messages, got 0",
        ),
    }[case]
    # the walk is never iterated: the refusal comes when it is started
    with pytest.raises(error, match=message):
        protocol._walk(*args)
    with pytest.raises(error, match=message):
        qic_terms(args[0], args[1], max_dim=args[2])


class TestLastLedgerMemo:
    """``message_entropies`` remembers its last (protocol, input) result."""

    def test_three_views_of_one_pair_run_once(self, run_calls):
        p, rho = _instance(3)
        terms = qic_terms(p, rho)
        rates = protocol_step_rates(p, rho)
        budget = compression_budget(p, rho, 0.05)
        assert len(run_calls) == 1
        fresh = _instance(3)
        assert terms == qic_terms(*fresh)
        assert rates == protocol_step_rates(*fresh)
        assert budget == compression_budget(*fresh, 0.05)
        assert len(run_calls) == 2

    def test_any_other_call_runs_again(self, run_calls):
        p, rho = _instance(4)
        dim = run(p, rho).final_state.system.total_dim
        run_calls.clear()
        qic_terms(p, rho)
        qic_terms(p, rho, max_dim=dim)
        qic_terms(dataclasses.replace(p), rho)
        qic_terms(p, rho.renamed({}))
        qic_terms(p, random_input_density(p, 7))
        qic_terms(p, rho)
        assert len(run_calls) == 6

    def test_refused_call_stores_nothing(self, run_calls):
        p, rho = _instance(6)
        for _ in range(2):
            with pytest.raises(ValueError, match="max_dim"):
                qic_terms(p, rho, max_dim=1)
        terms = qic_terms(p, rho)
        assert len(run_calls) == 3
        assert qic_terms(p, rho) == terms
        assert len(run_calls) == 3

    def test_returned_list_is_the_callers(self):
        p, rho = _instance(8)
        rows = message_entropies(p, rho)
        kept = list(rows)
        rows.clear()
        assert message_entropies(p, rho) == kept

    def test_memo_keeps_no_object_alive(self):
        p, rho = _instance(9)
        qic_terms(p, rho)
        refs = weakref.ref(p), weakref.ref(rho)
        del p, rho
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_spec_built_from_lists_cannot_change_under_the_memo(self):
        p, rho = _instance(11)
        pl = dataclasses.replace(
            p, unitaries=list(p.unitaries), messages=[list(b) for b in p.messages]
        )
        terms = qic_terms(pl, rho)
        assert terms == qic_terms(p, rho)
        with pytest.raises(TypeError):
            pl.unitaries[0] = random_protocol(12, 4).unitaries[0]
        with pytest.raises(TypeError):
            pl.messages[0][0] = "C2"
        assert isinstance(pl.unitaries, tuple) and isinstance(pl.messages[0], tuple)

    def test_memoized_inputs_are_read_only(self):
        p, rho = _instance(10)
        arrays = [rho.matrix, p.preshared.amplitudes]
        arrays += [st.matrix for u in p.unitaries for st in u.stages]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0
