"""Batch command-line frontend.

Subcommands operate on JSON files (see ``fileio``) and print either
human-readable text or line-delimited JSON records (``--report
structured``). Exit status: 0 on success / all checks passing, 1 when
validation findings or check failures are reported, 2 on usage or file
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .hilbert import DEFAULT_MAX_DIM, DensityOperator
from .classical import classical_cc, classical_ic, classical_ic_prime, failure_probability, function_channel
from .constructions import (
    and_average_protocol,
    concavity_check,
    convex_mix,
    fix_input,
    parallel_compose,
)
from .fileio import FileFormatError, load, load_protocol, load_state, save
from .protocol import (
    ProtocolValidationError,
    QuantumTask,
    nfold_error_check,
    protocol_error,
    qcc,
    qic,
    run,
)
from .redistribution import compression_budget, redist_rates
from .suite import CHECKS, run_suite


def _emit(record: dict, args) -> None:
    if args.report == "structured":
        print(json.dumps(record))
    else:
        for k, v in record.items():
            print(f"{k} = {v}")


def _names(arg: str) -> list[str]:
    return [n for n in arg.split(",") if n]


def _load_distribution(path, tol):
    state = load_state(path, tol=tol)
    if not isinstance(state, DensityOperator) or not state.classical:
        raise FileFormatError(f"{path}: expected a classical density state")
    if len(state.system.registers) != 2:
        raise FileFormatError(f"{path}: distribution state needs exactly two registers")
    d0, d1 = state.system.dims
    return np.real(np.diag(state.matrix)).reshape(d0, d1)


def _cmd_validate(args) -> int:
    # loading validates the schedule and raises with the findings
    try:
        load_protocol(args.protocol)
    except ProtocolValidationError as e:
        for f in e.findings:
            print(f"finding: {f}")
        return 1
    print("ok")
    return 0


def _cmd_run(args) -> int:
    p = load_protocol(args.protocol)
    state = load_state(args.state, tol=args.tol)
    traj = run(p, state, max_dim=args.max_dim)
    out = traj.output
    _emit(
        {
            "output_registers": list(out.system.names),
            "output_dims": list(out.system.dims),
            "output_trace": float(np.trace(out.matrix).real),
            "steps": len(traj.steps),
        },
        args,
    )
    if args.out:
        save(out, args.out)
    return 0


def _cmd_qcc(args) -> int:
    p = load_protocol(args.protocol)
    _emit({"qcc_qubits": qcc(p)}, args)
    return 0


def _cmd_qic(args) -> int:
    p = load_protocol(args.protocol)
    state = load_state(args.state, tol=args.tol)
    _emit({"qic_qubits": qic(p, state, max_dim=args.max_dim)}, args)
    return 0


def _task(args, p):
    fp = load(args.function_pair, expect="function_pair")
    state = load_state(args.state, tol=args.tol)
    channel = function_channel(fp)
    # name the channel legs after the protocol's input registers
    in_names = [r.name for r in p.alice_in + p.bob_in]
    if len(in_names) == 2:
        channel = channel.renamed({"A_in": in_names[0], "B_in": in_names[1]})
    return QuantumTask(channel, state, args.epsilon), fp


def _cmd_error(args) -> int:
    p = load_protocol(args.protocol)
    task, _ = _task(args, p)
    err = protocol_error(p, task, max_dim=args.max_dim)
    _emit({"error": err, "epsilon": args.epsilon, "within": err <= args.epsilon}, args)
    return 0 if err <= args.epsilon else 1


def _cmd_nfold_error(args) -> int:
    p = load_protocol(args.protocol)
    fp = load(args.function_pair, expect="function_pair")
    state = load_state(args.state, tol=args.tol)
    channel = function_channel(fp)
    task = QuantumTask(channel, state, args.epsilon)
    entries = nfold_error_check(p, task, args.copies, max_dim=args.max_dim)
    ok = all(e <= args.epsilon for e in entries)
    _emit({"entries": entries, "epsilon": args.epsilon, "within": ok}, args)
    return 0 if ok else 1


def _cmd_compose(args) -> int:
    p1 = load_protocol(args.protocol1)
    p2 = load_protocol(args.protocol2)
    comp = parallel_compose(p1, p2)
    save(comp, args.out)
    _emit({"saved": args.out, "num_messages": comp.num_messages}, args)
    return 0


def _cmd_fix_input(args) -> int:
    p = load_protocol(args.protocol)
    state = load_state(args.state, tol=args.tol)
    fixed = fix_input(p, args.side, state)
    save(fixed, args.out)
    _emit({"saved": args.out, "side": args.side}, args)
    return 0


def _cmd_mix(args) -> int:
    p1 = load_protocol(args.protocol1)
    p2 = load_protocol(args.protocol2)
    mix = convex_mix(p1, p2, args.prob)
    save(mix, args.out)
    _emit({"saved": args.out, "prob": args.prob, "num_messages": mix.num_messages}, args)
    return 0


def _cmd_concavity(args) -> int:
    p = load_protocol(args.protocol)
    rho1 = load_state(args.state1, tol=args.tol)
    rho2 = load_state(args.state2, tol=args.tol)
    rep = concavity_check(p, rho1, rho2, args.prob, max_dim=args.max_dim)
    _emit(
        {
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "slack": rep.slack,
            "passed": rep.passed,
        },
        args,
    )
    return 0 if rep.passed else 1


def _cmd_disj_and(args) -> int:
    p = load_protocol(args.protocol)
    weights = [float(x) for x in args.mu.split(",")]
    if len(weights) != 3 or any(w < 0 for w in weights) or abs(sum(weights) - 1) > 1e-9:
        raise FileFormatError(
            "--mu needs three non-negative weights for inputs 00, 01, 10 summing to 1"
        )
    mu = np.array([[weights[0], weights[1]], [weights[2], 0.0]])
    avg = and_average_protocol(p, mu, args.copies)
    save(avg, args.out)
    _emit({"saved": args.out, "copies": args.copies}, args)
    return 0


def _cmd_ic(args, prime: bool) -> int:
    cp = load(args.classical_protocol, expect="classical_protocol")
    mu = _load_distribution(args.mu, args.tol)
    value = classical_ic_prime(cp, mu) if prime else classical_ic(cp, mu)
    # fixed-length encoding: the longest transcript is also the average one
    length = classical_cc(cp, mu)
    _emit(
        {
            "information_cost_bits": value,
            "transcript_max_bits": length,
            "transcript_average_bits": length,
        },
        args,
    )
    return 0


def _cmd_failure_prob(args) -> int:
    p = load_protocol(args.protocol)
    fp = load(args.function_pair, expect="function_pair")
    mu = _load_distribution(args.mu, args.tol)
    _emit({"failure_probability": failure_probability(p, fp, mu, max_dim=args.max_dim)}, args)
    return 0


def _cmd_redist_rates(args) -> int:
    state = load_state(args.state, tol=args.tol)
    rep = redist_rates(
        state, _names(args.a), _names(args.b), _names(args.c), _names(args.r)
    )
    _emit(
        {
            "q_min": rep.q_min,
            "e_net": rep.e_net,
            "h_c_given_b": rep.h_c_given_b,
            "region": "Q > q_min with Q + E > h_c_given_b",
        },
        args,
    )
    return 0


def _cmd_budget(args) -> int:
    p = load_protocol(args.protocol)
    state = load_state(args.state, tol=args.tol)
    rep = compression_budget(p, state, args.delta, max_dim=args.max_dim)
    _emit(
        {
            "total_rate": rep.total_rate,
            "per_message": [
                {"index": m.index, "q": m.q, "f": m.f} for m in rep.per_message
            ],
        },
        args,
    )
    return 0


def _cmd_suite(args) -> int:
    selection = _names(args.checks) if args.checks else None
    tolerances = {}
    for item in args.set_tol or []:
        name, _, value = item.partition("=")
        if not value:
            raise FileFormatError(f"--set-tol expects id=value, got {item!r}")
        tolerances[name] = float(value)
    results = run_suite(selection, seed=args.seed, tolerances=tolerances)
    failed = 0
    for r in results:
        if args.report == "structured":
            print(json.dumps(r.to_json()))
        else:
            print(
                f"{r.status:4s} {r.check_id:28s} lhs={r.lhs:.9g} rhs={r.rhs:.9g} "
                f"tol={r.tolerance:g} seed={r.seed} {r.runtime_ms:.0f}ms"
            )
            if r.detail:
                print(f"     {r.check_id}: {r.detail}")
        failed += r.status != "pass"
    if args.report == "text":
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qiclab",
        description="numerical laboratory for two-party protocol information costs",
    )
    parser.add_argument(
        "--report", choices=("text", "structured"), default="text",
        help="structured prints line-delimited JSON records",
    )
    parser.add_argument(
        "--tol", type=float, default=None,
        help="validation tolerance when loading state files",
    )
    parser.add_argument(
        "--max-dim", type=int, default=DEFAULT_MAX_DIM,
        help="largest global pure-state dimension a simulation may use",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check a protocol file's schedule")
    s.add_argument("protocol")
    s.set_defaults(func=_cmd_validate)

    s = sub.add_parser("run", help="simulate a protocol on an input state")
    s.add_argument("protocol")
    s.add_argument("state")
    s.add_argument("--out", help="write the channel output state here")
    s.set_defaults(func=_cmd_run)

    s = sub.add_parser("qcc", help="communication cost in qubits")
    s.add_argument("protocol")
    s.set_defaults(func=_cmd_qcc)

    s = sub.add_parser("qic", help="information cost on an input state")
    s.add_argument("protocol")
    s.add_argument("state")
    s.set_defaults(func=_cmd_qic)

    s = sub.add_parser("error", help="trace-distance error against a function channel")
    s.add_argument("protocol")
    s.add_argument("state")
    s.add_argument("function_pair")
    s.add_argument("--epsilon", type=float, default=2.0)
    s.set_defaults(func=_cmd_error)

    s = sub.add_parser("nfold-error", help="per-copy errors of a many-slot protocol")
    s.add_argument("protocol")
    s.add_argument("state", help="single-copy input state")
    s.add_argument("function_pair")
    s.add_argument("--copies", type=int, required=True)
    s.add_argument("--epsilon", type=float, default=2.0)
    s.set_defaults(func=_cmd_nfold_error)

    s = sub.add_parser("compose", help="parallel composition of two protocols")
    s.add_argument("protocol1")
    s.add_argument("protocol2")
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_compose)

    s = sub.add_parser("fix-input", help="freeze one slot of a two-slot protocol")
    s.add_argument("protocol")
    s.add_argument("state")
    s.add_argument("--side", choices=("first", "second"), required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_fix_input)

    s = sub.add_parser("mix", help="coherent convex mixture of two protocols")
    s.add_argument("protocol1")
    s.add_argument("protocol2")
    s.add_argument("--prob", type=float, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_mix)

    s = sub.add_parser("concavity", help="input-concavity slack on two states")
    s.add_argument("protocol")
    s.add_argument("state1")
    s.add_argument("state2")
    s.add_argument("--prob", type=float, required=True)
    s.set_defaults(func=_cmd_concavity)

    s = sub.add_parser(
        "disj-and", help="average a many-slot protocol into a single-slot one"
    )
    s.add_argument("protocol")
    s.add_argument("--mu", required=True, help="weights for inputs 00,01,10")
    s.add_argument("--copies", type=int, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_disj_and)

    s = sub.add_parser("ic", help="classical information cost")
    s.add_argument("classical_protocol")
    s.add_argument("mu", help="classical density state file over the inputs")
    s.set_defaults(func=lambda a: _cmd_ic(a, prime=False))

    s = sub.add_parser("ic-prime", help="message-local classical information cost")
    s.add_argument("classical_protocol")
    s.add_argument("mu")
    s.set_defaults(func=lambda a: _cmd_ic(a, prime=True))

    s = sub.add_parser("failure-prob", help="average failure probability")
    s.add_argument("protocol")
    s.add_argument("function_pair")
    s.add_argument("mu")
    s.set_defaults(func=_cmd_failure_prob)

    s = sub.add_parser("redist-rates", help="single-shot redistribution rates")
    s.add_argument("state")
    s.add_argument("--a", required=True, help="sender-side registers (comma list)")
    s.add_argument("--b", required=True, help="receiver-side registers")
    s.add_argument("--c", required=True, help="registers changing hands")
    s.add_argument("--r", required=True, help="reference registers")
    s.set_defaults(func=_cmd_redist_rates)

    s = sub.add_parser("budget", help="per-message compression budget")
    s.add_argument("protocol")
    s.add_argument("state")
    s.add_argument("--delta", type=float, required=True)
    s.set_defaults(func=_cmd_budget)

    s = sub.add_parser("suite", help="run the verification suite")
    s.add_argument("--checks", help="comma list of check ids (default: all)")
    s.add_argument("--seed", type=int, default=2024)
    s.add_argument(
        "--set-tol", action="append", metavar="ID=VALUE",
        help="override a check tolerance",
    )
    s.add_argument("--list", action="store_true", help="list available checks")
    s.set_defaults(func=_cmd_suite)

    args = parser.parse_args(argv)
    if args.command == "suite" and args.list:
        for check_id in sorted(CHECKS):
            print(f"{check_id}: {CHECKS[check_id].anchor}")
        return 0
    try:
        return args.func(args)
    except (ValueError, KeyError) as e:  # the file, state and protocol errors are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
