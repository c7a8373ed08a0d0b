"""Command-line interface: subcommands, report formats, exit codes."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiclab import ALICE, BOB, and_pair, classical_state, save
from qiclab.cli import main
from qiclab.classical import exact_protocol_for
from qiclab.fuzz import (
    random_classical_protocol,
    random_input_density,
    random_protocol,
    random_state_vector,
)


@pytest.fixture
def files(tmp_path):
    p = random_protocol(3, 2)
    save(p, tmp_path / "proto.json")
    save(random_input_density(p, 4, classical=True), tmp_path / "state.json")
    save(random_protocol(5, 2), tmp_path / "proto2.json")
    save(and_pair(), tmp_path / "and.json")
    save(exact_protocol_for(and_pair()), tmp_path / "exact.json")
    save(
        classical_state(
            np.array([[0.3, 0.2], [0.25, 0.25]]), [("A_in", 2, ALICE), ("B_in", 2, BOB)]
        ),
        tmp_path / "mu.json",
    )
    save(random_classical_protocol(9, 2), tmp_path / "cp.json")
    save(
        random_state_vector(
            [("A", 2, ALICE), ("B", 2, BOB), ("C", 2, ALICE), ("R", 2, ALICE)], 11
        ),
        tmp_path / "pure4.json",
    )
    return tmp_path


def test_validate_ok(files, capsys):
    assert main(["validate", str(files / "proto.json")]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_findings(files, tmp_path, capsys):
    obj = json.loads((files / "proto.json").read_text())
    obj["num_messages"] = 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["validate", str(bad)]) == 1
    assert "finding" in capsys.readouterr().out


def test_qcc_qic_run(files, capsys):
    assert main(["qcc", str(files / "proto.json")]) == 0
    assert main(["qic", str(files / "proto.json"), str(files / "state.json")]) == 0
    out = files / "out.json"
    assert (
        main(["run", str(files / "proto.json"), str(files / "state.json"), "--out", str(out)])
        == 0
    )
    assert out.exists()
    text = capsys.readouterr().out
    assert "qic_qubits" in text and "output_trace" in text


def test_error_exit_codes(files):
    ok = main(
        [
            "error",
            str(files / "exact.json"),
            str(files / "mu.json"),
            str(files / "and.json"),
            "--epsilon",
            "0.1",
        ]
    )
    assert ok == 0


def test_compose_mix_fix(files, capsys):
    comp = files / "comp.json"
    assert (
        main(["compose", str(files / "proto.json"), str(files / "proto2.json"), "--out", str(comp)])
        == 0
    )
    assert main(["validate", str(comp)]) == 0
    mix = files / "mix.json"
    assert (
        main(
            [
                "mix",
                str(files / "proto.json"),
                str(files / "proto2.json"),
                "--prob",
                "0.25",
                "--out",
                str(mix),
            ]
        )
        == 0
    )
    assert main(["validate", str(mix)]) == 0


def test_concavity(files, capsys):
    code = main(
        [
            "concavity",
            str(files / "proto.json"),
            str(files / "state.json"),
            str(files / "state.json"),
            "--prob",
            "0.5",
        ]
    )
    assert code == 0
    assert "slack" in capsys.readouterr().out


def test_ic_commands(files, capsys):
    assert main(["ic", str(files / "cp.json"), str(files / "mu.json")]) == 0
    assert main(["ic-prime", str(files / "cp.json"), str(files / "mu.json")]) == 0
    assert "information_cost_bits" in capsys.readouterr().out
    argv = ["--report", "structured", "ic", str(files / "cp.json"), str(files / "mu.json")]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["transcript_max_bits"] == record["transcript_average_bits"] > 0


def test_failure_prob(files, capsys):
    assert (
        main(
            [
                "failure-prob",
                str(files / "exact.json"),
                str(files / "and.json"),
                str(files / "mu.json"),
            ]
        )
        == 0
    )
    assert "failure_probability = 0.0" in capsys.readouterr().out


def test_redist_rates(files, capsys):
    code = main(
        ["redist-rates", str(files / "pure4.json"), "--a=A", "--b=B", "--c=C", "--r=R"]
    )
    assert code == 0
    assert "q_min" in capsys.readouterr().out


def test_budget(files, capsys):
    code = main(
        ["budget", str(files / "proto.json"), str(files / "state.json"), "--delta", "0.01"]
    )
    assert code == 0
    assert "total_rate" in capsys.readouterr().out


def test_suite_selection_and_determinism(capsys):
    argv = ["--report", "structured", "suite", "--checks", "known-values", "--seed", "11"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    first.pop("runtime_ms")
    second.pop("runtime_ms")
    assert first == second  # outcomes are replayable; only wall time varies
    assert first["status"] == "pass"
    assert first["check_id"] == "known-values"
    assert "seed" in first and "anchor" in first


def test_suite_corrupted_tolerance_fails(capsys):
    argv = [
        "suite",
        "--checks",
        "known-values",
        "--set-tol",
        "known-values=1e-20",
    ]
    assert main(argv) == 1
    assert "fail" in capsys.readouterr().out


def test_suite_unknown_check(capsys):
    assert main(["suite", "--checks", "nonsense"]) == 2


def test_suite_list(capsys):
    assert main(["suite", "--list"]) == 0
    out = capsys.readouterr().out
    assert "known-values" in out and "qic-sandwich" in out


def test_missing_file(tmp_path, capsys):
    assert main(["qcc", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_nfold_error(files, tmp_path):
    from qiclab import parallel_compose

    p2 = parallel_compose(
        exact_protocol_for(and_pair()), exact_protocol_for(and_pair())
    )
    save(p2, tmp_path / "p2.json")
    code = main(
        [
            "nfold-error",
            str(tmp_path / "p2.json"),
            str(files / "mu.json"),
            str(files / "and.json"),
            "--copies",
            "2",
            "--epsilon",
            "0.05",
        ]
    )
    assert code == 0


def test_non_finite_state_file_exits_with_message(files, tmp_path, capsys):
    # the finiteness gate runs before the norm and the trace, so no NaN
    # reaches a division and no RuntimeWarning precedes the message
    obj = json.loads((files / "pure4.json").read_text())
    obj["amplitudes"][0] = [float("nan"), 0.0]
    bad = tmp_path / "nan_vector.json"
    bad.write_text(json.dumps(obj))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["redist-rates", str(bad), "--a=A", "--b=B", "--c=C", "--r=R"])
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "amplitude vector has non-finite entries" in capsys.readouterr().err
    obj = json.loads((files / "state.json").read_text())
    obj["matrix"][0][0] = [float("nan"), 0.0]
    bad = tmp_path / "nan_density.json"
    bad.write_text(json.dumps(obj))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["qic", str(files / "proto.json"), str(bad)])
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "density matrix has non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, path, value, field",
    [
        ("proto.json", ("messages",), [5, 6], "messages[0]"),
        ("proto.json", ("unitaries", 0), 3, "unitaries[0]"),
        ("proto.json", ("slots",), [3], "slots[0]"),
        ("proto.json", ("unitaries", 0, "stages", 0, "in"), 7, "stages[0].in"),
        ("proto.json", ("alice_in", 0, "dim"), [2], "alice_in[0].dim"),
        ("proto.json", ("alice_in", 0, "dim"), 2.5, "alice_in[0].dim"),
        ("proto.json", ("preshared",), 3, "preshared"),
        ("proto.json", ("preshared", "registers", 0, "holder"), ["bob"], "holder"),
        ("state.json", ("classical",), "false", "classical"),
        ("cp.json", ("x_size",), None, "x_size"),
        ("proto.json", ("alice_in", 0, "name"), 5, "alice_in[0].name"),
        ("proto.json", ("alice_out",), [["A"]], "alice_out[0]"),
        ("state.json", ("matrix", 0, 0), [10**400, 0], "matrix[0][0]"),
        ("cp.json", ("r_probs",), ["0.75", "0.25"], "r_probs[0]"),
        ("and.json", ("f_a", 1, 1), 1.9, "f_a[1][1]"),
        ("cp.json", ("kernels", 0, 0, 0, 0), float("nan"), "kernel 1"),
    ],
)
def test_malformed_file_exits_2_naming_the_field(
    files, tmp_path, capsys, name, path, value, field
):
    obj = json.loads((files / name).read_text())
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    argv = {
        "proto.json": ["validate", str(bad)],
        "state.json": ["qic", str(files / "proto.json"), str(bad)],
        "cp.json": ["ic", str(bad), str(files / "mu.json")],
        "and.json": ["failure-prob", str(files / "exact.json"), str(bad), str(files / "mu.json")],
    }[name]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize(
    "content",
    [b"[" * 200_000, b'{"type": "\xff"}', b'{"type": "state", "n": ' + b"1" * 5000 + b"}"],
    ids=["deep-nesting", "not-utf8", "digit-limit"],
)
def test_unparseable_file_exits_2_naming_the_path(files, tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["qic", str(files / "proto.json"), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and err.count("\n") == 1


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    p = random_protocol(3, 2)
    save(p, root / "proto.json")
    save(random_input_density(p, 4, classical=True), root / "state.json")
    save(random_state_vector([("A", 2, ALICE), ("B", 2, BOB), ("C", 2, ALICE), ("R", 2, ALICE)], 11),
         root / "pure4.json")
    save(random_classical_protocol(9, 2), root / "cp.json")
    save(and_pair(), root / "and.json")
    save(exact_protocol_for(and_pair()), root / "exact.json")
    save(
        classical_state(np.array([[0.3, 0.2], [0.25, 0.25]]), [("A_in", 2, ALICE), ("B_in", 2, BOB)]),
        root / "mu.json",
    )
    return root


def _numeric_leaves(obj, path=()):
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _numeric_leaves(v, (*path, k))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["state.json", "pure4.json", "proto.json", "cp.json", "and.json"]),
    st.data(),
    st.sampled_from(["0.5", None, [1.0], 10**400, float("nan")]),
)
def test_any_bad_numeric_leaf_exits_2_with_one_error_line(valid_files, name, data, value):
    obj = json.loads((valid_files / name).read_text())
    path = data.draw(st.sampled_from(list(_numeric_leaves(obj))))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, err = _run_on(valid_files, name, obj)
    assert code == 2, (path, value)
    assert err.startswith("error: ") and err.count("\n") == 1


def _run_on(valid_files, name, obj):
    """Write ``obj`` as a bad copy of file ``name`` and run the CLI command
    that reads it; returns the exit code and standard error."""
    bad = valid_files / f"bad_{name}"
    bad.write_text(json.dumps(obj))
    f = {n: str(valid_files / n) for n in ("proto.json", "state.json", "mu.json", "exact.json")}
    argv = {
        "state.json": ["qic", f["proto.json"], str(bad)],
        "pure4.json": ["redist-rates", str(bad), "--a=A", "--b=B", "--c=C", "--r=R"],
        "proto.json": ["qic", str(bad), f["state.json"]],
        "cp.json": ["ic", str(bad), f["mu.json"]],
        "and.json": ["failure-prob", f["exact.json"], str(bad), f["mu.json"]],
    }[name]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _numeric(x):
    return isinstance(x, (int, float)) or (isinstance(x, list) and all(map(_numeric, x)))


def _structural_mutations(obj, path=()):
    """Every key drop, list/object swap and wrong-typed string leaf of ``obj``.

    A numeric array (amplitudes, a matrix, kernels) is swapped whole; its
    leaves are the numeric-leaf test's domain.
    """
    if isinstance(obj, str):
        yield ("retype", path)
    elif isinstance(obj, (dict, list)):
        yield ("swap", path)
        if isinstance(obj, dict):
            for k in obj:
                yield ("drop", (*path, k))
        if not _numeric(obj):
            for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
                yield from _structural_mutations(v, (*path, k))


# keys a file may omit: a missing holder reads as reference, a missing
# ``classical`` as false and missing ``slots`` as none
OPTIONAL_KEYS = ("slots", "classical", "holder")


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["state.json", "pure4.json", "proto.json", "cp.json", "and.json"]),
    st.data(),
    st.sampled_from([5, None, True, ["x"], {"x": 1}]),
)
def test_any_structural_mutation_exits_2_with_one_error_line(valid_files, name, data, value):
    obj = json.loads((valid_files / name).read_text())
    kind, path = data.draw(st.sampled_from(list(_structural_mutations(obj))))
    if not path:
        obj = list(obj.values())
    else:
        target = obj
        for key in path[:-1]:
            target = target[key]
        node = target[path[-1]]
        if kind == "drop":
            del target[path[-1]]
        elif kind == "retype":
            target[path[-1]] = value
        elif isinstance(node, dict):
            target[path[-1]] = list(node.values())
        else:
            target[path[-1]] = {str(i): x for i, x in enumerate(node)}
    code, err = _run_on(valid_files, name, obj)
    if kind == "drop" and path[-1] in OPTIONAL_KEYS and code == 0:
        return
    assert code == 2, (kind, path, value)
    assert err.startswith("error: ") and err.count("\n") == 1
