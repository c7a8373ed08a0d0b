"""Command-line interface: subcommands, report formats, exit codes."""

import json
import warnings

import numpy as np
import pytest

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
