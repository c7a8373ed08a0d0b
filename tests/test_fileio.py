"""File formats: round trips, schema errors, tolerance gates."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiclab import (
    ALICE,
    BOB,
    ProtocolValidationError,
    and_pair,
    classical_state,
    load,
    load_protocol,
    load_state,
    qic,
    save,
    validate,
)
from qiclab import fileio
from qiclab.fileio import FileFormatError, _complex_array_in, protocol_to_obj
from qiclab.fuzz import (
    random_classical_protocol,
    random_input_density,
    random_protocol,
    random_state_vector,
)


class TestStateRoundTrip:
    def test_vector(self, tmp_path):
        st = random_state_vector([("a", 2, ALICE), ("b", 3, BOB)], 0)
        path = tmp_path / "vec.json"
        save(st, path)
        back = load_state(path)
        assert back.system.names == st.system.names
        assert back.system.holders == st.system.holders
        assert np.max(np.abs(back.amplitudes - st.amplitudes)) < 1e-15

    def test_density_with_classical_flag(self, tmp_path):
        rho = classical_state(np.array([[0.25, 0.25], [0.5, 0.0]]), [("x", 2, ALICE), ("y", 2, BOB)])
        path = tmp_path / "rho.json"
        save(rho, path)
        back = load_state(path)
        assert back.classical
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15

    def test_trace_tolerance_gate(self, tmp_path):
        rho = classical_state(np.array([0.5, 0.5]), [("x", 2, ALICE)])
        obj = {
            "type": "state",
            "kind": "density",
            "registers": [{"name": "x", "dim": 2, "holder": "alice"}],
            "matrix": [[[0.5 + 5e-7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5 + 5e-7, 0.0]]],
        }
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match="trace"):
            load_state(path)
        back = load_state(path, tol=1e-5)
        assert abs(np.trace(back.matrix).real - 1.0) < 1e-12  # renormalized

    def test_norm_tolerance_gate(self, tmp_path):
        obj = {
            "type": "state",
            "kind": "vector",
            "registers": [{"name": "x", "dim": 2, "holder": "alice"}],
            "amplitudes": [[1.0 + 1e-6, 0.0], [0.0, 0.0]],
        }
        path = tmp_path / "vecdrift.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match="norm"):
            load_state(path)
        assert abs(load_state(path, tol=1e-5).norm - 1.0) < 1e-12

    def test_complex_entries_must_be_pairs(self, tmp_path):
        obj = {
            "type": "state",
            "kind": "vector",
            "registers": [{"name": "x", "dim": 2, "holder": "alice"}],
            "amplitudes": [1.0, 0.0],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match="re, im"):
            load_state(path)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(FileFormatError, match=str(path)):
            load(path)


class TestProtocolRoundTrip:
    def test_random_protocol(self, tmp_path):
        p = random_protocol(1, 4)
        path = tmp_path / "p.json"
        save(p, path)
        back = load_protocol(path)
        assert validate(back) == []
        assert back.num_messages == p.num_messages
        assert back.messages == p.messages
        rho = random_input_density(p, 2)
        assert abs(qic(back, rho) - qic(p, rho)) < 1e-12

    def test_staged_construction_round_trip(self, tmp_path):
        from qiclab import convex_mix

        mix = convex_mix(random_protocol(3, 2), random_protocol(4, 2), 0.4)
        path = tmp_path / "mix.json"
        save(mix, path)
        back = load_protocol(path)
        assert validate(back) == []
        rho = random_input_density(back, 5)
        assert abs(qic(back, rho) - qic(mix, rho)) < 1e-12

    def test_padded_protocol_round_trip(self, tmp_path):
        # padding rounds create and drop dimension-1 registers via stages
        from qiclab import pad_rounds

        p = pad_rounds(random_protocol(8, 2))
        path = tmp_path / "pad.json"
        save(p, path)
        back = load_protocol(path)
        assert validate(back) == []
        assert back.num_messages == p.num_messages

    @pytest.mark.parametrize("build", ["mix", "average", "exact", "pad"])
    def test_index_maps_write_as_their_dense_views(self, tmp_path, build):
        from qiclab import (
            Stage, UnitaryOp, and_average_protocol, convex_mix, exact_protocol_for, pad_rounds,
        )

        p = {
            "mix": lambda: convex_mix(random_protocol(3, 4), random_protocol(4, 2), 0.3),
            # a point mass keeps the purified copies, and so the file, small
            "average": lambda: and_average_protocol(
                random_protocol(
                    5, 2, alice_in_dims=(2, 2), bob_in_dims=(2, 2), preshared_dims=(1, 1)
                ),
                np.array([[1.0, 0.0], [0.0, 0.0]]),
                2,
            ),
            "exact": lambda: exact_protocol_for(and_pair()),
            "pad": lambda: pad_rounds(random_protocol(8, 2)),
        }[build]()
        assert any(st.perm is not None for u in p.unitaries for st in u.stages)
        dense = dataclasses.replace(
            p,
            unitaries=[
                UnitaryOp(
                    u.in_regs,
                    u.out_regs,
                    [Stage(st.matrix, st.in_names, st.out_regs) for st in u.stages],
                )
                for u in p.unitaries
            ],
        )
        assert all(st.perm is None for u in dense.unitaries for st in u.stages)
        save(p, tmp_path / "maps.json")
        save(dense, tmp_path / "dense.json")
        assert (tmp_path / "maps.json").read_bytes() == (tmp_path / "dense.json").read_bytes()

    def test_schedule_violation_reported_by_name(self, tmp_path):
        p = random_protocol(6, 2)
        obj = protocol_to_obj(p)
        # corrupt the second unitary's declared input block
        obj["unitaries"][1]["in"][0]["dim"] = 7
        path = tmp_path / "badp.json"
        path.write_text(json.dumps(obj))
        with pytest.raises((ProtocolValidationError, FileFormatError), match="U_2|stage"):
            load_protocol(path)

    def test_dense_matrix_form_accepted(self, tmp_path):
        obj = {
            "type": "protocol",
            "num_messages": 2,
            "alice_in": [{"name": "A_in", "dim": 2}],
            "bob_in": [{"name": "B_in", "dim": 1}],
            "preshared": {
                "type": "state",
                "kind": "vector",
                "registers": [],
                "amplitudes": [[1.0, 0.0]],
            },
            "unitaries": [
                {
                    "in": [{"name": "A_in", "dim": 2}],
                    "out": [{"name": "C_1", "dim": 2}],
                    "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                },
                {
                    "in": [{"name": "B_in", "dim": 1}, {"name": "C_1", "dim": 2}],
                    "out": [
                        {"name": "B_out", "dim": 2},
                        {"name": "C_2", "dim": 1},
                    ],
                    "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                },
                {
                    "in": [{"name": "C_2", "dim": 1}],
                    "out": [{"name": "A_out", "dim": 1}],
                    "matrix": [[[1, 0]]],
                },
            ],
            "messages": [["C_1"], ["C_2"]],
            "alice_out": ["A_out"],
            "bob_out": ["B_out"],
            "alice_scratch": [],
            "bob_scratch": [],
        }
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(obj))
        p = load_protocol(path)
        assert validate(p) == []


class TestClassicalObjects:
    def test_function_pair_round_trip(self, tmp_path):
        fp = and_pair()
        path = tmp_path / "fp.json"
        save(fp, path)
        back = load(path, expect="function_pair")
        assert np.array_equal(back.f_a, fp.f_a)
        assert back.a_size == 2

    def test_classical_protocol_round_trip(self, tmp_path):
        cp = random_classical_protocol(7, 3)
        path = tmp_path / "cp.json"
        save(cp, path)
        back = load(path, expect="classical_protocol")
        assert back.num_messages == cp.num_messages
        from qiclab import classical_ic
        from qiclab.fuzz import random_distribution

        mu = random_distribution((2, 2), 8)
        assert abs(classical_ic(back, mu) - classical_ic(cp, mu)) < 1e-14

    def test_type_dispatch(self, tmp_path):
        fp = and_pair()
        path = tmp_path / "fp.json"
        save(fp, path)
        with pytest.raises(FileFormatError, match="expected"):
            load(path, expect="protocol")


# ---------------------------------------------------------------------------
# The complex-array reader against the per-entry loop it replaced
# ---------------------------------------------------------------------------


def _reference_complex_in(v, where):
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) for x in v)
    ):
        raise FileFormatError(f"{where}: complex entries must be [re, im] pairs, got {v!r}")
    return complex(v[0], v[1])


def _reference_complex_array_in(lst, ndim, where):
    """The per-entry reader: one complex() per [re, im] pair."""
    if ndim == 1:
        if not isinstance(lst, list):
            raise FileFormatError(f"{where}: expected a list")
        return np.array([_reference_complex_in(v, where) for v in lst], dtype=complex)
    if not isinstance(lst, list) or not all(isinstance(r, list) for r in lst):
        raise FileFormatError(f"{where}: expected a nested list (row-major matrix)")
    return np.array(
        [[_reference_complex_in(v, f"{where}[{i}]") for v in row] for i, row in enumerate(lst)],
        dtype=complex,
    )


_PART = st.one_of(
    st.floats(allow_nan=False),  # subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2**53 + 1]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.booleans(),
)
_PAIR = st.lists(_PART, min_size=2, max_size=2)


@st.composite
def _complex_lists(draw):
    ndim = draw(st.sampled_from([1, 2]))
    shape = draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim))
    if ndim == 1:
        return ndim, [draw(_PAIR) for _ in range(shape[0])]
    return ndim, [[draw(_PAIR) for _ in range(shape[1])] for _ in range(shape[0])]


def _same_bits(a, b):
    return a.dtype == b.dtype == complex and a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


class TestComplexArrayReader:
    @settings(max_examples=300, deadline=None)
    @given(_complex_lists())
    def test_matches_per_entry_reader_bit_for_bit(self, case):
        ndim, lst = case
        new = _complex_array_in(lst, ndim, "m")
        assert _same_bits(new, _reference_complex_array_in(lst, ndim, "m"))

    @settings(max_examples=200, deadline=None)
    @given(
        _complex_lists(),
        st.data(),
        st.sampled_from(
            ["0.5", None, [1.0, 0.0, 0.0], [1.0], 1.5, {"re": 1.0}, ["1", 0], [None, 0], [[1, 0], 0]]
        ),
    )
    def test_malformed_entry_rejected_by_both_readers(self, case, data, bad):
        ndim, lst = case
        if ndim == 1:
            k = data.draw(st.integers(0, len(lst) - 1))
            lst[k] = bad
            at = f"m[{k}]"
        else:
            i = data.draw(st.integers(0, len(lst) - 1))
            j = data.draw(st.integers(0, len(lst[0]) - 1))
            lst[i][j] = bad
            at = f"m[{i}][{j}]"
        with pytest.raises(FileFormatError):
            _reference_complex_array_in(lst, ndim, "m")
        with pytest.raises(FileFormatError, match="re, im") as e:
            _complex_array_in(lst, ndim, "m")
        assert str(e.value).startswith(f"{at}: ")

    @pytest.mark.parametrize(
        "lst, ndim, where",
        [
            ([[1, 0], [10**400, 0]], 1, "m[1]"),  # complex() raises OverflowError here
            ([[[1, 0], [0, 0]], [[1, 0]]], 2, "m:"),  # ragged rows
            ([], 1, "m:"),
            ("[[1, 0]]", 1, "m:"),
            ([[1, 0], [0, 0]], 2, "m[0][0]"),  # a vector where a matrix belongs
        ],
    )
    def test_rejections_name_the_entry(self, lst, ndim, where):
        with pytest.raises(FileFormatError) as e:
            _complex_array_in(lst, ndim, "m")
        assert str(e.value).startswith(where) and "\n" not in str(e.value)

    def test_negative_zero_keeps_its_sign(self):
        z = _complex_array_in([[-0.0, -0.0], [0, -0.0]], 1, "v")
        assert np.signbit(z.real).tolist() == [True, False]
        assert np.signbit(z.imag).tolist() == [True, True]

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "proto.json", "proto2.json"],
            ["mix", "proto.json", "proto2.json", "--prob", "0.3"],
            ["disj-and", "two_slot.json", "--mu", "0.4,0.3,0.3", "--copies", "2"],
        ],
        ids=["compose", "mix", "disj-and"],
    )
    def test_written_files_load_as_with_the_per_entry_reader(self, tmp_path, monkeypatch, argv):
        from qiclab.cli import main

        save(random_protocol(3, 2), tmp_path / "proto.json")
        save(random_protocol(5, 2), tmp_path / "proto2.json")
        two_slot = random_protocol(
            7, 2, alice_in_dims=(2, 2), bob_in_dims=(2, 2), preshared_dims=(1, 1)
        )
        save(two_slot, tmp_path / "two_slot.json")
        out = tmp_path / "out.json"
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert main([*argv, "--out", str(out)]) == 0
        compared = []

        def both(lst, ndim, where):
            new = _complex_array_in(lst, ndim, where)
            compared.append(_same_bits(new, _reference_complex_array_in(lst, ndim, where)))
            return new

        monkeypatch.setattr(fileio, "_complex_array_in", both)
        load_protocol(out)
        assert compared and all(compared)
