import json
import re

import numpy as np
import pytest

from mjls.fileio import (
    ParseError,
    bank_from_dict,
    canonical_json,
    load_bank,
    load_model,
    model_from_dict,
    model_to_dict,
    save_bank,
    save_model,
    trace_header,
    write_trace_csv,
)
from mjls.fixtures import demo_path, fixture_path
from mjls.model import block_diag, mode_pairs, validate
from mjls.sim import Periodic, SimConfig, simulate
from mjls.synthesis import ControllerBank, Scheme, check_corollary


class TestModelFiles:
    def test_bundled_files_parse_and_validate(self):
        for path in (fixture_path(), demo_path()):
            model = load_model(path)
            assert validate(model) == []

    def test_bundled_files_are_canonical(self):
        # The shipped bytes equal the canonical serialization of their own
        # parse, so the files hash identically across platforms.
        for path in (fixture_path(), demo_path()):
            raw = path.read_text()
            doc = json.loads(raw)
            assert canonical_json(doc) == raw

    def test_example_carries_both_repairs(self):
        doc = json.loads(fixture_path().read_text())
        # lambda rows printed [-0.4, 0.4], [-0.8, 0.8], [-1.2, 1.2] are
        # sign-flipped; the first rows were printed as valid generators.
        printed_second_rows = [[-0.4, 0.4], [-0.8, 0.8], [-1.2, 1.2]]
        assert [g[1] for g in doc["rates1"]] == [[-a for a in row] for row in printed_second_rows]
        assert [g[0] for g in doc["rates1"]] == [[-0.6, 0.6], [-0.2, 0.2], [-0.5, 0.5]]
        # mu^2 row 2 was printed [0.2, -0.5, 0.4]; its diagonal is -0.6.
        assert doc["rates2"][1][1] == [0.2, -0.6, 0.4]
        assert sum(doc["rates2"][1][1]) == pytest.approx(0.0, abs=1e-15)
        assert validate(model_from_dict(doc)) == []

    def test_demo_is_example_with_rates_scaled(self):
        example = json.loads(fixture_path().read_text())
        demo = json.loads(demo_path().read_text())
        for key in ("rates1", "rates2"):
            scaled = [0.1 * np.array(g) for g in example.pop(key)]
            got = [np.array(g) for g in demo.pop(key)]
            assert [g.tobytes() for g in got] == [g.tobytes() for g in scaled]
        assert example.pop("notes") and demo.pop("notes")
        assert demo == example

    def test_round_trip_identity(self, tmp_path):
        model = load_model(fixture_path())
        out = tmp_path / "copy.json"
        save_model(out, model)
        again = load_model(out)
        save_model(tmp_path / "copy2.json", again)
        assert (tmp_path / "copy2.json").read_bytes() == out.read_bytes()

    def test_missing_key_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system1": {"modes": [{"A": [[1]], "B": [[1]]}]}}')
        with pytest.raises(ParseError, match=r"system1\.modes\[1\].*'D'"):
            load_model(bad)

    def test_json_syntax_diagnostic_has_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system1": \n !}')
        with pytest.raises(ParseError, match=r":2:"):
            load_model(bad)

    def test_non_rectangular_matrix_rejected(self, tmp_path):
        doc = load_model(fixture_path())
        raw = model_to_dict(doc)
        raw["rates1"][0][0] = [1.0, 2.0, 3.0]  # ragged row
        with pytest.raises(ParseError, match="rates1"):
            model_from_dict(raw)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["system1"]["modes"][0].update(A=[["5", 2.0], [2.0, 4.0]]),
         "system1.modes[1].A[1][1]: expected a number, got '5'"),
        (lambda d: d["system1"]["modes"][0].update(A=[[5.0, 2.0], [True, 4.0]]),
         "system1.modes[1].A[2][1]: expected a number, got True"),
        (lambda d: d["system2"]["modes"][2].update(B=[[2.0], [1.0], [None]]),
         "system2.modes[3].B[3][1]: expected a number, got None"),
        (lambda d: d["rates2"][1].__setitem__(0, [[-0.4], 0.2, 0.2]),
         "rates2[2][1][1]: expected a number, got [-0.4]"),
        (lambda d: d["obs1"].__setitem__(0, 0.9), "obs1[1]: expected a nonempty rectangular matrix"),
        (lambda d: d["obs1"].__setitem__(0, [[]]), "obs1[1]: expected a nonempty rectangular matrix"),
        (lambda d: d["partition2"].update(thresholds=["5", True]),
         "partition2.thresholds[1]: expected a number, got '5'"),
        (lambda d: d["partition2"].update(thresholds=[5.0, True]),
         "partition2.thresholds[2]: expected a number, got True"),
        (lambda d: d["partition1"].update(thresholds=[10**400]),
         "partition1.thresholds[1]: integer too large for a float"),
        (lambda d: d["obs2"][2][0].__setitem__(1, 10**400), "obs2[3][1][2]: integer too large for a float"),
    ])
    def test_non_number_entries_rejected(self, edit, message):
        doc = json.loads(fixture_path().read_text())
        edit(doc)
        with pytest.raises(ParseError, match=re.escape(message)):
            model_from_dict(doc)


class TestGainFiles:
    def test_round_trip(self, tmp_path, demo_bank):
        path = tmp_path / "gains.json"
        save_bank(path, demo_bank)
        loaded = load_bank(path)
        assert loaded.scheme is demo_bank.scheme
        assert set(loaded.gains) == set(demo_bank.gains)
        for key, g in demo_bank.gains.items():
            assert np.allclose(loaded.gains[key], g, atol=0.0)
        # Byte idempotence: writing the loaded bank reproduces the file.
        path2 = tmp_path / "gains2.json"
        save_bank(path2, loaded)
        assert path2.read_bytes() == path.read_bytes()

    def test_certificate_round_trip(self, tmp_path, demo, demo_bank):
        # The centralized bank's certificate keys its cells by product-cell
        # index, the distributed one by region pair.
        joint = {}
        for cell in {cell for (_k, _obs, cell) in demo_bank.gains}:
            for i, (i1, i2) in enumerate(mode_pairs(demo), start=1):
                joint[(0, i, cell)] = block_diag(demo_bank.gain(1, i1, cell), demo_bank.gain(2, i2, cell))
        centralized = ControllerBank(
            Scheme.CENTRALIZED, joint, {0: check_corollary(demo, demo_bank)}
        )
        for bank in (demo_bank, centralized):
            path = tmp_path / "gains.json"
            save_bank(path, bank)
            loaded = load_bank(path)
            assert set(loaded.certificates) == set(bank.certificates)
            for k, fresh in bank.certificates.items():
                again = loaded.certificates[k]
                assert len(fresh.p_matrices) == len(again.p_matrices)
                for a, b in zip(fresh.p_matrices, again.p_matrices):
                    assert np.allclose(a, b, atol=0.0)
                assert set(fresh.psi_max) == set(again.psi_max)
                for key, v in fresh.psi_max.items():
                    assert again.psi_max[key] == v

    def test_duplicate_entry_rejected(self):
        doc = {
            "scheme": "distributed",
            "gains": [
                {"system": 1, "observation": 1, "region1": 1, "region2": 1, "G": [[0.0]]},
                {"system": 1, "observation": 1, "region1": 1, "region2": 1, "G": [[1.0]]},
            ],
        }
        with pytest.raises(ParseError, match="duplicate"):
            bank_from_dict(doc)

    @pytest.mark.parametrize("field, value", [("observation", 1.7), ("system", True), ("region1", 1.0), ("region2", "2")])
    def test_non_integer_index_rejected(self, field, value):
        entry = {"system": 1, "observation": 1, "region1": 1, "region2": 1, "G": [[0.0]], field: value}
        with pytest.raises(ParseError, match=rf"gains\[1\]\.{field}: expected an integer"):
            bank_from_dict({"scheme": "distributed", "gains": [entry]})

    @pytest.mark.parametrize("value, message", [
        ([["0.5", 1.0]], "gains[1].G[1][1]: expected a number, got '0.5'"),
        ([[0.5, True]], "gains[1].G[1][2]: expected a number, got True"),
        ([[0.5], [1.0, 2.0]], "gains[1].G: expected a nonempty rectangular matrix"),
    ])
    def test_non_number_gain_rejected(self, value, message):
        entry = {"system": 1, "observation": 1, "region1": 1, "region2": 1, "G": value}
        with pytest.raises(ParseError, match=re.escape(message)):
            bank_from_dict({"scheme": "distributed", "gains": [entry]})

    @pytest.mark.parametrize("field, value, message", [
        ("certified", "no", "certificate.certified: expected a boolean, got 'no'"),
        ("certified", 1, "certificate.certified: expected a boolean"),
        ("delta", "1e-8", "certificate.delta: expected a number"),
        ("delta", True, "certificate.delta: expected a number"),
        ("margins", ["0.5"], "certificate.margins[1]: expected a number"),
        ("margins", [False], "certificate.margins[1]: expected a number"),
        ("margins", "0.5", "certificate.margins: expected a list"),
        ("P", [[["1.0"]]], "certificate.P[1][1][1]: expected a number, got '1.0'"),
        ("P", [[[False]]], "certificate.P[1][1][1]: expected a number, got False"),
    ])
    def test_certificate_field_types_checked(self, field, value, message):
        cert = {"P": [[[1.0]]], "margins": [0.5], "delta": 1e-8, "certified": True, field: value}
        entry = {"system": 1, "observation": 1, "region1": 1, "region2": 1, "G": [[0.0]]}
        with pytest.raises(ParseError, match=re.escape(message)):
            bank_from_dict({"scheme": "distributed", "gains": [entry], "certificate": cert})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ParseError, match="scheme"):
            bank_from_dict({"scheme": "psychic", "gains": [
                {"system": 1, "observation": 1, "region1": 1, "region2": 1, "G": [[0.0]]}
            ]})

    def test_bank_without_certificate(self):
        doc = {
            "scheme": "distributed",
            "gains": [
                {"system": 1, "observation": 1, "region1": 1, "region2": 1, "G": [[0.5, -1.0]]}
            ],
        }
        bank = bank_from_dict(doc)
        assert bank.certificates == {}
        assert np.allclose(bank.gain(1, 1, (1, 1)), [[0.5, -1.0]])


class TestTraceCsv:
    def test_header_schema(self):
        assert (
            trace_header(2, 3, 1, 1)
            == "t,x1_1,x1_2,x2_1,x2_2,x2_3,mode1,mode2,obs1,obs2,region1,region2,u1,u2"
        )
        assert trace_header(1, 1, 2, 1).endswith("u1_1,u1_2,u2")

    def test_row_count_and_round_trip_floats(self, tmp_path, demo, demo_bank):
        from mjls.fixtures import example_initial_state

        x1, x2 = example_initial_state()
        trace = simulate(demo, demo_bank, SimConfig(dt=1e-2, horizon=1.0, seed=0), x1, x2)
        out = tmp_path / "trace.csv"
        write_trace_csv(out, trace)
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 101
        header = lines[0].split(",")
        first = lines[1].split(",")
        assert len(first) == len(header)
        # shortest round-trip decimals: parsing a cell reproduces the float
        assert float(first[1]) == trace.x1[0, 0]

    def test_matches_per_cell_formatting(self, tmp_path, demo, demo_bank):
        # The writer formats whole columns at once; its bytes equal those of
        # formatting one numpy scalar per cell, reproduced here.
        cfg = SimConfig(dt=1e-3, horizon=2.0, seed=3, obs_policy=Periodic(1e-3))
        trace = simulate(demo, demo_bank, cfg, [1.0, -0.5], [0.3, 0.2, -1.0])
        lines = [trace_header(2, 3, 1, 1)]
        for n in range(len(trace.t)):
            cells = [repr(float(trace.t[n]))]
            cells += [repr(float(v)) for v in trace.x1[n]]
            cells += [repr(float(v)) for v in trace.x2[n]]
            chains = (trace.mode1, trace.mode2, trace.obs1, trace.obs2, trace.region1, trace.region2)
            cells += [str(int(c[n])) for c in chains]
            cells += [repr(float(v)) for v in trace.u1[n]]
            cells += [repr(float(v)) for v in trace.u2[n]]
            lines.append(",".join(cells))
        out = tmp_path / "trace.csv"
        write_trace_csv(out, trace)
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert len(set(trace.mode1)) > 1 or len(set(trace.obs1)) > 1
