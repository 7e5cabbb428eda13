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
from mjls.model import block_diag, compose_integrated, validate
from mjls.sim import SimConfig, simulate
from mjls.synthesis import ControllerBank, Scheme, check_corollary


class TestModelFiles:
    def test_bundled_files_parse_and_validate(self):
        for path in (fixture_path(), demo_path()):
            model = load_model(path)
            assert validate(model) == []

    def test_bundled_files_are_canonical(self):
        # The shipped bytes equal the canonical serialization of their own
        # parse, so the files hash identically across platforms.
        import json

        for path in (fixture_path(), demo_path()):
            raw = path.read_text()
            doc = json.loads(raw)
            assert canonical_json(doc) == raw

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
        integ = compose_integrated(demo)
        joint = {}
        for cell in {cell for (_k, _obs, cell) in demo_bank.gains}:
            for i in range(1, integ.mode_count + 1):
                i1, i2 = integ.mode_pair(i)
                joint[(0, i, cell)] = block_diag(demo_bank.gain(1, i1, cell), demo_bank.gain(2, i2, cell))
        centralized = ControllerBank(
            Scheme.CENTRALIZED, joint, {0: check_corollary(demo, demo_bank, demo_bank)}
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
