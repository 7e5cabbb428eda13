import collections
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mjls import fileio
from mjls.errors import DimensionMismatch
from mjls.fileio import (
    ParseError,
    atomic_write_text,
    bank_from_dict,
    bank_to_dict,
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
from mjls.synthesis import ControllerBank, Lyapunov, Scheme, check_bank, check_corollary

PERF_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def _perf_doc(name: str):
    return json.loads((PERF_DATA / name).read_text())


def _numpy_floats(node):
    """``node`` with every float entry an ``np.float64``."""
    if isinstance(node, dict):
        return {key: _numpy_floats(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_numpy_floats(value) for value in node]
    return np.float64(node) if type(node) is float else node


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
        (lambda d: d["system1"].update(modes={"A": [[1.0]]}), "system1.modes: expected a nonempty list"),
        (lambda d: d["partition1"].update(thresholds=10.0), "partition1.thresholds: expected a list of numbers"),
        (lambda d: d.update(rates1={"1": [[0.0]]}), "rates1: expected a nonempty list of matrices"),
    ])
    def test_non_number_entries_rejected(self, edit, message):
        doc = json.loads(fixture_path().read_text())
        edit(doc)
        with pytest.raises(ParseError, match=re.escape(message)):
            model_from_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: (d["rates1"][1][0].__setitem__(1, "x"), d["obs1"].__setitem__(0, 0.9)),
         "rates1[2][1][2]: expected a number, got 'x'"),
        # A matrix of the wrong shape is the model check's to name, not the parser's.
        (lambda d: (d["obs2"][0][0].__setitem__(0, "x"), d["system2"]["modes"][1].update(B=[[1.0], [0.0]])),
         "obs2[1][1][1]: expected a number, got 'x'"),
        # A matrix fault is named before a structural fault after it.
        (lambda d: (d["system1"]["modes"][0]["A"][0].__setitem__(0, "x"), d["system2"]["modes"][1].pop("B")),
         "system1.modes[1].A[1][1]: expected a number, got 'x'"),
        (lambda d: (d["system2"]["modes"][0]["D"][0].__setitem__(0, None), d.update(rates2={})),
         "system2.modes[1].D[1][1]: expected a number, got None"),
        (lambda d: (d["system1"]["modes"][1]["B"][0].__setitem__(0, "1"), d["partition1"].update(thresholds=["5"])),
         "system1.modes[2].B[1][1]: expected a number, got '1'"),
    ])
    def test_first_fault_in_document_order_named(self, edit, message):
        doc = _perf_doc("demo_model.json")
        edit(doc)
        with pytest.raises(ParseError) as exc:
            model_from_dict(doc)
        assert str(exc.value) == message

    def test_numpy_scalar_entries_parse(self):
        # Library callers may pass numpy floats; each parses as its float.
        doc = _perf_doc("demo_model.json")
        assert model_to_dict(model_from_dict(_numpy_floats(doc))) == model_to_dict(model_from_dict(doc))

    def test_numpy_integer_and_float32_entries_parse(self, tmp_path):
        # Any real number but a bool parses as its float, so re-saving gives
        # the bytes of the same document written with Python numbers.
        plain = _perf_doc("demo_model.json")
        plain["rates1"][0][0] = [-0.0625, 0.0625]  # exact in float32
        doc = json.loads(json.dumps(plain))
        doc["system1"]["modes"][0]["A"][0][0] = np.int64(5)
        doc["rates1"][0][0][1] = np.float32(0.0625)
        doc["partition2"]["thresholds"][0] = np.int64(5)
        for name, source in (("numpy", doc), ("plain", plain)):
            save_model(tmp_path / f"{name}.json", model_from_dict(source))
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        doc["system1"]["modes"][0]["A"][0][0] = np.bool_(True)
        with pytest.raises(ParseError) as exc:
            model_from_dict(doc)
        assert str(exc.value) == "system1.modes[1].A[1][1]: expected a number, got np.True_"


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
        # P and s of every system id come back exactly; the scalings are
        # made distinct, since the demo's D = 0 leaves every s at 1.
        joint = {}
        for cell in {cell for (_k, _obs, cell) in demo_bank.gains}:
            for i, (i1, i2) in enumerate(mode_pairs(demo), start=1):
                joint[(0, i, cell)] = block_diag(demo_bank.gain(1, i1, cell), demo_bank.gain(2, i2, cell))
        p_joint = check_corollary(demo, demo_bank).p_matrices
        centralized = ControllerBank(Scheme.CENTRALIZED, joint, {0: Lyapunov(p_joint, (1.0,) * len(p_joint))})
        for bank in (demo_bank, centralized):
            bank = dataclasses.replace(bank, lyapunov={
                k: dataclasses.replace(lyap, s_values=tuple(k + 0.1 * i for i in range(1, len(lyap.s_values) + 1)))
                for k, lyap in bank.lyapunov.items()
            })
            path = tmp_path / "gains.json"
            save_bank(path, bank)
            loaded = load_bank(path)
            assert set(loaded.lyapunov) == set(bank.lyapunov)
            for k, fresh in bank.lyapunov.items():
                again = loaded.lyapunov[k]
                assert len(fresh.p_matrices) == len(again.p_matrices)
                for a, b in zip(fresh.p_matrices, again.p_matrices):
                    assert np.array_equal(a, b)
                assert again.s_values == fresh.s_values

    def test_missing_gains_named_in_certificate_count(self, tmp_path, demo_bank):
        # The P count of each system is that of the observations its gains
        # name, so a file without system 1's observation-2 gains failed on
        # the certificate alone, with no hint that the gains were short.
        path = tmp_path / "gains.json"
        save_bank(path, demo_bank)
        doc = json.loads(path.read_text())
        doc["gains"] = [e for e in doc["gains"] if (e["system"], e["observation"]) != (1, 2)]
        path.write_text(json.dumps(doc))
        message = ("certificate.P: wrong number of matrices: 5 given, one per observation the gains name: "
                   "1 for system 1 and 3 for system 2")
        with pytest.raises(ParseError, match=re.escape(message)):
            load_bank(path)

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

    @pytest.mark.parametrize("edit, message", [
        (lambda g: (g[1]["G"][0].__setitem__(1, "0.5"), g[4].update(region1=1.0)),
         "gains[2].G[1][2]: expected a number, got '0.5'"),
        (lambda g: (g[1].update(G=[[0.5], [1.0, 2.0]]), g[4].update(region1=1.0)),
         "gains[2].G: expected a nonempty rectangular matrix, given as a list of rows"),
        (lambda g: g.__setitem__(1, dict(g[0])), "gains[2]: duplicate gain for (1, 1, (1, 1))"),
        (lambda g: (g[1]["G"][0].__setitem__(0, "x"), g[4].pop("G")), "gains[2].G[1][1]: expected a number, got 'x'"),
        (lambda g: (g.__setitem__(1, dict(g[0])), g[4]["G"][0].__setitem__(0, "x")),
         "gains[2]: duplicate gain for (1, 1, (1, 1))"),
    ])
    def test_first_fault_in_document_order_named(self, edit, message):
        doc = _perf_doc("bank_distributed.json")
        edit(doc["gains"])
        with pytest.raises(ParseError) as exc:
            bank_from_dict(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("edit, message", [
        (lambda d: (d["gains"][3]["G"][0].__setitem__(0, "x"), d["certificate"]["P"][0][0].__setitem__(0, "y")),
         "gains[4].G[1][1]: expected a number, got 'x'"),
        (lambda d: (d["certificate"]["P"][0][0].__setitem__(0, "y"), d["certificate"]["P"].pop()),
         "certificate.P[1][1][1]: expected a number, got 'y'"),
    ])
    def test_first_fault_across_gains_and_certificate_named(self, edit, message):
        doc = _perf_doc("bank_distributed.json")
        edit(doc)
        with pytest.raises(ParseError) as exc:
            bank_from_dict(doc)
        assert str(exc.value) == message

    def test_numpy_scalar_entries_parse(self):
        doc = _perf_doc("bank_distributed.json")
        assert bank_to_dict(bank_from_dict(_numpy_floats(doc))) == bank_to_dict(bank_from_dict(doc))

    def test_numpy_integer_indices_and_float32_scalings_parse(self, tmp_path):
        # An index may be any integer but a bool; it is kept as a Python
        # int, so the bank saves with the bytes of the plain document.
        plain = _perf_doc("bank_distributed.json")
        plain["certificate"]["s"] = [0.5] * len(plain["certificate"]["P"])
        doc = json.loads(json.dumps(plain))
        doc["gains"][0]["system"] = np.int64(1)
        doc["gains"][1]["region2"] = np.int32(plain["gains"][1]["region2"])
        doc["certificate"]["s"][0] = np.float32(0.5)
        for name, source in (("numpy", doc), ("plain", plain)):
            save_bank(tmp_path / f"{name}.json", bank_from_dict(source))
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        doc["gains"][0]["system"] = np.bool_(True)
        with pytest.raises(ParseError) as exc:
            bank_from_dict(doc)
        assert str(exc.value) == "gains[1].system: expected an integer, got np.True_"

    def test_misshapen_gain_left_to_check_bank(self):
        # The parser reads any rectangular G; its shape is check_bank's to refuse.
        doc = _perf_doc("bank_distributed.json")
        doc["gains"][0]["G"] = [[1.0, 2.0, 3.0]]
        bank = bank_from_dict(doc)
        with pytest.raises(DimensionMismatch) as exc:
            check_bank(load_model(PERF_DATA / "demo_model.json"), bank)
        assert str(exc.value) == "gain for system 1, observation 1, regions (1, 1) has shape (1, 3), expected (1, 2)"

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
        ("s", ["1"], "certificate.s[1]: expected a number, got '1'"),
        ("s", 5, "certificate.s: expected one number per P matrix, a list of 1"),
        ("s", None, "certificate.s: expected one number per P matrix, a list of 1"),
        ("s", [1.0, 1.0], "certificate.s: expected one number per P matrix, a list of 1"),
        ("s", [0.0], "certificate.s[1]: expected a positive finite number, got 0.0"),
        ("s", [-1.0], "certificate.s[1]: expected a positive finite number, got -1.0"),
        ("s", [1e999], "certificate.s[1]: expected a positive finite number, got inf"),
        ("P", [[["1.0"]]], "certificate.P[1][1][1]: expected a number, got '1.0'"),
        ("P", [[[False]]], "certificate.P[1][1][1]: expected a number, got False"),
        *(("P", value, "certificate.P: expected a nonempty list of matrices") for value in (5, None, True, 1.5)),
        ("P", [[[1.0]], [[1.0]]], "certificate.P: wrong number of matrices"),
    ])
    def test_certificate_field_types_checked(self, field, value, message):
        cert = {"P": [[[1.0]]], field: value}
        entry = {"system": 1, "observation": 1, "region1": 1, "region2": 1, "G": [[0.0]]}
        with pytest.raises(ParseError, match=re.escape(message)):
            bank_from_dict({"scheme": "distributed", "gains": [entry], "certificate": cert})

    def test_legacy_verdict_ignored(self):
        # Older files carry margins, delta and certified; nothing reads them,
        # and a file without s gets s = 1 for every P.
        cert = {"P": [[[2.0]]], "margins": "junk", "delta": True, "certified": "no"}
        entry = {"system": 1, "observation": 1, "region1": 1, "region2": 1, "G": [[0.0]]}
        bank = bank_from_dict({"scheme": "distributed", "gains": [entry], "certificate": cert})
        assert np.array_equal(bank.lyapunov[1].p_matrices[0], [[2.0]])
        assert bank.lyapunov[1].s_values == (1.0,)

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
        assert bank.lyapunov == {}
        assert np.allclose(bank.gain(1, 1, (1, 1)), [[0.5, -1.0]])


@pytest.mark.parametrize(
    "from_dict, doc, message",
    [
        (model_from_dict, [], "top level: expected a JSON object"),
        (bank_from_dict, [], "top level: expected a JSON object"),
        (bank_from_dict, {"scheme": "distributed", "gains": []}, "gains: expected a nonempty list"),
        (
            bank_from_dict,
            {"scheme": "distributed", "gains": [
                {"system": 1, "observation": 1, "region1": 1, "region2": 1, "G": [[0.0]]}
            ], "certificate": 5},
            "certificate: expected an object, got 5",
        ),
    ],
    ids=["model-top-level", "bank-top-level", "bank-no-gains", "bank-certificate-not-object"],
)
def test_document_shape_checked(from_dict, doc, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        from_dict(doc)


def test_clean_files_never_read_entry_by_entry(monkeypatch):
    # Every bundled file, its copy with numpy floats and its copy read into
    # OrderedDicts pass the whole-stack tests: the per-entry reader runs
    # only to name a fault.
    def refuse(node, where):
        raise AssertionError(f"{where} read entry by entry")

    monkeypatch.setattr(fileio, "_matrix", refuse)
    paths = sorted(fixture_path().parent.glob("*.json")) + sorted(PERF_DATA.glob("*.json"))
    assert len(paths) == 8
    for path in paths:
        doc = json.loads(path.read_text())
        from_dict = bank_from_dict if "scheme" in doc else model_from_dict
        from_dict(doc)
        from_dict(_numpy_floats(doc))
        from_dict(json.loads(path.read_text(), object_pairs_hook=collections.OrderedDict))


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        atomic_write_text(target, "{}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


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
