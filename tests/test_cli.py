import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mjls import cli
from mjls import model as model_module
from mjls import synthesis
from mjls.cli import main
from mjls.errors import DimensionMismatch
from mjls.fileio import canonical_json, load_bank, load_model, save_bank, save_model
from mjls.fixtures import demo_path, fixture_path
from mjls.lmi import check_infeasibility_certificate, evaluate, solve_feasibility
from mjls.model import (
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
)
from mjls.synthesis import ControllerBank, Scheme, build_distributed

PERF_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


@pytest.fixture(scope="module")
def demo_gains_file(tmp_path_factory):
    """Synthesize the demo model once through the CLI itself."""
    out = tmp_path_factory.mktemp("gains") / "demo_gains.json"
    code = main(
        [
            "synthesize",
            str(demo_path()),
            "--scheme",
            "distributed",
            "--decay",
            "1.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


def scalar_model_file(tmp_path, a=-1.0, b=0.0):
    sys = JumpLinearSystem(1, 1, 1, (ModeDynamics([[a]], [[b]], [[0.0]]),))
    model = InterdependentModel(
        sys1=sys,
        sys2=sys,
        part1=RegionPartition(()),
        part2=RegionPartition(()),
        rates1=RateFamily((np.zeros((1, 1)),)),
        rates2=RateFamily((np.zeros((1, 1)),)),
        obs1=ObservationModel((np.eye(1),)),
        obs2=ObservationModel((np.eye(1),)),
    )
    path = tmp_path / "scalar_model.json"
    save_model(path, model)
    return path


def zero_gain_file(tmp_path, model_path):
    model = load_model(model_path)
    gains = {}
    for m1 in range(1, model.part1.region_count + 1):
        for m2 in range(1, model.part2.region_count + 1):
            for i in range(1, model.sys1.mode_count + 1):
                gains[(1, i, (m1, m2))] = np.zeros((model.sys1.input_dim, model.sys1.state_dim))
            for i in range(1, model.sys2.mode_count + 1):
                gains[(2, i, (m1, m2))] = np.zeros((model.sys2.input_dim, model.sys2.state_dim))
    bank = ControllerBank(Scheme.DISTRIBUTED, gains, {})
    path = tmp_path / "zero_gains.json"
    save_bank(path, bank)
    return path


class TestSynthesize:
    def test_demo_distributed_success(self, demo_gains_file, capsys):
        bank = load_bank(demo_gains_file)
        assert bank.size == 30
        assert bank.scheme is Scheme.DISTRIBUTED

    def test_uncorrected_rates_rejected(self, tmp_path, capsys):
        doc = json.loads(fixture_path().read_text())
        doc["rates1"][0] = [[-0.6, 0.6], [-0.4, 0.4]]  # as printed: invalid
        bad = tmp_path / "uncorrected.json"
        bad.write_text(canonical_json(doc))
        code = main(
            ["synthesize", str(bad), "--scheme", "distributed", "--out", str(tmp_path / "g.json")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "negative off-diagonal rate" in captured.err

    def test_unstabilizable_scalar_never_succeeds(self, tmp_path):
        path = scalar_model_file(tmp_path, a=1.0, b=0.0)
        code = main(
            [
                "synthesize",
                str(path),
                "--scheme",
                "distributed",
                "--out",
                str(tmp_path / "g.json"),
            ]
        )
        assert code in (2, 3)

    def test_failed_verdict_prints_binding_constraint(self, tmp_path, capsys):
        # Only problem 1 (system 1) fails; its binding constraint is found
        # again by evaluating every block at the solver's last iterate.
        code = main(
            ["synthesize", str(fixture_path()), "--scheme", "distributed", "--out", str(tmp_path / "g.json")]
        )
        assert code == 2
        binding = [l for l in capsys.readouterr().out.splitlines() if "binding constraint" in l]
        assert len(binding) == 1 and binding[0].startswith("problem 1: binding constraint mode ")

        problem = build_distributed(load_model(fixture_path()))[0]
        sol = solve_feasibility(problem)
        misses = [np.linalg.eigvalsh(evaluate(m, sol.z)).max() + problem.delta for m in problem.neg]
        misses += [problem.delta - np.linalg.eigvalsh(evaluate(m, sol.z)).min() for m in problem.pos]
        worst = int(np.argmax(misses))
        assert worst < len(problem.neg)
        label, eigenvalue = binding[0].removeprefix("problem 1: binding constraint ").rsplit(", max eigenvalue ", 1)
        assert label == problem.neg_labels[worst]
        assert abs(float(eigenvalue) - (misses[worst] - problem.delta)) <= 1e-9

    def test_infeasible_verdict_prints_checked_bound(self, tmp_path, capsys):
        # Problem 1 of the published example is INFEASIBLE on a certificate
        # that the check accepts again; the printed bound is delta / rho.
        out = tmp_path / "g.json"
        code = main(["synthesize", str(fixture_path()), "--scheme", "distributed", "--out", str(out)])
        assert code == 2 and not out.exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("problem 1: infeasible after ") and lines[1].startswith("problem 2: feasible after ")
        bounds = [l for l in lines if "any point meeting" in l]
        assert len(bounds) == 1 and bounds[0].startswith("problem 1: any point meeting δ has ‖z‖₂ ≥ δ/ρ = ")
        printed, rho = bounds[0].removeprefix("problem 1: any point meeting δ has ‖z‖₂ ≥ δ/ρ = ").split(" (ρ = ")
        problem = build_distributed(load_model(fixture_path()))[0]
        cert = check_infeasibility_certificate(problem, solve_feasibility(problem).certificate.blocks)
        assert printed == f"{problem.delta / cert.rho:.3e}" and rho == f"{cert.rho:.3e})"
        assert float(printed) >= 100.0

    def test_missing_model_file(self, tmp_path, capsys):
        code = main(
            ["synthesize", str(tmp_path / "no.json"), "--scheme", "distributed", "--out", str(tmp_path / "g.json")]
        )
        assert code == 1

    def test_centralized_scheme_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "central.json"
        code = main(
            [
                "synthesize",
                str(demo_path()),
                "--scheme",
                "centralized",
                "--decay",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        bank = load_bank(out)
        assert bank.size == 36
        assert bank.scheme is Scheme.CENTRALIZED
        code = main(["certify", str(demo_path()), str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "certified: yes" in captured.out


class TestCertify:
    def test_fresh_gains_certify(self, demo_gains_file, capsys):
        code = main(["certify", str(demo_path()), str(demo_gains_file)])
        captured = capsys.readouterr()
        assert code == 0
        assert "certified: yes" in captured.out
        # One line per (mode, cell) of the integrated system.
        assert sum(1 for line in captured.out.splitlines() if line.startswith("  mode")) == 36

    def test_form_lines_name_region_pairs(self, capsys):
        argv = ["certify", str(PERF_DATA / "demo_model.json"), str(PERF_DATA / "bank_distributed.json")]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "closed-loop form max eigenvalues (mode, regions):"
        # Mode-major, each mode's lines in region_pairs order: (1,1) ... (2,3).
        pairs = [(m1, m2) for m1 in (1, 2) for m2 in (1, 2, 3)]
        assert [line.split(":")[0] for line in lines[1:37]] == [
            f"  mode {i}, regions ({m1},{m2})" for i in range(1, 7) for m1, m2 in pairs
        ]
        assert lines[4] == "  mode 1, regions (2,1): -5.163054e+00"

    def test_zero_gains_not_certified(self, tmp_path, capsys):
        gains = zero_gain_file(tmp_path, demo_path())
        code = main(["certify", str(demo_path()), str(gains)])
        captured = capsys.readouterr()
        assert code == 2
        assert "certified: no" in captured.out

    def test_missing_gain_entry(self, tmp_path, demo_gains_file, capsys):
        doc = json.loads(demo_gains_file.read_text())
        doc["gains"] = doc["gains"][1:]  # drop one entry
        broken = tmp_path / "broken.json"
        broken.write_text(canonical_json(doc))
        code = main(["certify", str(demo_path()), str(broken)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no gain for" in captured.err

    def test_small_margin_does_not_certify_open_loop(self, tmp_path, capsys):
        # Zero gains leave the demo's open loop, which no P certifies (see
        # test_zero_gains_not_certified).  With every P scaled by 1e-14 its
        # forms are tiny, and they must still clear the margin 1e-8.
        def zeroed_and_scaled(doc):
            for entry in doc["gains"]:
                entry["G"] = np.zeros_like(entry["G"]).tolist()
            doc["certificate"]["P"] = [(1e-14 * np.array(p)).tolist() for p in doc["certificate"]["P"]]

        assert _certify_edited_doc(tmp_path, zeroed_and_scaled, "bank_distributed.json") == 2
        assert "certified: yes" not in capsys.readouterr().out



def _certify_edited_doc(tmp_path, edit, bank_file) -> int:
    """``mjls certify`` of a perfbench bank on the demo model, after
    ``edit`` changed the bank document in place."""
    doc = json.loads((PERF_DATA / bank_file).read_text())
    edit(doc)
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))  # canonical_json refuses NaN
    return main(["certify", str(PERF_DATA / "demo_model.json"), str(bank)])


def _certify_edited_bank(tmp_path, edit, bank_file="bank_distributed.json") -> int:
    """As ``_certify_edited_doc``, with ``edit`` changing the bank's list of
    P matrices.  The list starts with the P of mode 1: of system 1 (two
    modes of dimension 2) in the distributed bank, of the joint system
    (dimension 5) in the centralized one."""
    return _certify_edited_doc(tmp_path, lambda doc: edit(doc["certificate"]["P"]), bank_file)


def _nan_entry(p):
    p[0][0][0] = float("nan")


def _asymmetric(p):
    p[0][0][1] += 1.0


def _three_by_three(p):
    p[0] = np.eye(3).tolist()


def _overflowing(p):
    p[0] = [[1e308] * len(p[0]) for _ in p[0]]


def _scaled_and_moved(p):
    p[0], p[1] = ([[v * 1e5 for v in row] for row in m] for m in p[:2])
    p[0][0][1] += 1e-10


_CENTRALIZED_BANK = "bank_centralized.json"


class TestCertificateChecks:
    """The P matrices a bank file carries are checked before they are
    evaluated, for every scheme, and a candidate whose forms overflow is
    left to the fallback search."""

    @pytest.mark.parametrize(
        "edit, message, bank_file",
        [
            pytest.param(edit, f"certificate of system {k}, P of mode 1 {tail}", bank_file, id=prefix + name)
            for prefix, k, nx, bank_file in (("", 1, 2, "bank_distributed.json"), ("centralized-", 0, 5, _CENTRALIZED_BANK))
            for name, edit, tail in (
                ("nan", _nan_entry, "has non-finite entries"),
                ("asymmetric", _asymmetric, "is not symmetric within"),
                ("wrong-shape", _three_by_three, f"has shape (3, 3), expected ({nx}, {nx})"),
            )
        ],
    )
    def test_bad_certificate_rejected(self, tmp_path, capsys, edit, message, bank_file):
        assert _certify_edited_bank(tmp_path, edit, bank_file) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("verb", ["simulate", "montecarlo"])
    @pytest.mark.parametrize(
        "edit, tail",
        [(_nan_entry, "has non-finite entries"), (_three_by_three, "has shape (3, 3), expected (2, 2)")],
        ids=["nan", "wrong-shape"],
    )
    def test_bad_certificate_rejected_by_every_verb(self, tmp_path, capsys, verb, edit, tail):
        # The simulator reads its bank through the check certify makes.
        doc = json.loads((PERF_DATA / "bank_distributed.json").read_text())
        edit(doc["certificate"]["P"])
        bank, out = tmp_path / "bank.json", tmp_path / "out"
        bank.write_text(json.dumps(doc))
        flags = {"simulate": [], "montecarlo": ["--runs", "2"]}[verb]
        argv = [verb, str(PERF_DATA / "demo_model.json"), str(bank), "--x1=1,0", "--x2=0,0,1", "--horizon", "0.01"]
        assert main([*argv, *flags, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: certificate of system 1, P of mode 1 {tail}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_p_that_is_not_a_list_rejected(self, tmp_path, capsys):
        assert _certify_edited_doc(tmp_path, lambda doc: doc["certificate"].update(P=5), "bank_distributed.json") == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {tmp_path / 'bank.json'}: certificate.P: expected a nonempty list of matrices\n"
        assert captured.out == ""

    # Overflowing forms raise no numpy warning and leave the verdict to the
    # fallback; symmetry is judged against the scale of the entries.
    @pytest.mark.parametrize(
        "edit, bank_file",
        [
            pytest.param(edit, bank_file, id=prefix + name)
            for prefix, bank_file in (("", "bank_distributed.json"), ("centralized-", _CENTRALIZED_BANK))
            for name, edit in (("overflow", _overflowing), ("relative-symmetry", _scaled_and_moved))
        ],
    )
    def test_certificate_within_tolerance_certifies(self, tmp_path, capsys, edit, bank_file):
        assert _certify_edited_bank(tmp_path, edit, bank_file) == 0
        captured = capsys.readouterr()
        assert "certified: yes" in captured.out
        assert captured.err == ""


class TestOutput:
    @pytest.mark.parametrize("verb", ["synthesize", "simulate", "montecarlo"])
    @pytest.mark.parametrize("target, message", [("absent/out", "does not exist"), (".", "is a directory")])
    def test_unwritable_out_rejected_before_any_file_is_read(self, tmp_path, capsys, verb, target, message):
        # The model path does not exist, so only a check made before the
        # model is read can produce the --out message.
        model, gains = str(tmp_path / "absent.json"), str(tmp_path / "g.json")
        out = str(tmp_path / target)
        argv = {
            "synthesize": ["synthesize", model, "--scheme", "distributed"],
            "simulate": ["simulate", model, gains, "--x1=1", "--x2=1"],
            "montecarlo": ["montecarlo", model, gains, "--runs", "1", "--x1=1", "--x2=1"],
        }[verb]
        assert main([*argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and message in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_reported(self, tmp_path, capsys, monkeypatch):
        def refuse(path, trace):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "write_trace_csv", refuse)
        model, gains = str(PERF_DATA / "demo_model.json"), str(PERF_DATA / "bank_distributed.json")
        argv = ["simulate", model, gains, "--x1=1,0", "--x2=0,0,1", "--horizon", "0.01", "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{tmp_path / 't.csv'}'\n"


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synthesize", "m.json", "--scheme", "distributed", "--out", "g.json", "--seed", "1"],
            ["certify", "m.json", "g.json", "--seed", "1"],
            ["simulate", "m.json", "g.json", "--x1=1", "--x2=1", "--out", "t.csv", "--delta", "1e-6"],
            ["montecarlo", "m.json", "g.json", "--runs", "1", "--x1=1", "--x2=1", "--out", "r.json", "--delta", "1e-6"],
            ["synthesize", "m.json", "--scheme", "distributed", "--out", "g.json", "--max-iter", "60000"],
            ["synthesize", "m.json", "--scheme", "distributed", "--out", "g.json", "--delta", "1e-6"],
            ["certify", "m.json", "g.json", "--delta", "1e-6"],
        ],
    )
    def test_unread_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_usage_errors_exit_1_and_help_0(self, capsys):
        # Exit 2 means infeasible or uncertified, so a usage error must not
        # use argparse's 2.
        for argv in (["synthesize", "m.json", "--scheme", "distributed"], ["simulate"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            assert "error: the following arguments are required" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mjls synthesize")

    # Each case's id is fixed, so that it keeps its name when cases are
    # added or removed.
    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(v, id=f"synthesize-flags{12 + i}---decay: must be finite, got {v}")
            for i, v in enumerate(("nan", "inf", "-inf"))
        ],
    )
    def test_bad_solver_flags_rejected_before_any_work(self, tmp_path, capsys, value):
        # The model path does not exist, so only a check made before the
        # model is read can produce the flag's message.
        model, out = str(tmp_path / "absent.json"), str(tmp_path / "g.json")
        assert main(["synthesize", model, "--scheme", "distributed", "--out", out, f"--decay={value}"]) == 1
        assert capsys.readouterr().err == f"error: --decay: must be finite, got {value}\n"

    def test_each_verb_takes_exactly_these_options(self):
        # Every option is a setting a user can vary; adding one is a
        # deliberate edit of this table.
        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {verb: sorted(o for a in p._actions for o in a.option_strings) for verb, p in sub.choices.items()}
        shared = ["-h", "--help", "--x1", "--x2", "--horizon", "--dt", "--obs-policy", "--seed", "--out"]
        assert options == {
            "synthesize": sorted(["-h", "--help", "--scheme", "--decay", "--out"]),
            "certify": sorted(["-h", "--help"]),
            "simulate": sorted(shared),
            "montecarlo": sorted([*shared, "--runs"]),
        }

    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        # Library callers and the benchmark call main many times in one
        # process; every call parses with the same parser.
        parsers = []
        parse_args = cli._Parser.parse_args

        def recorded(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", recorded)
        argv = ["certify", str(PERF_DATA / "demo_model.json"), str(PERF_DATA / "bank_distributed.json")]
        assert [main(argv), main(argv)] == [0, 0]
        assert len(parsers) == 2 and parsers[0] is parsers[1]
        assert capsys.readouterr().out.count("certified: yes") == 2


def _add_unused_entry(doc):
    doc["gains"].append({**doc["gains"][3], "region1": 9})


class TestSimulate:
    def test_row_count(self, tmp_path, demo_gains_file):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "simulate",
                str(demo_path()),
                str(demo_gains_file),
                "--x1=-6,5",
                "--x2=2,-5.5,8",
                "--horizon",
                "10",
                "--dt",
                "0.001",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 10001 + 1

    def test_zero_horizon_initial_row_only(self, tmp_path, demo_gains_file):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "simulate",
                str(demo_path()),
                str(demo_gains_file),
                "--x1=1,0",
                "--x2=0,0,1",
                "--horizon",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 2  # header + initial row

    def test_dt_bound_error_message(self, tmp_path, demo_gains_file, capsys):
        code = main(
            [
                "simulate",
                str(demo_path()),
                str(demo_gains_file),
                "--x1=1,0",
                "--x2=0,0,1",
                "--dt",
                "2.0",
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "need dt <=" in captured.err

    @pytest.mark.parametrize("verb", ["simulate", "montecarlo"])
    def test_default_policy_refreshes_every_step(self, tmp_path, demo_gains_file, verb):
        # The default is periodic:<dt>, the policy the certificates cover;
        # onchange stays behind the flag and gives another output.
        argv = [verb, str(demo_path()), str(demo_gains_file), "--x1=-6,5", "--x2=2,-5.5,8",
                "--horizon", "1", "--dt", "0.002", "--seed", "3"]
        if verb == "montecarlo":
            argv += ["--runs", "2"]
        outs = []
        for name, flags in [("default", []), ("periodic", ["--obs-policy", "periodic:0.002"]),
                            ("onchange", ["--obs-policy", "onchange"])]:
            out = tmp_path / name
            assert main([*argv, *flags, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] != outs[2]

    def test_wrong_state_dimension(self, tmp_path, demo_gains_file, capsys):
        code = main(
            [
                "simulate",
                str(demo_path()),
                str(demo_gains_file),
                "--x1=1",
                "--x2=0,0,1",
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["gains"].pop(3), "no gain for system 1, observation"),
            (lambda doc: doc["gains"][3].update(G=[[1.0, 2.0, 3.0]]), "has shape (1, 3), expected (1, 2)"),
            (_add_unused_entry, "regions (9, 1) does not fit"),
            (lambda doc: doc["gains"][3].update(G=[[float("nan"), 0.0]]), "has non-finite entries"),
        ],
    )
    def test_bank_not_fitting_model_rejected_up_front(self, tmp_path, demo_gains_file, capsys, edit, message):
        doc = json.loads(demo_gains_file.read_text())
        edit(doc)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))  # canonical_json refuses the NaN case
        out = tmp_path / "t.csv"
        code = main(["simulate", str(demo_path()), str(broken), "--x1=1,0", "--x2=0,0,1", "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--horizon", "inf"], "horizon must be nonnegative and finite, got inf"),
            (["--horizon", "nan"], "horizon must be nonnegative and finite, got nan"),
            (["--dt", "nan"], "dt must be positive and finite, got nan"),
            (["--obs-policy", "periodic:nan"], "--obs-policy: bad period"),
            (["--x1=nan,5"], "--x1: entries must be finite"),
            (["--x2=0,inf,1"], "--x2: entries must be finite"),
            (["--horizon", "0.0016", "--dt", "0.001"], "horizon must be a whole number of steps of dt 0.001, got 0.0016"),
            (["--obs-policy", "periodic:0.0005"],
             "observation period must be a positive whole number of steps of dt 0.001, got 0.0005"),
            (["--obs-policy", "periodic:0.0015"],
             "observation period must be a positive whole number of steps of dt 0.001, got 0.0015"),
            (["--seed", "-1"], "seed must be a nonnegative integer, got -1"),
            (["--horizon", "1e308"], "horizon must be a whole number of steps of dt 0.001, got 1e+308"),
            (["--obs-policy", "periodic:1e308"],
             "observation period must be a positive whole number of steps of dt 0.001, got 1e+308"),
            (["--x1=1,a"], "--x1: expected comma-separated numbers, got '1,a'"),
            (["--x2=0,1"], "--x2: expected 3 entries, got 2"),
            (["--obs-policy", "sometimes"], "--obs-policy: expected 'onchange' or 'periodic:<seconds>', got 'sometimes'"),
            (["--dt", "1e-300", "--horizon", "10"],
             "horizon / dt must be at most 10000000 steps, got 10.0 / 1e-300"),
        ],
    )
    def test_non_finite_inputs_rejected(self, tmp_path, demo_gains_file, capsys, flags, message):
        out = tmp_path / "t.csv"
        argv = ["simulate", str(demo_path()), str(demo_gains_file), "--x1=1,0", "--x2=0,0,1", *flags]
        code = main([*argv, "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestMonteCarlo:
    def test_analytic_scalar(self, tmp_path, capsys):
        model_path = scalar_model_file(tmp_path)
        gains = zero_gain_file(tmp_path, model_path)
        out = tmp_path / "report.json"
        code = main(
            [
                "montecarlo",
                str(model_path),
                str(gains),
                "--runs",
                "1",
                "--x1=1",
                "--x2=0",
                "--horizon",
                "10",
                "--dt",
                "0.0001",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"runs", "mean", "stderr", "functional_per_run", "terminal_norms", "saturation"}
        assert abs(report["mean"] - 0.5) <= 0.01

    def test_same_seed_byte_identical(self, tmp_path, demo_gains_file):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                [
                    "montecarlo",
                    str(demo_path()),
                    str(demo_gains_file),
                    "--runs",
                    "3",
                    "--x1=-6,5",
                    "--x2=2,-5.5,8",
                    "--horizon",
                    "2",
                    "--dt",
                    "0.001",
                    "--seed",
                    "7",
                    "--obs-policy",
                    "periodic:0.001",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_functionals_near_the_float_range_reported(self, tmp_path, capsys):
        # Under onchange the demo bank diverges: by 14 s the functionals
        # reach 1e169, their deviations square past the float range, and
        # the stderr raised OverflowError after every run (no report).
        out = tmp_path / "r.json"
        code = main(["montecarlo", str(PERF_DATA / "demo_model.json"), str(PERF_DATA / "bank_distributed.json"),
                     "--runs", "8", "--x1=1.0,-2.5", "--x2=0.5,1.5,-2.0", "--horizon", "14",
                     "--obs-policy", "onchange", "--seed", "0", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert max(report["functional_per_run"]) > 1e160
        assert report["mean"] == pytest.approx(math.fsum(report["functional_per_run"]) / 8, rel=1e-15)
        assert 0.0 < report["stderr"] < math.inf
        assert f"functional mean = {report['mean']:.6e} +/- {report['stderr']:.6e}" in capsys.readouterr().out

    def test_bad_runs(self, tmp_path, demo_gains_file):
        code = main(
            [
                "montecarlo",
                str(demo_path()),
                str(demo_gains_file),
                "--runs",
                "0",
                "--x1=1,0",
                "--x2=0,0,1",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 1


class TestUncertifiedPolicyWarning:
    """A policy that holds observations across steps runs a loop that no
    certificate covers, and says so in one stderr line; stdout and the exit
    code are those of any run."""

    @pytest.mark.parametrize("verb", ["simulate", "montecarlo"])
    @pytest.mark.parametrize("policy, warned", [(None, False), ("periodic:0.002", False),
                                                ("onchange", True), ("periodic:0.006", True)],
                             ids=["default", "every-step", "onchange", "three-steps"])
    def test_one_line_for_a_held_observation(self, tmp_path, capsys, demo_gains_file, verb, policy, warned):
        argv = [verb, str(demo_path()), str(demo_gains_file), "--x1=-6,5", "--x2=2,-5.5,8",
                "--horizon", "0.1", "--dt", "0.002", "--out", str(tmp_path / "out")]
        argv += ["--runs", "2"] if verb == "montecarlo" else []
        argv += ["--obs-policy", policy] if policy else []
        assert main(argv) == 0
        captured = capsys.readouterr()
        expected = (
            f"warning: --obs-policy {policy} holds observations across steps; the bank's certificate "
            "covers only a refresh every step (periodic:0.002), not this loop\n"
        )
        assert captured.err == (expected if warned else "")
        assert "warning" not in captured.out and captured.out.count("\n") == (2 if verb == "simulate" else 3)


class TestInvalidModel:
    @pytest.mark.parametrize("verb", ["synthesize", "certify", "simulate", "montecarlo"])
    def test_violations_printed_and_nothing_written(self, tmp_path, demo_gains_file, capsys, verb):
        # Row 1 of rates1[1] sums to -0.12 once its diagonal is tripled.
        doc = json.loads(demo_path().read_text())
        doc["rates1"][0][0][0] *= 3.0
        bad = tmp_path / "bad_model.json"
        bad.write_text(canonical_json(doc))
        out = tmp_path / "out"
        argv = {
            "synthesize": ["synthesize", str(bad), "--scheme", "distributed", "--out", str(out)],
            "certify": ["certify", str(bad), str(demo_gains_file)],
            "simulate": ["simulate", str(bad), str(demo_gains_file), "--x1=1,0", "--x2=0,0,1", "--out", str(out)],
            "montecarlo": ["montecarlo", str(bad), str(demo_gains_file), "--runs", "2", "--x1=1,0", "--x2=0,0,1",
                           "--out", str(out)],
        }[verb]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "invalid model: rates1[1][row 1]: row sums to -0.12, must be 0 within 1e-12\n"
            f"error: {bad}: model failed validation with 1 violation(s)\n"
        )
        assert captured.out == ""
        assert not out.exists()


class TestSingularEmission:
    """No inverse unmixes an emission matrix of rank one, so gains recovered
    through it do not reproduce the synthesized closed loop.  Synthesis
    that recovers through it refuses the model; every other verb runs."""

    ALPHA = [[0.5, 0.5], [0.5, 0.5]]

    @pytest.fixture
    def singular(self, tmp_path):
        doc = json.loads((PERF_DATA / "demo_model.json").read_text())
        doc["obs1"][0] = self.ALPHA
        path = tmp_path / "singular.json"
        path.write_text(canonical_json(doc))
        return str(path)

    @pytest.mark.parametrize("scheme", ["distributed", "centralized"])
    def test_synthesis_refused(self, tmp_path, capsys, singular, scheme):
        out = tmp_path / "gains.json"
        assert main(["synthesize", singular, "--scheme", scheme, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        violation, error = captured.err.splitlines()
        assert violation.startswith("invalid model: obs1[1]: condition number ")
        assert violation.endswith(f"is not below 1e+06, so {scheme} synthesis cannot recover gains through its inverse")
        assert error == f"error: {singular}: model failed validation with 1 violation(s)"
        assert captured.out == ""
        assert not out.exists()

    def test_other_verbs_accept_model(self, tmp_path, capsys, singular):
        bank = str(PERF_DATA / "bank_distributed.json")
        sim_flags = ["--x1=1,0", "--x2=0,0,1", "--horizon", "0.01"]
        runs = {
            "synthesize fullinfo": ["synthesize", singular, "--scheme", "fullinfo", "--out", str(tmp_path / "g.json")],
            "certify": ["certify", singular, bank],
            "simulate": ["simulate", singular, bank, *sim_flags, "--out", str(tmp_path / "t.csv")],
            "montecarlo": ["montecarlo", singular, bank, "--runs", "2", *sim_flags, "--out", str(tmp_path / "r.json")],
        }
        codes = {label: main(argv) for label, argv in runs.items()}
        assert capsys.readouterr().err == ""
        # The bank was synthesized for the demo emissions: certify reaches a
        # verdict on it, and it is "no".
        assert codes == {"synthesize fullinfo": 0, "certify": 2, "simulate": 0, "montecarlo": 0}


class TestIllConditionedEmission(TestSingularEmission):
    """The same at condition number 1e9, which ``validate`` accepts: only
    the synthesis that inverts the emission refuses the model."""

    ALPHA = [[0.5 + 1e-9, 0.5 - 1e-9], [0.5, 0.5]]


def _python(*args):
    """Run a fresh python process that imports this package's mjls."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


class TestModuleEntryPoint:
    """``python -m mjls.cli`` runs ``main``, as the ``mjls`` script does."""

    @staticmethod
    def _run(*argv):
        return _python("-m", "mjls.cli", *argv)

    def test_certify(self, capsys):
        argv = ["certify", str(PERF_DATA / "demo_model.json"), str(PERF_DATA / "bank_distributed.json")]
        done = self._run(*argv)
        assert main(argv) == 0
        assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")

    def test_missing_model_file(self, tmp_path):
        done = self._run("certify", str(tmp_path / "absent.json"), str(PERF_DATA / "bank_distributed.json"))
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: {tmp_path / 'absent.json'}: ")
        assert done.stdout == ""


@pytest.mark.parametrize("verb", ["synthesize", "certify", "simulate", "montecarlo"])
def test_no_verb_imports_numpy_ma(tmp_path, verb):
    # numpy.ma takes about 10 ms to import, a sizable share of a first call in
    # a fresh process; in numpy 2.4 a bare np.unique imports it on first use.
    model, bank = str(PERF_DATA / "demo_model.json"), str(PERF_DATA / "bank_distributed.json")
    sim_flags = ["--x1=1,0", "--x2=0,1,0", "--horizon", "0.01", "--dt", "0.001"]
    argv = {
        "synthesize": ["synthesize", model, "--scheme", "distributed", "--out", str(tmp_path / "bank.json")],
        "certify": ["certify", model, bank],
        "simulate": ["simulate", model, bank, *sim_flags, "--out", str(tmp_path / "trace.csv")],
        "montecarlo": ["montecarlo", model, bank, "--runs", "2", *sim_flags, "--out", str(tmp_path / "report.json")],
    }[verb]
    script = "import sys; from mjls import cli; code = cli.main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)"
    done = _python("-c", script, *argv)
    assert done.stdout.splitlines()[-1] == "0 False", done.stderr


def _count_calls(monkeypatch, original):
    """The first arguments of the calls of ``original`` through every binding
    of it in the mjls modules, rebound as perfbench's tracer rebinds them."""
    calls = []

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "mjls" or name.startswith("mjls."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def validate_calls(monkeypatch):
    """The models passed to ``mjls.model.validate``."""
    return _count_calls(monkeypatch, model_module.validate)


@pytest.fixture
def solve_calls(monkeypatch):
    """The problems passed to ``mjls.lmi.solve_feasibility``."""
    return _count_calls(monkeypatch, solve_feasibility)


def test_validate_runs_once_per_check(tmp_path, validate_calls):
    # Each verb validates the model where it first uses it; distributed
    # synthesis validates again in the corollary check that certifies it.
    model = str(scalar_model_file(tmp_path))
    distributed, centralized = str(tmp_path / "distributed.json"), str(tmp_path / "centralized.json")
    sim_flags = ["--x1=1", "--x2=0", "--horizon", "0.01", "--dt", "0.001"]
    runs = {
        "synthesize distributed": ["synthesize", model, "--scheme", "distributed", "--out", distributed],
        "synthesize centralized": ["synthesize", model, "--scheme", "centralized", "--out", centralized],
        "certify distributed": ["certify", model, distributed],
        "certify centralized": ["certify", model, centralized],
        "simulate": ["simulate", model, distributed, *sim_flags, "--out", str(tmp_path / "t.csv")],
        "montecarlo": ["montecarlo", model, distributed, "--runs", "2", *sim_flags, "--out", str(tmp_path / "r.json")],
    }
    counts = {}
    for label, argv in runs.items():
        del validate_calls[:]
        assert main(argv) == 0, label
        counts[label] = len(validate_calls)
    assert counts == {
        "synthesize distributed": 2,
        "synthesize centralized": 1,
        "certify distributed": 1,
        "certify centralized": 1,
        "simulate": 1,
        "montecarlo": 1,
    }



def test_joint_bank_check_builds_no_joint_system(monkeypatch):
    # check_bank reads the joint mode count and state dimension off the two
    # subsystems, with the messages it gave when it built the joint system.
    model, bank = load_model(demo_path()), load_bank(PERF_DATA / "bank_centralized.json")
    calls = _count_calls(monkeypatch, model_module.joint_system)
    assert synthesis.check_bank(model, bank) is bank
    p, s = bank.lyapunov[0].p_matrices, bank.lyapunov[0].s_values
    for edited, message in (
        (p[:-1], "certificate of system 0 has 5 P matrices, expected 6"),
        ((p[0][:4, :4],) + p[1:], r"certificate of system 0, P of mode 1 has shape \(4, 4\), expected \(5, 5\)"),
    ):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            synthesis.check_bank(model, ControllerBank(bank.scheme, bank.gains, {0: synthesis.Lyapunov(edited, s)}))
    assert calls == []


def _negate_mode_1(doc):
    doc["certificate"]["P"][0] = (-np.array(doc["certificate"]["P"][0])).tolist()


def _drop_certificate(doc):
    del doc["certificate"]


class TestCertifySearch:
    """``certify`` of a joint bank evaluates the certificate the bank
    carries and searches for Lyapunov matrices only when it misses or is
    absent.  The stored P of the perfbench bank certify with worst form
    -1.842923e+00; the search finds -1.826816e-07."""

    def test_carried_certificate_needs_no_search(self, tmp_path, capsys, solve_calls):
        code = _certify_edited_doc(tmp_path, lambda doc: None, _CENTRALIZED_BANK)
        assert (code, len(solve_calls)) == (0, 0)
        assert capsys.readouterr().out.endswith("worst: -1.842923e+00\ncertified: yes\n")

    @pytest.mark.parametrize("edit", [_negate_mode_1, _drop_certificate], ids=["candidate-misses", "no-certificate"])
    def test_search_decides(self, tmp_path, capsys, solve_calls, edit):
        code = _certify_edited_doc(tmp_path, edit, _CENTRALIZED_BANK)
        assert (code, len(solve_calls)) == (0, 1)
        captured = capsys.readouterr()
        assert captured.out.endswith("worst: -1.826816e-07\ncertified: yes\n")
        assert captured.err == ""

    @pytest.mark.parametrize("scheme", ["distributed", "centralized"])
    def test_written_bank_certifies_as_synthesized(self, tmp_path, capsys, solve_calls, scheme):
        # Every D a column of 0.5: the bank file must carry the synthesized
        # disturbance scalings, or certify misses the candidate and searches.
        doc = json.loads(demo_path().read_text())
        for system in ("system1", "system2"):
            for mode in doc[system]["modes"]:
                mode["D"] = [[0.5] for _ in mode["D"]]
        model, gains = tmp_path / "disturbed.json", tmp_path / "gains.json"
        model.write_text(canonical_json(doc))
        assert main(["synthesize", str(model), "--scheme", scheme, "--decay", "1.5", "--out", str(gains)]) == 0
        synthesized = capsys.readouterr().out.split("worst closed-loop form eigenvalue: ")[1].split("\n")[0]
        del solve_calls[:]
        assert main(["certify", str(model), str(gains)]) == 0
        assert capsys.readouterr().out.endswith(f"worst: {float(synthesized):+.6e}\ncertified: yes\n")
        assert len(solve_calls) == 0
