import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mjls import cli
from mjls import model as model_module
from mjls.cli import main
from mjls.fileio import canonical_json, load_bank, load_model, save_bank, save_model
from mjls.fixtures import demo_path, fixture_path
from mjls.lmi import evaluate, solve_feasibility
from mjls.model import (
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
)
from mjls.synthesis import PSI_MARGIN, Certificate, ControllerBank, Scheme, build_distributed

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
            "--max-iter",
            "60000",
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
                "--max-iter",
                "4000",
                "--out",
                str(tmp_path / "g.json"),
            ]
        )
        assert code in (2, 3)

    def test_failed_verdict_prints_binding_constraint(self, tmp_path, capsys):
        # Only problem 1 (system 1) fails within 1000 iterations; its binding
        # constraint is found again by evaluating every block at the
        # solver's best point.
        code = main(
            ["synthesize", str(fixture_path()), "--scheme", "distributed", "--max-iter", "1000",
             "--out", str(tmp_path / "g.json")]
        )
        assert code == 3
        binding = [l for l in capsys.readouterr().out.splitlines() if "binding constraint" in l]
        assert len(binding) == 1 and binding[0].startswith("problem 1: binding constraint mode ")

        problem = build_distributed(load_model(fixture_path()))[0]
        sol = solve_feasibility(problem, 1000)
        misses = [np.linalg.eigvalsh(evaluate(m, sol.z)).max() + problem.delta for m in problem.neg]
        misses += [problem.delta - np.linalg.eigvalsh(evaluate(m, sol.z)).min() for m in problem.pos]
        worst = int(np.argmax(misses))
        assert worst < len(problem.neg)
        label, eigenvalue = binding[0].removeprefix("problem 1: binding constraint ").rsplit(", max eigenvalue ", 1)
        assert label == problem.neg_labels[worst]
        assert abs(float(eigenvalue) - (misses[worst] - problem.delta)) <= 1e-9

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
        code = main(["certify", str(demo_path()), str(out), "--max-iter", "8000"])
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

    def test_zero_gains_not_certified(self, tmp_path, capsys):
        gains = zero_gain_file(tmp_path, demo_path())
        code = main(["certify", str(demo_path()), str(gains), "--max-iter", "3000"])
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

    @pytest.mark.parametrize("flag, expected", [([], PSI_MARGIN), (["--delta", "1e-6"], 1e-6)])
    def test_delta_honoured(self, monkeypatch, tmp_path, flag, expected):
        seen = []

        def fake_check_corollary(model, bank, delta, max_iter):
            seen.append(delta)
            return Certificate((), {(1, (1, 1)): -1.0}, delta, True, ())

        monkeypatch.setattr(cli, "check_corollary", fake_check_corollary)
        gains = zero_gain_file(tmp_path, demo_path())
        assert main(["certify", str(demo_path()), str(gains), *flag]) == 0
        assert seen == [expected]


def _certify_edited_bank(tmp_path, edit) -> int:
    """``mjls certify`` of the perfbench distributed bank on the demo model,
    after ``edit`` changed the bank's list of P matrices in place.  System
    1 has two modes of dimension 2: the list starts with their P."""
    doc = json.loads((PERF_DATA / "bank_distributed.json").read_text())
    edit(doc["certificate"]["P"])
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))  # canonical_json refuses NaN
    return main(["certify", str(PERF_DATA / "demo_model.json"), str(bank)])


def _nan_entry(p):
    p[0][0][0] = float("nan")


def _asymmetric(p):
    p[0][0][1] += 1.0


def _three_by_three(p):
    p[0] = np.eye(3).tolist()


def _overflowing(p):
    p[0] = [[1e308, 1e308], [1e308, 1e308]]


def _scaled_and_moved(p):
    p[0], p[1] = ([[v * 1e5 for v in row] for row in m] for m in p[:2])
    p[0][0][1] += 1e-10


class TestCertificateChecks:
    """The P matrices of a distributed bank file are checked where
    ``check_corollary`` reads them, and a candidate whose forms overflow
    is left to the fallback search."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_nan_entry, "certificate of system 1, P of mode 1 has non-finite entries"),
            (_asymmetric, "certificate of system 1, P of mode 1 is not symmetric within"),
            (_three_by_three, "certificate of system 1, P of mode 1 has shape (3, 3), expected (2, 2)"),
        ],
        ids=["nan", "asymmetric", "wrong-shape"],
    )
    def test_bad_certificate_rejected(self, tmp_path, capsys, edit, message):
        assert _certify_edited_bank(tmp_path, edit) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    # Overflowing forms raise no numpy warning and leave the verdict to the
    # fallback; symmetry is judged against the scale of the entries.
    @pytest.mark.parametrize("edit", [_overflowing, _scaled_and_moved], ids=["overflow", "relative-symmetry"])
    def test_certificate_within_tolerance_certifies(self, tmp_path, capsys, edit):
        assert _certify_edited_bank(tmp_path, edit) == 0
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
        ],
    )
    def test_unread_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, flags, message",
        [
            *(
                (verb, flags, message)
                for verb in ("synthesize", "certify")
                for flags, message in [
                    (["--delta", "0"], "--delta: must be positive and finite, got 0.0"),
                    (["--delta=-1e6"], "--delta: must be positive and finite, got -1000000.0"),
                    (["--delta", "nan"], "--delta: must be positive and finite, got nan"),
                    (["--delta", "inf"], "--delta: must be positive and finite, got inf"),
                    (["--max-iter", "0"], "--max-iter: need at least one iteration, got 0"),
                    (["--max-iter", "-5"], "--max-iter: need at least one iteration, got -5"),
                ]
            ),
            *(("synthesize", [f"--decay={v}"], f"--decay: must be finite, got {v}") for v in ("nan", "inf", "-inf")),
        ],
    )
    def test_bad_solver_flags_rejected_before_any_work(self, tmp_path, capsys, verb, flags, message):
        # The model path does not exist, so only a check made before the
        # model is read can produce the flag's message.
        model = str(tmp_path / "absent.json")
        argv = {
            "synthesize": ["synthesize", model, "--scheme", "distributed", "--out", str(tmp_path / "g.json")],
            "certify": ["certify", model, str(tmp_path / "g.json")],
        }[verb]
        assert main([*argv, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_synthesize_max_iter_bounds_corollary_check(self, monkeypatch, tmp_path):
        seen = []

        def fake_check_corollary(model, bank, delta, max_iter):
            seen.append(max_iter)
            return Certificate((), {(1, (1, 1)): -1.0}, delta, True, ())

        monkeypatch.setattr(cli, "check_corollary", fake_check_corollary)
        model = str(scalar_model_file(tmp_path))
        argv = ["synthesize", model, "--scheme", "distributed", "--max-iter", "77", "--out", str(tmp_path / "g.json")]
        assert main(argv) == 0
        assert seen == [77]

    def test_negative_delta_does_not_certify_zero_gains(self, tmp_path, demo_gains_file, capsys):
        # Zero gains carrying a distributed bank's certificate: the
        # block-diagonal candidate clears any negative margin.
        doc = json.loads(demo_gains_file.read_text())
        for entry in doc["gains"]:
            entry["G"] = np.zeros_like(entry["G"]).tolist()
        gains = tmp_path / "zero_certified.json"
        gains.write_text(canonical_json(doc))
        code = main(["certify", str(demo_path()), str(gains), "--delta=-1e6"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--delta" in captured.err
        assert "certified: yes" not in captured.out


def _add_unused_entry(doc):
    doc.pop("certificate")  # its margin count would no longer match the gains
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


@pytest.fixture
def validate_calls(monkeypatch):
    """The models passed to ``mjls.model.validate``, through every binding of
    it in the mjls modules, rebound as perfbench's tracer rebinds them."""
    calls = []
    original = model_module.validate

    def counted(model):
        calls.append(model)
        return original(model)

    for name, module in list(sys.modules.items()):
        if name == "mjls" or name.startswith("mjls."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


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
