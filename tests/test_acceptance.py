"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria 1-3 target synthesis on the bundled published-example
model with its rate matrices repaired to valid generators; that repaired
problem is provably on the feasibility boundary (no strictly feasible
point exists - see the demo model's notes and README), so those criteria
fail honestly rather than being weakened.
"""

import math
import time

import numpy as np
import pytest

from mjls.cli import main
from mjls.fileio import load_bank, save_bank
from mjls.fixtures import (
    example_initial_state,
    example_model,
    example_printed_gains,
    fixture_path,
)
from mjls.lmi import evaluate
from mjls.model import (
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
    build_beta,
    compose_integrated,
)
from mjls.sim import SimConfig, estimate_stability, step_mode
from mjls.synthesis import (
    ControllerBank,
    Scheme,
    build_centralized,
    build_distributed,
    build_fullinfo,
    check_corollary,
    synthesize,
)

CORRECTED_LAMBDA_1 = np.array([[-0.6, 0.6], [0.4, -0.4]])


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def paper_synthesis():
    """One faithful distributed synthesis attempt on the published fixture."""
    return synthesize(example_model(), Scheme.DISTRIBUTED)


class TestCriterion1:
    def test_distributed_synthesis_on_published_fixture(self, tmp_path, paper_synthesis):
        out = tmp_path / "gains.json"
        t0 = time.perf_counter()
        code = main(
            ["synthesize", str(fixture_path()), "--scheme", "distributed", "--out", str(out)]
        )
        wall = time.perf_counter() - t0

        checks = [("wall time < 60 s", wall < 60.0), ("exit code 0", code == 0)]
        if code == 0:
            bank = load_bank(out)
            checks.append(("exactly 30 gains", bank.size == 30))
            checks.append(("12 gains for system 1", sum(1 for k in bank.gains if k[0] == 1) == 12))
            checks.append(("18 gains for system 2", sum(1 for k in bank.gains if k[0] == 2) == 18))
            worst = max(max(s.neg_margins) for s in paper_synthesis.solutions)
            checks.append(("every block max eigenvalue <= -1e-8", worst <= -1e-8))
        statuses = [s.status.value for s in paper_synthesis.solutions]
        ok = all(flag for _, flag in checks)
        detail = (
            f"wall={wall:.1f}s exit={code} solver statuses={statuses}; "
            + "; ".join(f"{name}={'ok' if flag else 'FAILED'}" for name, flag in checks)
        )
        _report(1, ok, detail)
        assert ok, (
            "distributed synthesis on the repaired published fixture did not"
            f" reach a strictly feasible point ({detail}); the repaired"
            " problem is provably boundary-infeasible"
        )


class TestCriterion2:
    def test_certification_closure(self, paper_synthesis):
        bank = paper_synthesis.bank
        if bank is None:
            detail = "no feasible distributed bank exists for the repaired fixture"
            _report(2, False, detail)
            pytest.fail(detail)
        cert = check_corollary(example_model(), bank)
        ok = cert.certified and len(cert.psi_max) == 36
        _report(2, ok, f"worst form eigenvalue {cert.worst:.3e}")
        assert ok


class TestCriterion3:
    def test_empirical_stabilization(self, paper_synthesis):
        bank = paper_synthesis.bank
        if bank is None:
            detail = "no feasible distributed bank exists for the repaired fixture"
            _report(3, False, detail)
            pytest.fail(detail)
        x1, x2 = example_initial_state()
        t0 = time.perf_counter()
        report = estimate_stability(
            example_model(), bank, SimConfig(dt=1e-3, horizon=10.0, seed=0), 100, x1, x2
        )
        wall = time.perf_counter() - t0
        norm0 = math.sqrt(float(x1 @ x1 + x2 @ x2))
        median_ratio = float(np.median(report.terminal_norms)) / norm0
        ok = median_ratio <= 1e-3 and report.saturation < 0.01 and wall < 120.0
        _report(3, ok, f"median ratio {median_ratio:.2e}, saturation {report.saturation:.2e}")
        assert ok


class TestCriterion4:
    def test_analytic_monte_carlo_oracle(self):
        sys = JumpLinearSystem(1, 1, 1, (ModeDynamics([[-1.0]], [[0.0]], [[0.0]]),))
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
        bank = ControllerBank(
            Scheme.DISTRIBUTED,
            {(1, 1, (1, 1)): np.zeros((1, 1)), (2, 1, (1, 1)): np.zeros((1, 1))},
            {},
        )
        report = estimate_stability(
            model, bank, SimConfig(dt=1e-4, horizon=10.0, seed=0), 1, [1.0], [0.0]
        )
        err = abs(report.mean - 0.5) / 0.5
        ok = err <= 0.02
        _report(4, ok, f"estimated integral {report.mean:.6f} (target 0.5, error {err:.2%})")
        assert ok

class TestCriterion5:
    def test_pseudo_inverse_property_suite(self):
        rng = np.random.default_rng(2024)
        worst_abab = 0.0
        worst_ba = 0.0
        checked_inverse = 0
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            alpha = rng.uniform(size=(n, n))
            if rng.random() < 0.1:
                alpha[-1] = alpha[0]  # singular emission
            alpha /= alpha.sum(axis=1, keepdims=True)
            beta = build_beta(alpha)
            worst_abab = max(worst_abab, float(np.max(np.abs(alpha @ beta @ alpha - alpha))))
            if np.linalg.cond(alpha) < 1e6:
                checked_inverse += 1
                worst_ba = max(worst_ba, float(np.max(np.abs(beta @ alpha - np.eye(n)))))
        ok = worst_abab <= 1e-8 and worst_ba <= 1e-8 and checked_inverse >= 500
        _report(
            5,
            ok,
            f"max |aba - a| = {worst_abab:.2e}, max |ba - I| = {worst_ba:.2e} "
            f"over {checked_inverse} well-conditioned cases",
        )
        assert ok


def _single_region_model(rng):
    """System 1: 2-3 modes, random dynamics, some zero transition rates, D
    nonzero in some modes; system 2 a stable scalar.  One region each."""
    n = int(rng.integers(2, 4))
    nx, nu, nw = (int(v) for v in rng.integers(1, 4, size=3))
    modes = []
    for _ in range(n):
        d = rng.normal(size=(nx, nw)) if rng.random() < 0.5 else np.zeros((nx, nw))
        a = rng.normal(size=(nx, nx)) - rng.uniform(0.0, 4.0) * np.eye(nx)
        modes.append(ModeDynamics(a, rng.normal(size=(nx, nu)), d))
    rates = rng.uniform(0.0, 2.0, size=(n, n)) * (rng.random(size=(n, n)) < 0.6)
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    scalar = JumpLinearSystem(1, 1, 1, (ModeDynamics([[-1.0]], [[0.0]], [[0.0]]),))
    return InterdependentModel(
        sys1=JumpLinearSystem(nx, nu, nw, tuple(modes)),
        sys2=scalar,
        part1=RegionPartition(()),
        part2=RegionPartition(()),
        rates1=RateFamily((rates,)),
        rates2=RateFamily(([[0.0]],)),
        obs1=ObservationModel((np.eye(n),)),
        obs2=ObservationModel(([[1.0]],)),
    )


class TestCriterion6:
    def test_schur_complement_equivalence(self):
        # The definiteness verdict of each synthesis block, as
        # build_distributed emits it, agrees with its dense Schur complement
        # A X_i + X_i A' + B Y_i + Y_i' B' + rate_ii X_i + s D D'
        # + sum_j rate_ij X_i X_j^{-1} X_i at random X_j > 0, Y and s > 0.
        rng = np.random.default_rng(99)
        agreements = 0
        comparisons = 0
        negative = 0
        for _ in range(200):
            model = _single_region_model(rng)
            problem = build_distributed(model)[0]
            sys, rates = model.sys1, model.rates1.matrix(1)
            nx, nu, n = sys.state_dim, sys.input_dim, sys.mode_count
            values = {}
            for key in problem.layout.keys:
                if key[0] == "X":
                    g = rng.normal(size=(nx, nx))
                    values[key] = g @ g.T + 0.5 * np.eye(nx)
                elif key[0] == "Y":
                    values[key] = rng.normal(size=(nu, nx))
                else:
                    values[key] = rng.uniform(0.1, 2.0)
            z = problem.layout.pack(values)
            i = int(rng.integers(1, n + 1))
            dyn = sys.dynamics(i)
            y = next(values[key] for key in problem.layout.keys if key[:2] == ("Y", i))
            s = values.get(("s", i), 0.0)
            x_i = values[("X", i)]
            ax, by = dyn.a @ x_i, dyn.b @ y
            complement = ax + ax.T + by + by.T + rates[i - 1, i - 1] * x_i + s * (dyn.d @ dyn.d.T)
            for j in range(1, n + 1):
                if j != i:
                    complement = complement + rates[i - 1, j - 1] * (x_i @ np.linalg.solve(values[("X", j)], x_i))
            assert problem.neg_labels[i - 1] == f"mode {i}, regions (1,1)"
            block_eig = np.linalg.eigvalsh(evaluate(problem.neg[i - 1], z)).max()
            comp_eig = np.linalg.eigvalsh(0.5 * (complement + complement.T)).max()
            if abs(comp_eig) < 1e-6 or abs(block_eig) < 1e-6:
                continue
            comparisons += 1
            negative += comp_eig < 0.0
            if (block_eig < 0.0) == (comp_eig < 0.0):
                agreements += 1
        ok = comparisons >= 150 and agreements == comparisons
        _report(
            6,
            ok,
            f"{agreements}/{comparisons} sign agreements past the 1e-6 boundary margin"
            f" ({negative} negative definite)",
        )
        assert ok


class TestCriterion7:
    def test_full_information_reduction(self, demo):
        # Identical problems on the published fixture (the blocks never
        # reference the emissions), checked bitwise.
        integ = compose_integrated(example_model())
        a = build_centralized(integ)
        b = build_fullinfo(integ)
        problems_equal = all(
            np.array_equal(ma.f0, mb.f0)
            and np.array_equal(ma.entries, mb.entries)
            and np.array_equal(ma.var_idx, mb.var_idx)
            and np.array_equal(ma.coeffs, mb.coeffs)
            for ma, mb in zip(a.neg + a.pos, b.neg + b.pos)
        )
        # Identical banks under the deterministic solver, on a feasible
        # model with identity emissions everywhere.
        ident = InterdependentModel(
            sys1=demo.sys1,
            sys2=demo.sys2,
            part1=demo.part1,
            part2=demo.part2,
            rates1=demo.rates1,
            rates2=demo.rates2,
            obs1=ObservationModel(tuple(np.eye(2) for _ in demo.obs1.alphas)),
            obs2=ObservationModel(tuple(np.eye(3) for _ in demo.obs2.alphas)),
        )
        out_c = synthesize(ident, Scheme.CENTRALIZED, decay=1.0)
        out_f = synthesize(ident, Scheme.FULL_INFORMATION, decay=1.0)
        banks_equal = (
            out_c.bank is not None
            and out_f.bank is not None
            and out_c.bank.size == 36  # M1*M2*|S1|*|S2| for the integrated scheme
            and set(out_c.bank.gains) == set(out_f.bank.gains)
            and all(np.array_equal(g, out_f.bank.gains[k]) for k, g in out_c.bank.gains.items())
        )
        ok = problems_equal and banks_equal
        _report(7, ok, f"problems bitwise equal: {problems_equal}; banks identical: {banks_equal}")
        assert ok


class TestCriterion8:
    def test_jump_law_calibration(self):
        # Null-space oracle: stationary pi solves pi @ L = 0, sum(pi) = 1.
        lam = CORRECTED_LAMBDA_1
        a = np.vstack([lam.T, np.ones(2)])
        rhs = np.array([0.0, 0.0, 1.0])
        pi = np.linalg.lstsq(a, rhs, rcond=None)[0]
        assert np.allclose(pi, [0.4, 0.6], atol=1e-12)

        dt = 1e-3
        steps = 10_000_000  # T = 1e4
        rng = np.random.default_rng(8)
        mode = 1
        occupancy1 = 0
        batch_size = steps // 100
        batch_counts = []
        count = 0
        rows = (lam[0], lam[1])
        for n in range(steps):
            if mode == 1:
                count += 1
            mode = step_mode(rng, mode, rows[mode - 1], dt)
            if (n + 1) % batch_size == 0:
                batch_counts.append(count / batch_size)
                occupancy1 += count
                count = 0
        occ = occupancy1 / (100 * batch_size)
        se = float(np.std(batch_counts, ddof=1) / math.sqrt(len(batch_counts)))
        ok = abs(occ - 0.4) <= 3 * se
        _report(8, ok, f"occupancy {occ:.4f} vs 0.4, 3*SE = {3 * se:.4f}")
        assert ok


class TestCriterion9:
    def test_published_gain_audit(self, tmp_path, capsys):
        bank = ControllerBank(Scheme.DISTRIBUTED, example_printed_gains(), {})
        gains_path = tmp_path / "printed_gains.json"
        save_bank(gains_path, bank)
        code = main(["certify", str(fixture_path()), str(gains_path)])
        captured = capsys.readouterr()
        margin_lines = [l for l in captured.out.splitlines() if l.startswith("  mode")]
        has_verdict = any(l.startswith("certified:") for l in captured.out.splitlines())
        ok = code in (0, 2) and len(margin_lines) == 36 and has_verdict
        verdict = "certified" if code == 0 else "not certified"
        _report(9, ok, f"audit completed, 36 margins printed, verdict: {verdict}")
        print(captured.out, end="")
        assert ok
