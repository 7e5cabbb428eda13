import dataclasses
import functools
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mjls import synthesis as synthesis_module
from mjls.errors import DimensionMismatch, InvalidModel, MissingGain, NotFeasible, SingularX
from mjls.fileio import bank_from_dict, bank_to_dict, load_bank, load_model, save_model
from mjls.lmi import LmiSolution, MapBuilder, SolveStatus, solve_feasibility
from mjls.model import (
    IntegratedModel,
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    ProductPartition,
    RateFamily,
    RegionPartition,
    block_diag,
    compose_integrated,
    mode_pairs,
)
from mjls.synthesis import (
    PSI_MARGIN,
    SYNTHESIS_MARGIN,
    ControllerBank,
    Lyapunov,
    Scheme,
    build_centralized,
    build_distributed,
    build_fullinfo,
    build_psi,
    certify_gains,
    check_bank,
    check_corollary,
    recover_gains,
    synthesize,
)

PERF_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
CENTRALIZED_BANK = PERF_DATA / "bank_centralized.json"


def scalar_integrated(a=-1.0, b=1.0):
    """Hand-built one-dimensional single-mode integrated model."""
    sys = JumpLinearSystem(
        state_dim=1,
        input_dim=1,
        disturbance_dim=1,
        modes=(ModeDynamics([[a]], [[b]], [[0.0]]),),
    )
    return IntegratedModel(
        system=sys,
        partition=ProductPartition(RegionPartition(()), RegionPartition(())),
        rates=RateFamily(([[0.0]],)),
        obs=ObservationModel(([[1.0]],)),
        mode_counts=(1, 1),
    )


class TestBuildPsi:
    def test_identity_p_zero_gain_symmetric_a(self, demo_integrated):
        # With P_i = I and G = 0 the rate-coupling sum vanishes because the
        # generator rows sum to zero, leaving A + A' = 2A for symmetric A.
        model = demo_integrated
        n = model.system.state_dim
        p = [np.eye(n)] * model.mode_count
        gains = {i: np.zeros((model.system.input_dim, n)) for i in range(1, model.mode_count + 1)}
        psi = build_psi(p, gains, model, i=1, m=1)
        a = model.system.dynamics(1).a
        assert np.allclose(psi, a + a.T, atol=1e-12)

    def test_single_mode(self):
        model = scalar_integrated(a=-2.0, b=0.0)
        psi = build_psi([np.array([[3.0]])], {1: np.zeros((1, 1))}, model, 1, 1)
        # P Abar + Abar' P with a scalar: 2 * 3 * (-2) = -12.
        assert np.allclose(psi, [[-12.0]])

    def test_missing_gain(self, demo_integrated):
        p = [np.eye(5)] * 6
        with pytest.raises(MissingGain):
            build_psi(p, {1: np.zeros((2, 5))}, demo_integrated, 1, 1)

    @pytest.mark.parametrize("i, m", [(1, 0), (1, 7), (0, 1), (7, 1)])
    def test_mode_or_cell_out_of_range_refused_first(self, demo_integrated, i, m):
        # Refused before the gains are looked at, so a bad gain does not
        # hide it, and index 0 does not wrap to the last mode or cell.
        p = [np.eye(5)] * 6
        for gains in ({}, {i_hat: np.zeros((2, 5)) for i_hat in range(1, 7)}):
            with pytest.raises(ValueError) as exc:
                build_psi(p, gains, demo_integrated, i, m)
            assert str(exc.value) == f"mode i and cell m must lie in 1..6 and 1..6, got {i} and {m}"

    def test_bad_gain_named_by_its_key(self, demo, demo_integrated):
        # build_psi and the certifier name a missing or misshapen gain as
        # check_bank does, by system id, observation and region pair; a
        # non-finite gain is not refused there, so it comes out uncertified.
        p = [np.eye(5)] * 6
        with pytest.raises(MissingGain) as exc:
            build_psi(p, {1: np.zeros((2, 5))}, demo_integrated, 1, 2)
        assert str(exc.value) == "no gain for system 0, observation 2, regions (1, 2)"
        with pytest.raises(DimensionMismatch) as exc:
            build_psi(p, {i: np.zeros((2, 4)) for i in range(1, 7)}, demo_integrated, 1, 4)
        assert str(exc.value) == "gain for system 0, observation 1, regions (2, 1) has shape (2, 4), expected (2, 5)"
        joint = check_bank(demo, load_bank(CENTRALIZED_BANK))
        target = synthesis_module._integrated_target(demo_integrated)
        key = (0, 3, (2, 2))
        misshapen = dataclasses.replace(joint, gains={**joint.gains, key: np.zeros((1, 5))})
        with pytest.raises(DimensionMismatch) as exc:
            synthesis_module._cell_gains(misshapen, target)
        assert str(exc.value) == "gain for system 0, observation 3, regions (2, 2) has shape (1, 5), expected (2, 5)"
        non_finite = dataclasses.replace(joint, gains={**joint.gains, key: np.full((2, 5), np.nan)})
        gains = synthesis_module._cell_gains(non_finite, target)
        assert np.isnan(gains[4, 2]).all() and np.isfinite(np.delete(gains, 4, axis=0)).all()

    @pytest.mark.parametrize("bank_file", ["bank_distributed.json", "bank_centralized.json"])
    @pytest.mark.parametrize("disturbed", [False, True], ids=["undisturbed", "disturbed"])
    def test_stacked_forms_match_the_form_loop(self, demo, bank_file, disturbed):
        # Every form, stacked over (mode, cell) or one at a time through
        # build_psi, equals bit for bit the form computed alone, each sum
        # taken in index order from zero: the order of operations is kept.
        if disturbed:
            demo = dataclasses.replace(demo, sys1=dataclasses.replace(demo.sys1, modes=tuple(
                dataclasses.replace(m, d=np.full_like(m.d, 0.5)) for m in demo.sys1.modes
            )))
        model = compose_integrated(demo)
        joint = check_bank(demo, load_bank(CENTRALIZED_BANK.parent / bank_file))
        sys, rng = model.system, np.random.default_rng(5)
        p = [q @ q.T + np.eye(5) for q in rng.normal(size=(sys.mode_count, 5, 5))]
        s = rng.uniform(0.5, 2.0, size=sys.mode_count)
        target = synthesis_module._integrated_target(model)
        gain_stack = synthesis_module._cell_gains(joint, target)
        cell_gains = [dict(zip(target.modes, gains)) for gains in gain_stack]
        loops = synthesis_module._closed_loops(sys, target.cells, gain_stack)
        stacked = synthesis_module._forms(sys, target.cells, loops, p, target.modes, s)
        for k, (i, (cell, gains)) in enumerate(itertools.product(target.modes, zip(target.cells, cell_gains))):
            dyn = sys.dynamics(i)
            a_bar = np.zeros((5, 5))
            for i_hat in target.modes:
                a_bar += cell.alpha[i - 1, i_hat - 1] * (dyn.a + dyn.b @ gains[i_hat])
            psi = p[i - 1] @ a_bar + a_bar.T @ p[i - 1]
            for j in target.modes:
                psi += cell.rates[i - 1, j - 1] * p[j - 1]
            if np.any(dyn.d):
                pd = p[i - 1] @ dyn.d
                psi += s[i - 1] * (pd @ pd.T)
            want = 0.5 * (psi + psi.T)
            assert stacked[k].tobytes() == want.tobytes()
            assert build_psi(p, gains, model, i, cell.key, s[i - 1]).tobytes() == want.tobytes()


class TestBuildCentralized:
    def test_example_counts_and_dimensions(self, paper_integrated):
        prob = build_centralized(paper_integrated)
        assert len(prob.neg) == 36
        assert all(b.dim == 30 for b in prob.neg)  # 5 + 5*5
        assert len(prob.pos) == 6  # X_i > 0; no s (disturbance-free)
        # Variables: 6 sym 5x5 + 36 rect 2x5.
        assert prob.layout.size == 6 * 15 + 36 * 10

    def test_scalar_stable_mode_feasible_with_zero_gain(self):
        model = scalar_integrated(a=-1.0, b=1.0)
        prob = build_centralized(model)
        sol = solve_feasibility(prob)
        assert sol.status is SolveStatus.FEASIBLE

    def test_invalid_generator_rejected(self, paper_integrated):
        bad_rates = list(paper_integrated.rates.matrices)
        g = bad_rates[0].copy()
        g[0, 1] = -0.5
        g[0, 0] = 0.5
        bad_rates[0] = g
        model = IntegratedModel(
            system=paper_integrated.system,
            partition=paper_integrated.partition,
            rates=RateFamily(tuple(bad_rates)),
            obs=paper_integrated.obs,
            mode_counts=paper_integrated.mode_counts,
        )
        with pytest.raises(InvalidModel):
            build_centralized(model)

    def test_missing_emission_matrices_rejected(self, demo_integrated):
        # Only the rate matrices were counted, so the cells past the first
        # read an emission matrix that is not there (IndexError).
        model = dataclasses.replace(demo_integrated, obs=ObservationModel(demo_integrated.obs.alphas[:1]))
        message = re.escape("obs: expected 6 matrices (one per product cell), got 1")
        with pytest.raises(InvalidModel, match=message):
            build_centralized(model)
        with pytest.raises(InvalidModel, match=message):
            certify_gains(model, load_bank(CENTRALIZED_BANK))

    def test_checked_stacks_are_read_only_and_copies_checked_again(self, demo, demo_integrated):
        # certify_gains trusts the stacks that compose_integrated and
        # check_bank built; they cannot change, and a model or bank made
        # from them is checked again.
        joint = check_bank(demo, load_bank(PERF_DATA / "bank_distributed.json"))
        key = next(iter(joint.gains))
        for array in (demo_integrated.rates.matrices[0], demo_integrated.obs.alphas[0], joint.gains[key]):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.5
        with pytest.raises(TypeError):
            joint.gains[key] = np.zeros((2, 5))
        bad = [g.copy() for g in demo_integrated.rates.matrices]
        bad[0][0, 1] = -0.5
        with pytest.raises(InvalidModel, match=re.escape("rates[1][row 1]")):
            certify_gains(dataclasses.replace(demo_integrated, rates=RateFamily(tuple(bad))), joint)
        short = dataclasses.replace(joint, gains={k: g for k, g in joint.gains.items() if k != key})
        with pytest.raises(MissingGain, match=re.escape(f"regions {key[2]}")):
            certify_gains(demo_integrated, short)


class TestBuildFullinfo:
    def test_identical_problems_bitwise(self, paper_integrated):
        a = build_centralized(paper_integrated)
        b = build_fullinfo(paper_integrated)
        assert len(a.neg) == len(b.neg) and len(a.pos) == len(b.pos)
        for ma, mb in zip(a.neg + a.pos, b.neg + b.pos):
            assert np.array_equal(ma.f0, mb.f0)
            assert np.array_equal(ma.entries, mb.entries)
            assert np.array_equal(ma.var_idx, mb.var_idx)
            assert np.array_equal(ma.coeffs, mb.coeffs)


class TestBuildDistributed:
    def test_example_counts(self, paper_model):
        p1, p2 = build_distributed(paper_model)
        assert len(p1.neg) == 12  # |S1| * M1 * M2 = 2*2*3
        assert len(p2.neg) == 18  # |S2| * M1 * M2 = 3*2*3
        assert all(b.dim == 4 for b in p1.neg)  # 2 + 1*2
        assert all(b.dim == 9 for b in p2.neg)  # 3 + 2*3
        assert len(p1.pos) == 2 and len(p2.pos) == 3

    def test_single_mode_single_region(self):
        sys = JumpLinearSystem(1, 1, 1, (ModeDynamics([[-1.0]], [[0.0]], [[0.0]]),))
        model = InterdependentModel(
            sys1=sys,
            sys2=sys,
            part1=RegionPartition(()),
            part2=RegionPartition(()),
            rates1=RateFamily(([[0.0]],)),
            rates2=RateFamily(([[0.0]],)),
            obs1=ObservationModel(([[1.0]],)),
            obs2=ObservationModel(([[1.0]],)),
        )
        p1, p2 = build_distributed(model)
        assert len(p1.neg) == 1 and len(p2.neg) == 1
        s1 = solve_feasibility(p1)
        s2 = solve_feasibility(p2)
        assert s1.status is SolveStatus.FEASIBLE
        assert s2.status is SolveStatus.FEASIBLE

    def test_margin_is_no_argument(self, demo, demo_integrated):
        # The margin is SYNTHESIS_MARGIN; a margin passed as it used to be,
        # by position or by name, is refused, never read as a decay.
        for call in (
            lambda: build_distributed(demo, 1e-6),
            lambda: build_centralized(demo_integrated, 1e-6),
            lambda: synthesize(demo, Scheme.DISTRIBUTED, 1e-6),
            lambda: synthesize(demo, Scheme.DISTRIBUTED, delta=1e-6),
        ):
            with pytest.raises(TypeError):
                call()
        assert all(p.delta == SYNTHESIS_MARGIN for p in build_distributed(demo))


class TestSingularEmission:
    """Gain recovery unmixes through the emission inverse, so centralized
    and distributed synthesis refuse an emission matrix of rank one."""

    ALPHA = [[0.5, 0.5], [0.5, 0.5]]

    @pytest.fixture
    def singular(self, demo):
        alphas = (np.array(self.ALPHA), *demo.obs1.alphas[1:])
        return dataclasses.replace(demo, obs1=ObservationModel(alphas))

    @pytest.mark.parametrize("scheme", [Scheme.DISTRIBUTED, Scheme.CENTRALIZED])
    def test_refused_before_any_problem_is_built(self, singular, scheme, monkeypatch):
        def no_build(*args):
            raise AssertionError("a synthesis problem was built")

        monkeypatch.setattr(synthesis_module, "_build_problem", no_build)
        with pytest.raises(InvalidModel) as exc:
            synthesize(singular, scheme)
        [violation] = exc.value.violations
        assert violation.path == "obs1[1]"
        assert f"{scheme.value} synthesis" in violation.message


class TestIllConditionedEmission(TestSingularEmission):
    """The same at condition number 1e9, which ``validate`` accepts: the
    refusal is synthesis's alone."""

    ALPHA = [[0.5 + 1e-9, 0.5 - 1e-9], [0.5, 0.5]]


class TestRecoverGains:
    def test_scalar_direct(self):
        # X = 2, Y = -4, identity emission -> G = -2.
        model = scalar_integrated(a=-1.0, b=1.0)
        prob = build_centralized(model)
        z = prob.layout.pack({("X", 1): [[2.0]], ("Y", 1, 1): [[-4.0]]})
        sol = solve_feasibility(prob)
        forced = type(sol)(
            z=z,
            status=SolveStatus.FEASIBLE,
            iterations=1,
            neg_margins=np.array([-1.0]),
            pos_margins=np.array([1.0]),
            delta=prob.delta,
            layout=prob.layout,
        )
        bank = recover_gains(forced, model, Scheme.FULL_INFORMATION)
        assert np.allclose(bank.gain(0, 1, (1, 1)), [[-2.0]])

    def test_singular_x_rejected(self):
        model = scalar_integrated(a=-1.0, b=1.0)
        prob = build_centralized(model)
        z = prob.layout.pack({("X", 1): [[1e-14]], ("Y", 1, 1): [[0.0]]})
        forced = LmiSolution(
            z=z,
            status=SolveStatus.FEASIBLE,
            iterations=1,
            neg_margins=np.array([-1.0]),
            pos_margins=np.array([1.0]),
            delta=prob.delta,
            layout=prob.layout,
        )
        with pytest.raises(SingularX):
            recover_gains(forced, model, Scheme.FULL_INFORMATION)

    def test_not_feasible_rejected(self, paper_model):
        p1, p2 = build_distributed(paper_model)
        s1 = solve_feasibility(p1)
        s2 = solve_feasibility(p2)
        with pytest.raises(NotFeasible):
            recover_gains((s1, s2), paper_model, Scheme.DISTRIBUTED)

    def test_distributed_counts_and_consistency(self, demo, demo_bank, demo_outcome):
        # Count invariant: M1*M2*(|S1|+|S2|) = 6*5 = 30.
        assert demo_bank.size == 30
        assert sum(1 for k in demo_bank.gains if k[0] == 1) == 12
        assert sum(1 for k in demo_bank.gains if k[0] == 2) == 18
        # Unmixing consistency: with invertible alpha, the emission-weighted
        # gain mixture reproduces Y X^{-1} in the closed-loop average; check
        # through the synthesis verdict's worst margin being genuinely negative.
        assert demo_outcome.certificate.certified
        assert set(demo_bank.lyapunov) == {1, 2}

    def test_beta_mixing_two_modes(self):
        # Two modes, single region, emission [[0.9,.1],[.1,.9]]: recovery
        # mixes Y_i X_i^{-1} with weights 1.125 / -0.125.
        sys = JumpLinearSystem(
            1, 1, 1,
            (ModeDynamics([[-1.0]], [[1.0]], [[0.0]]), ModeDynamics([[-2.0]], [[1.0]], [[0.0]])),
        )
        single = JumpLinearSystem(1, 1, 1, (ModeDynamics([[-1.0]], [[0.0]], [[0.0]]),))
        model = InterdependentModel(
            sys1=sys,
            sys2=single,
            part1=RegionPartition(()),
            part2=RegionPartition(()),
            rates1=RateFamily(([[-0.5, 0.5], [0.5, -0.5]],)),
            rates2=RateFamily(([[0.0]],)),
            obs1=ObservationModel(([[0.9, 0.1], [0.1, 0.9]],)),
            obs2=ObservationModel(([[1.0]],)),
        )
        out = synthesize(model, Scheme.DISTRIBUTED)
        assert out.bank is not None
        sol1 = out.solutions[0]
        x = {i: sol1.variable(("X", i)) for i in (1, 2)}
        y = {i: sol1.variable(("Y", i, 1, 1)) for i in (1, 2)}
        direct = {i: y[i] @ np.linalg.inv(x[i]) for i in (1, 2)}
        expected_g1 = 1.125 * direct[1] - 0.125 * direct[2]
        assert np.allclose(out.bank.gain(1, 1, (1, 1)), expected_g1, atol=1e-8)
        # Consistency: sum_ihat alpha[i,ihat] G_ihat == Y_i X_i^{-1}.
        alpha = np.array([[0.9, 0.1], [0.1, 0.9]])
        for i in (1, 2):
            mixed = sum(
                alpha[i - 1, ih - 1] * out.bank.gain(1, ih, (1, 1)) for ih in (1, 2)
            )
            assert np.allclose(mixed, direct[i], atol=1e-8)


class TestCertifyGains:
    def test_stable_scalar_zero_gain(self):
        model = scalar_integrated(a=-1.0, b=0.0)
        bank = ControllerBank(
            scheme=Scheme.CENTRALIZED,
            gains={(0, 1, (1, 1)): np.zeros((1, 1))},
        )
        cert = certify_gains(model, bank)
        assert cert.certified
        # The form of x' = -x under P is -2P, whatever scale the search picks.
        assert cert.p_matrices[0][0, 0] > 0.0
        assert np.isclose(cert.psi_max[(1, 1)], -2.0 * cert.p_matrices[0][0, 0], rtol=1e-12, atol=0.0)

    def test_unstable_scalar_cannot_certify(self):
        model = scalar_integrated(a=1.0, b=0.0)
        bank = ControllerBank(
            scheme=Scheme.CENTRALIZED,
            gains={(0, 1, (1, 1)): np.zeros((1, 1))},
        )
        cert = certify_gains(model, bank)
        assert not cert.certified
        # Any genuinely positive definite P makes the form 2P positive.
        p = cert.p_matrices[0]
        assert np.linalg.eigvalsh(p).min() <= 0.0 or cert.worst > 0.0

    def test_tiny_candidate_of_unstable_scalar_not_certified(self):
        # x' = x under the stored P = 1e-12 has the form 2P = +2e-12, far
        # above -PSI_MARGIN.
        model = scalar_integrated(a=1.0, b=0.0)
        bank = ControllerBank(
            scheme=Scheme.CENTRALIZED,
            gains={(0, 1, (1, 1)): np.zeros((1, 1))},
            lyapunov={0: Lyapunov((np.array([[1e-12]]),), (1.0,))},
        )
        cert = certify_gains(model, bank)
        assert not cert.certified

    def test_certificate_soundness(self, demo_integrated, demo_bank, demo):
        # Re-evaluate every closed-loop form independently from the
        # certificate's P matrices and compare against the stored maxima.
        cert = check_corollary(demo, demo_bank)
        assert cert.certified
        for (i, m), stored in cert.psi_max.items():
            gains = {}
            cell = demo_integrated.partition.cell_pair(m)
            for i_hat, (i1, i2) in enumerate(mode_pairs(demo), start=1):
                g1 = demo_bank.gain(1, i1, cell)
                g2 = demo_bank.gain(2, i2, cell)
                g = np.zeros((2, 5))
                g[:1, :2] = g1
                g[1:, 2:] = g2
                gains[i_hat] = g
            psi = build_psi(cert.p_matrices, gains, demo_integrated, i, m)
            assert abs(np.linalg.eigvalsh(psi).max() - stored) <= 1e-9
            assert stored <= -1e-8 + 1e-9

    def test_distributed_certificate_soundness(self, demo, demo_bank):
        # Re-evaluate every subsystem form with plain numpy from the model
        # and the bank's candidate: system 1 runs under rates1[region2] and
        # obs1[region1], system 2 under rates2[region1] and obs2[region2].
        cells = list(itertools.product(range(1, demo.part1.region_count + 1), range(1, demo.part2.region_count + 1)))
        assert len(cells) == 6
        for k, sys, rates, obs in ((1, demo.sys1, demo.rates1, demo.obs1), (2, demo.sys2, demo.rates2, demo.obs2)):
            lyap = demo_bank.lyapunov[k]
            n = sys.mode_count
            assert len(lyap.p_matrices) == len(lyap.s_values) == n
            for i, (m1, m2) in itertools.product(range(1, n + 1), cells):
                own, partner = (m1, m2) if k == 1 else (m2, m1)
                alpha = obs.alpha(own)
                rate = rates.matrix(partner)[i - 1]
                dyn = sys.dynamics(i)
                a_bar = sum(
                    alpha[i - 1, ih - 1] * (dyn.a + dyn.b @ demo_bank.gain(k, ih, (m1, m2)))
                    for ih in range(1, n + 1)
                )
                p = lyap.p_matrices
                form = p[i - 1] @ a_bar + a_bar.T @ p[i - 1] + sum(rate[j] * p[j] for j in range(n))
                pd = p[i - 1] @ dyn.d
                form = form + lyap.s_values[i - 1] * (pd @ pd.T)
                worst = float(np.linalg.eigvalsh(0.5 * (form + form.T))[-1])
                assert worst <= -PSI_MARGIN + 1e-9


class TestCheckCorollary:
    def test_decoupled_stable_scalars(self):
        sys = JumpLinearSystem(1, 1, 1, (ModeDynamics([[-1.0]], [[0.0]], [[0.0]]),))
        model = InterdependentModel(
            sys1=sys,
            sys2=sys,
            part1=RegionPartition(()),
            part2=RegionPartition(()),
            rates1=RateFamily(([[0.0]],)),
            rates2=RateFamily(([[0.0]],)),
            obs1=ObservationModel(([[1.0]],)),
            obs2=ObservationModel(([[1.0]],)),
        )
        zero = np.zeros((1, 1))
        lyap1 = Lyapunov(p_matrices=(np.array([[1.0]]),), s_values=(1.0,))
        lyap2 = Lyapunov(p_matrices=(np.array([[2.0]]),), s_values=(1.0,))
        bank = ControllerBank(
            Scheme.DISTRIBUTED, {(1, 1, (1, 1)): zero, (2, 1, (1, 1)): zero}, {1: lyap1, 2: lyap2}
        )
        cert = check_corollary(model, bank)
        assert cert.certified
        # Block-diagonal candidate keeps the subsystem Lyapunov matrices.
        assert np.allclose(cert.p_matrices[0], np.diag([1.0, 2.0]))

    def test_demo_model_end_to_end(self, demo, demo_bank):
        cert = check_corollary(demo, demo_bank)
        assert cert.certified
        assert len(cert.psi_max) == 36
        assert all(v <= -1e-8 + 1e-9 for v in cert.psi_max.values())

    def test_missing_gain(self, demo, demo_bank):
        gains = dict(demo_bank.gains)
        gains.pop((1, 1, (1, 1)))
        broken = ControllerBank(Scheme.DISTRIBUTED, gains, demo_bank.lyapunov)
        with pytest.raises(MissingGain):
            check_corollary(demo, broken)

    def test_certificate_needs_one_p_per_mode(self, demo, demo_bank):
        lyap1, lyap2 = demo_bank.lyapunov[1], demo_bank.lyapunov[2]
        short = dataclasses.replace(lyap2, p_matrices=lyap2.p_matrices[:2])
        bank = ControllerBank(Scheme.DISTRIBUTED, demo_bank.gains, {1: lyap1, 2: short})
        with pytest.raises(DimensionMismatch, match="certificate of system 2 has 2 P matrices, expected 3"):
            check_corollary(demo, bank)

    def test_non_distributed_bank_refused(self, demo):
        with pytest.raises(MissingGain, match="no gain for system 1"):
            check_corollary(demo, load_bank(CENTRALIZED_BANK))

    @pytest.mark.parametrize("delta", [0.0, -1e6])
    def test_non_positive_margin_rejected(self, demo, demo_bank, demo_integrated, delta):
        # A candidate builds no LmiProblem, so a non-positive margin would let
        # every form clear: the block-diagonal candidate of a zero-gain bank,
        # and the certificate a joint bank carries.  No caller can pass one;
        # the margin is the positive constant, and it refuses the zero gains.
        zero = {key: np.zeros_like(g) for key, g in demo_bank.gains.items()}
        bank = ControllerBank(Scheme.DISTRIBUTED, zero, demo_bank.lyapunov)
        with pytest.raises(TypeError):
            check_corollary(demo, bank, delta=delta)
        with pytest.raises(TypeError):
            certify_gains(demo_integrated, load_bank(CENTRALIZED_BANK), delta=delta)
        assert PSI_MARGIN > 0.0
        assert not check_corollary(demo, bank).certified


def test_removed_settings_are_refused(tmp_path, demo, demo_integrated, demo_bank):
    # Certification's margin is PSI_MARGIN, the solver's cap is a module
    # constant and a written model carries no notes: each, passed as it
    # used to be, by name or by position, is refused before any work.
    joint, problem = check_bank(demo, demo_bank), build_distributed(demo)[0]
    for call in (
        lambda: certify_gains(demo_integrated, joint, delta=1e-8),
        lambda: certify_gains(demo_integrated, joint, 1e-8),
        lambda: check_corollary(demo, demo_bank, delta=1e-8),
        lambda: check_corollary(demo, demo_bank, 1e-8),
        lambda: solve_feasibility(problem, max_iter=20000),
        lambda: solve_feasibility(problem, 20000),
        lambda: save_model(tmp_path / "m.json", demo, notes="n"),
        lambda: save_model(tmp_path / "m.json", demo, "n"),
    ):
        with pytest.raises(TypeError):
            call()
    assert list(tmp_path.iterdir()) == []


class TestSolverParity:
    """Statuses and iteration counts of the perfbench synthesis problems at
    delta 1e-6.  A solver change that moves one changes the iteration, not
    just its rounding."""

    @pytest.mark.parametrize(
        "decay, iterations",
        [(0.0, (6, 5)), (0.5, (7, 5)), (1.0, (7, 5)), (1.5, (7, 6)), (2.0, (7, 7))],
    )
    def test_demo_distributed(self, demo, decay, iterations):
        sols = [solve_feasibility(p) for p in build_distributed(demo, decay=decay)]
        assert [(s.status, s.iterations) for s in sols] == [(SolveStatus.FEASIBLE, n) for n in iterations]

    def test_demo_centralized(self, demo_integrated):
        sol = solve_feasibility(build_centralized(demo_integrated, decay=1.5))
        assert (sol.status, sol.iterations) == (SolveStatus.FEASIBLE, 10)

    def test_published_system_1(self, paper_model):
        # No strictly feasible point (criterion 1, TestPublishedExample): the
        # verdict rests on a checked certificate.
        sol = solve_feasibility(build_distributed(paper_model)[0])
        assert (sol.status, sol.iterations) == (SolveStatus.INFEASIBLE, 17)

    def test_published_system_2(self, paper_model):
        sol = solve_feasibility(build_distributed(paper_model)[1])
        assert (sol.status, sol.iterations) == (SolveStatus.FEASIBLE, 8)


class TestPublishedExample:
    """The published example's synthesis is provably on the feasibility
    boundary once the rate matrices are repaired to valid generators (see
    the analysis notes); the solver must report that honestly rather than
    fabricate a feasible point."""

    def test_distributed_not_feasible(self, paper_model):
        out = synthesize(paper_model, Scheme.DISTRIBUTED)
        assert out.bank is None
        statuses = {s.status for s in out.solutions}
        assert SolveStatus.FEASIBLE not in statuses or out.solutions[0].status is not SolveStatus.FEASIBLE

    def test_printed_gains_do_not_certify_under_repaired_rates(self, paper_model, paper_integrated):
        from mjls.fixtures import example_printed_gains

        printed = example_printed_gains()
        bank = ControllerBank(Scheme.DISTRIBUTED, printed, {})
        cert = check_corollary(paper_model, bank)
        assert not cert.certified
        assert cert.worst > 0.0


class TestDisturbanceHandling:
    """Models with nonzero D engage the 1/kappa substitution: a scalar
    variable multiplies D D' in synthesis, and certification carries the
    disturbance term through a companion block."""

    def disturbed_model(self):
        sys1 = JumpLinearSystem(
            1, 1, 1, (ModeDynamics([[0.5]], [[1.0]], [[0.3]]),)
        )
        sys2 = JumpLinearSystem(
            1, 1, 1, (ModeDynamics([[-1.0]], [[1.0]], [[0.2]]),)
        )
        return InterdependentModel(
            sys1=sys1,
            sys2=sys2,
            part1=RegionPartition(()),
            part2=RegionPartition(()),
            rates1=RateFamily(([[0.0]],)),
            rates2=RateFamily(([[0.0]],)),
            obs1=ObservationModel(([[1.0]],)),
            obs2=ObservationModel(([[1.0]],)),
        )

    def test_scaling_variable_declared_and_bounded(self):
        model = self.disturbed_model()
        p1, _p2 = build_distributed(model)
        assert ("s", 1) in p1.layout.keys
        sol = solve_feasibility(p1)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.variable(("s", 1)) >= SYNTHESIS_MARGIN

    def test_synthesis_and_certification_with_disturbance(self):
        model = self.disturbed_model()
        out = synthesize(model, Scheme.DISTRIBUTED)
        assert out.bank is not None
        assert out.certificate.certified
        for k in (1, 2):
            assert all(s > 0.0 for s in out.bank.lyapunov[k].s_values)
        cor = check_corollary(model, out.bank)
        assert cor.certified

    def test_certify_gains_uses_companion_block(self):
        # Stable scalar with disturbance: P search must succeed and the
        # evaluated form includes the s P D D' P term.
        sys = JumpLinearSystem(1, 1, 1, (ModeDynamics([[-1.0]], [[0.0]], [[0.5]]),))
        model = IntegratedModel(
            system=sys,
            partition=ProductPartition(RegionPartition(()), RegionPartition(())),
            rates=RateFamily(([[0.0]],)),
            obs=ObservationModel(([[1.0]],)),
            mode_counts=(1, 1),
        )
        bank = ControllerBank(
            Scheme.CENTRALIZED, {(0, 1, (1, 1)): np.zeros((1, 1))}, {}
        )
        cert = certify_gains(model, bank)
        assert cert.certified
        p = float(cert.p_matrices[0][0, 0])
        s = cert.s_values[0]
        expected = -2.0 * p + s * (p * 0.5) ** 2
        assert abs(cert.psi_max[(1, 1)] - expected) <= 1e-12

    def test_file_keeps_the_disturbance_scalings(self, demo):
        # With every D a column of 0.5 the synthesized s are far from 1, so a
        # file that dropped them would hand check_corollary a candidate that
        # misses, and its search would return other P and other forms.
        disturbed = dataclasses.replace(demo, **{
            name: dataclasses.replace(sys, modes=tuple(
                dataclasses.replace(m, d=np.full_like(m.d, 0.5)) for m in sys.modes
            ))
            for name, sys in (("sys1", demo.sys1), ("sys2", demo.sys2))
        })
        out = synthesize(disturbed, Scheme.DISTRIBUTED, decay=1.5)
        assert out.certificate.certified
        assert all(abs(s - 1.0) > 0.5 for k in (1, 2) for s in out.bank.lyapunov[k].s_values)
        loaded = bank_from_dict(bank_to_dict(out.bank))
        cert = check_corollary(disturbed, loaded)
        assert cert.psi_max == out.certificate.psi_max
        stored = [
            block_diag(loaded.lyapunov[1].p_matrices[i1 - 1], loaded.lyapunov[2].p_matrices[i2 - 1])
            for i1, i2 in mode_pairs(disturbed)
        ]
        assert all(np.array_equal(p, q) for p, q in zip(cert.p_matrices, stored, strict=True))


class TestFullInformationCertification:
    def test_fullinfo_bank_certified_against_true_mode_reading(self, demo, demo_integrated):
        # The full-information controller reads the true mode; its bank is
        # certified against identity emissions even when the model's own
        # emissions are noisy.
        out = synthesize(demo, Scheme.FULL_INFORMATION, decay=1.0)
        assert out.bank is not None
        assert out.certificate.certified
        cert = certify_gains(demo_integrated, out.bank)
        assert cert.certified


class TestFullInformationEquivalence:
    def test_identity_obs_same_problems_and_banks(self):
        # With identity emissions the unmixing weights collapse, so the two
        # schemes produce bitwise-identical problems and identical banks
        # under the deterministic solver.
        sys1 = JumpLinearSystem(
            1, 1, 1,
            (ModeDynamics([[0.5]], [[1.0]], [[0.0]]), ModeDynamics([[-0.5]], [[1.0]], [[0.0]])),
        )
        sys2 = JumpLinearSystem(1, 1, 1, (ModeDynamics([[1.0]], [[1.0]], [[0.0]]),))
        model = InterdependentModel(
            sys1=sys1,
            sys2=sys2,
            part1=RegionPartition((4.0,)),
            part2=RegionPartition(()),
            rates1=RateFamily(([[-0.2, 0.2], [0.3, -0.3]],)),
            rates2=RateFamily(([[0.0]], [[0.0]])),
            obs1=ObservationModel((np.eye(2), np.eye(2))),
            obs2=ObservationModel((np.eye(1),)),
        )
        out_c = synthesize(model, Scheme.CENTRALIZED)
        out_f = synthesize(model, Scheme.FULL_INFORMATION)
        assert out_c.bank is not None and out_f.bank is not None
        assert np.array_equal(out_c.solutions[0].z, out_f.solutions[0].z)
        assert set(out_c.bank.gains) == set(out_f.bank.gains)
        for key, g in out_c.bank.gains.items():
            assert np.array_equal(g, out_f.bank.gains[key])


# --- stacked assembly against a block-by-block reference ---------------------
#
# The builders place each mode's blocks over all cells as one MapBuilder
# stack.  The references below build the same problems one block at a time,
# each block with its own one-block builder, and must agree bit for bit.


def _with_rates(model, k, index, edit):
    """The model with rates{k}'s matrix ``index`` passed through ``edit``."""
    family = getattr(model, f"rates{k}")
    matrices = [np.array(m, dtype=float) for m in family.matrices]
    matrices[index] = edit(matrices[index])
    return dataclasses.replace(model, **{f"rates{k}": RateFamily(tuple(matrices))})


def _drop_rate(g, i, j):
    """Generator g with rate i -> j moved onto the diagonal (set to zero)."""
    g = g.copy()
    g[i, i] += g[i, j]
    g[i, j] = 0.0
    return g


@functools.cache
def _assembly_model(name):
    """The perfbench models, one with D != 0 in system 1 (1x1 pieces from
    its s variables), and one whose off-diagonal rates vanish in some cells
    and not in others (so a stacked term drops out of some blocks only)."""
    demo = load_model(PERF_DATA / "demo_model.json")
    if name == "example":
        return load_model(PERF_DATA / "example_model.json")
    if name == "disturbed":
        modes = tuple(dataclasses.replace(m, d=np.full_like(m.d, 0.5)) for m in demo.sys1.modes)
        return dataclasses.replace(demo, sys1=dataclasses.replace(demo.sys1, modes=modes))
    if name == "zero-rates":
        model = _with_rates(demo, 1, 1, np.zeros_like)
        return _with_rates(model, 2, 0, lambda g: _drop_rate(g, 0, 1))
    return demo


def _reference_synthesis(problem, target, decay):
    """One target's synthesis problem, block by block, over ``problem``'s
    layout: the builder as it was before blocks were stacked."""
    sys, layout = target.system, problem.layout
    nx = sys.state_dim
    neg, neg_labels = [], []
    for i in target.modes:
        dyn = sys.dynamics(i)
        a = dyn.a + decay * np.eye(nx) if decay else dyn.a
        for cell in target.cells:
            b = MapBuilder(nx * sys.mode_count, layout)
            b.linear(("X", i), left=a, mirror=True)
            b.linear(cell.y_key(i), left=dyn.b, mirror=True)
            if cell.rates[i - 1, i - 1] != 0.0:
                b.linear(("X", i), coeff=float(cell.rates[i - 1, i - 1]))
            if i in target.disturbed_modes:
                b.scalar(("s", i), dyn.d @ dyn.d.T)
            for n, j in enumerate((j for j in target.modes if j != i), start=1):
                rate = float(cell.rates[i - 1, j - 1])
                if rate > 0.0:
                    b.linear(("X", i), coeff=math.sqrt(rate), at=(0, n * nx), mirror=True)
                b.linear(("X", j), coeff=-1.0, at=(n * nx, n * nx))
            neg.append(b.build())
            neg_labels.append(f"mode {i}, {cell.label}")
    return neg, neg_labels, _reference_positivity(target, layout, "X", "s")


def _reference_positivity(target, layout, name, s_name):
    nx = target.system.state_dim
    pos = [MapBuilder(nx, layout).linear((name, i)).build() for i in target.modes]
    pos += [MapBuilder(1, layout).scalar((s_name, i), [[1.0]]).build() for i in target.disturbed_modes]
    labels = [f"{name}{i} > 0" for i in target.modes] + [f"{s_name}{i} > 0" for i in target.disturbed_modes]
    return pos, labels


def _reference_search(problem, target, bank):
    """certify_gains' search problem, block by block."""
    sys, layout = target.system, problem.layout
    nx = sys.state_dim
    a_bar = synthesis_module._closed_loops(sys, target.cells, synthesis_module._cell_gains(bank, target))
    neg, neg_labels = [], []
    for i in target.modes:
        d = sys.dynamics(i).d
        nw = d.shape[1] if i in target.disturbed_modes else 0
        for cell, loop in zip(target.cells, a_bar[i - 1]):
            b = MapBuilder(nx + nw, layout)
            b.linear(("P", i), right=loop, mirror=True)
            for j in target.modes:
                if cell.rates[i - 1, j - 1] != 0.0:
                    b.linear(("P", j), coeff=float(cell.rates[i - 1, j - 1]))
            if nw:
                b.linear(("P", i), right=d, at=(0, nx), mirror=True)
                b.scalar(("r", i), -np.eye(nw), at=(nx, nx))
            neg.append(b.build())
            neg_labels.append(f"mode {i}, {cell.label}")
    return neg, neg_labels, _reference_positivity(target, layout, "P", "r")


def _assert_same_problem(problem, reference):
    neg, neg_labels, (pos, pos_labels) = reference
    assert (problem.neg_labels, problem.pos_labels) == (neg_labels, pos_labels)
    for got, want in zip([*problem.neg, *problem.pos], [*neg, *pos], strict=True):
        assert (got.dim, got.nvars) == (want.dim, want.nvars)
        assert got.f0.tobytes() == want.f0.tobytes()
        assert np.array_equal(got.entries, want.entries) and np.array_equal(got.var_idx, want.var_idx)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


ASSEMBLY_CASES = [*(("demo", d) for d in (0.0, 0.5, 1.0, 1.5, 2.0)), ("example", 0.0), ("disturbed", 1.5), ("zero-rates", 0.5)]


@pytest.mark.parametrize("name, decay", ASSEMBLY_CASES, ids=[f"{n}-{d}" for n, d in ASSEMBLY_CASES])
def test_stacked_assembly_matches_block_by_block(name, decay):
    model = _assembly_model(name)
    for k, problem in enumerate(build_distributed(model, decay=decay), start=1):
        target = synthesis_module._subsystem_target(model, k)
        _assert_same_problem(problem, _reference_synthesis(problem, target, decay))
    integrated = compose_integrated(model)
    problem = build_centralized(integrated, decay=decay)
    _assert_same_problem(problem, _reference_synthesis(problem, synthesis_module._integrated_target(integrated), decay))


class _Searched(Exception):
    pass


@pytest.mark.parametrize("name", ["demo", "disturbed", "zero-rates"])
@pytest.mark.parametrize("bank_file", ["bank_distributed.json", "bank_centralized.json"])
def test_search_problem_matches_block_by_block(monkeypatch, name, bank_file):
    # The perfbench banks without their certificate, so certify searches.
    def searched(problem):
        raise _Searched(problem)

    model = _assembly_model(name)
    bank = check_bank(model, load_bank(PERF_DATA / bank_file))
    integrated = compose_integrated(model)
    monkeypatch.setattr(synthesis_module, "solve_feasibility", searched)
    with pytest.raises(_Searched) as caught:
        certify_gains(integrated, ControllerBank(bank.scheme, bank.gains, {}))
    (problem,) = caught.value.args
    target = synthesis_module._integrated_target(integrated)
    _assert_same_problem(problem, _reference_search(problem, target, bank))


def test_one_build_per_mode_and_target(monkeypatch, demo):
    # Each mode's blocks are one stack over the cells, and each target's
    # positivity maps one more: 2 + 3 modes and 2 targets on the demo model,
    # where a build per block made 30 + 5.  certify's search stacks its
    # blocks the same way over the 6 joint modes and 6 product cells, where
    # a build per block made 36 + 1, and every certify_gains call evaluates
    # the bank's closed loops once, for its candidate and its search alike.
    builds, loops = [], []
    build, closed_loops = MapBuilder.build, synthesis_module._closed_loops

    def counted(self):
        builds.append(self.count)
        return build(self)

    def counted_loops(*args):
        loops.append(len(args[1]))
        return closed_loops(*args)

    monkeypatch.setattr(MapBuilder, "build", counted)
    monkeypatch.setattr(synthesis_module, "_closed_loops", counted_loops)
    build_distributed(demo, decay=1.5)
    assert builds == [6, 6, 2, 6, 6, 6, 3]
    integrated = compose_integrated(demo)
    for bank_file in ("bank_distributed.json", "bank_centralized.json"):
        bank = check_bank(demo, load_bank(PERF_DATA / bank_file))
        own = bank.lyapunov[0]
        missed = Lyapunov(tuple(-p for p in own.p_matrices), own.s_values)
        for lyapunov, stacks in (({0: own}, []), ({}, [6] * 7), ({0: missed}, [6] * 7)):
            builds.clear()
            loops.clear()
            assert certify_gains(integrated, ControllerBank(bank.scheme, bank.gains, lyapunov)).certified
            assert (builds, loops) == (stacks, [6])

