import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from mjls.errors import InvalidModel, MissingGain, NotFeasible, SingularX
from mjls.fileio import load_bank
from mjls.lmi import LmiSolution, SolveStatus, solve_feasibility
from mjls.linalg import sym_eig
from mjls.model import (
    IntegratedModel,
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    ProductPartition,
    RateFamily,
    RegionPartition,
    mode_pairs,
)
from mjls.synthesis import (
    Certificate,
    ControllerBank,
    Scheme,
    build_centralized,
    build_distributed,
    build_fullinfo,
    build_psi,
    certify_gains,
    check_corollary,
    recover_gains,
    synthesize,
)

CENTRALIZED_BANK = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "bank_centralized.json"


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


class TestBuildCentralized:
    def test_example_counts_and_dimensions(self, paper_integrated):
        prob = build_centralized(paper_integrated, delta=1e-6)
        assert len(prob.neg) == 36
        assert all(b.dim == 30 for b in prob.neg)  # 5 + 5*5
        assert len(prob.pos) == 6  # X_i > 0; no s (disturbance-free)
        # Variables: 6 sym 5x5 + 36 rect 2x5.
        assert prob.layout.size == 6 * 15 + 36 * 10

    def test_scalar_stable_mode_feasible_with_zero_gain(self):
        model = scalar_integrated(a=-1.0, b=1.0)
        prob = build_centralized(model, delta=1e-6)
        sol = solve_feasibility(prob, 2000)
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
            build_centralized(model, delta=1e-6)

    def test_missing_emission_matrices_rejected(self, demo_integrated):
        # Only the rate matrices were counted, so the cells past the first
        # read an emission matrix that is not there (IndexError).
        model = dataclasses.replace(demo_integrated, obs=ObservationModel(demo_integrated.obs.alphas[:1]))
        message = re.escape("obs: expected 6 matrices (one per product cell), got 1")
        with pytest.raises(InvalidModel, match=message):
            build_centralized(model)
        with pytest.raises(InvalidModel, match=message):
            certify_gains(model, load_bank(CENTRALIZED_BANK))

    def test_initial_point(self, paper_integrated):
        prob = build_centralized(paper_integrated, delta=1e-6)
        for i in range(1, 7):
            assert np.array_equal(prob.layout.unpack(prob.z0, ("X", i)), np.eye(5))
            for m in range(1, 7):
                assert np.array_equal(prob.layout.unpack(prob.z0, ("Y", i, m)), np.zeros((2, 5)))


class TestBuildFullinfo:
    def test_identical_problems_bitwise(self, paper_integrated):
        a = build_centralized(paper_integrated, delta=1e-6)
        b = build_fullinfo(paper_integrated, delta=1e-6)
        assert len(a.neg) == len(b.neg) and len(a.pos) == len(b.pos)
        for ma, mb in zip(a.neg + a.pos, b.neg + b.pos):
            assert np.array_equal(ma.f0, mb.f0)
            assert np.array_equal(ma.entries, mb.entries)
            assert np.array_equal(ma.var_idx, mb.var_idx)
            assert np.array_equal(ma.coeffs, mb.coeffs)
        assert np.array_equal(a.z0, b.z0)


class TestBuildDistributed:
    def test_example_counts(self, paper_model):
        p1, p2 = build_distributed(paper_model, delta=1e-6)
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
        p1, p2 = build_distributed(model, delta=1e-6)
        assert len(p1.neg) == 1 and len(p2.neg) == 1
        s1 = solve_feasibility(p1, 1000)
        s2 = solve_feasibility(p2, 1000)
        assert s1.status is SolveStatus.FEASIBLE
        assert s2.status is SolveStatus.FEASIBLE


class TestRecoverGains:
    def test_scalar_direct(self):
        # X = 2, Y = -4, identity emission -> G = -2.
        model = scalar_integrated(a=-1.0, b=1.0)
        prob = build_centralized(model, delta=1e-6)
        z = prob.layout.pack({("X", 1): [[2.0]], ("Y", 1, 1): [[-4.0]]})
        sol = solve_feasibility(prob, 2000)
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
        prob = build_centralized(model, delta=1e-6)
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
        p1, p2 = build_distributed(paper_model, delta=1e-6)
        s1 = solve_feasibility(p1, 10)
        s2 = solve_feasibility(p2, 10000)
        with pytest.raises(NotFeasible):
            recover_gains((s1, s2), paper_model, Scheme.DISTRIBUTED)

    def test_distributed_counts_and_consistency(self, demo, demo_bank):
        # Count invariant: M1*M2*(|S1|+|S2|) = 6*5 = 30.
        assert demo_bank.size == 30
        assert sum(1 for k in demo_bank.gains if k[0] == 1) == 12
        assert sum(1 for k in demo_bank.gains if k[0] == 2) == 18
        # Unmixing consistency: with invertible alpha, the emission-weighted
        # gain mixture reproduces Y X^{-1} in the closed-loop average; check
        # through the certificate's worst margin being genuinely negative.
        for k in (1, 2):
            assert demo_bank.certificates[k].certified

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
        out = synthesize(model, Scheme.DISTRIBUTED, delta=1e-4, max_iter=20000)
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
            certificates={},
        )
        cert = certify_gains(model, bank, delta=1e-8)
        assert cert.certified
        assert np.allclose(cert.p_matrices[0], [[1.0]])
        assert np.isclose(cert.psi_max[(1, 1)], -2.0)

    def test_unstable_scalar_cannot_certify(self):
        model = scalar_integrated(a=1.0, b=0.0)
        bank = ControllerBank(
            scheme=Scheme.CENTRALIZED,
            gains={(0, 1, (1, 1)): np.zeros((1, 1))},
            certificates={},
        )
        cert = certify_gains(model, bank, delta=1e-8, max_iter=3000)
        assert not cert.certified
        # Any genuinely positive definite P makes the form 2P positive.
        p = cert.p_matrices[0]
        assert sym_eig(p).min <= 0.0 or cert.worst > 0.0

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
            assert abs(sym_eig(psi).max - stored) <= 1e-9
            assert stored <= -1e-8 + 1e-9

    def test_distributed_certificate_soundness(self, demo, demo_bank):
        # Re-evaluate every subsystem form with plain numpy from the model:
        # system 1 runs under rates1[region2] and obs1[region1], system 2
        # under rates2[region1] and obs2[region2].
        for k, sys, rates, obs in ((1, demo.sys1, demo.rates1, demo.obs1), (2, demo.sys2, demo.rates2, demo.obs2)):
            cert = demo_bank.certificates[k]
            n = sys.mode_count
            assert len(cert.psi_max) == n * 6
            for (i, (m1, m2)), stored in cert.psi_max.items():
                own, partner = (m1, m2) if k == 1 else (m2, m1)
                alpha = obs.alpha(own)
                rate = rates.matrix(partner)[i - 1]
                dyn = sys.dynamics(i)
                a_bar = sum(
                    alpha[i - 1, ih - 1] * (dyn.a + dyn.b @ demo_bank.gain(k, ih, (m1, m2)))
                    for ih in range(1, n + 1)
                )
                p = cert.p_matrices
                form = p[i - 1] @ a_bar + a_bar.T @ p[i - 1] + sum(rate[j] * p[j] for j in range(n))
                pd = p[i - 1] @ dyn.d
                form = form + cert.s_values[i - 1] * (pd @ pd.T)
                worst = float(np.linalg.eigvalsh(0.5 * (form + form.T))[-1])
                assert abs(worst - stored) <= 1e-9 * max(1.0, abs(stored))
                assert stored <= -1e-8 + 1e-9


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
        cert1 = Certificate(
            p_matrices=(np.array([[1.0]]),),
            psi_max={(1, (1, 1)): -2.0},
            delta=1e-8,
            certified=True,
            s_values=(1.0,),
        )
        cert2 = Certificate(
            p_matrices=(np.array([[2.0]]),),
            psi_max={(1, (1, 1)): -4.0},
            delta=1e-8,
            certified=True,
            s_values=(1.0,),
        )
        bank = ControllerBank(
            Scheme.DISTRIBUTED, {(1, 1, (1, 1)): zero, (2, 1, (1, 1)): zero}, {1: cert1, 2: cert2}
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
        broken = ControllerBank(Scheme.DISTRIBUTED, gains, demo_bank.certificates)
        with pytest.raises(MissingGain):
            check_corollary(demo, broken)

    def test_non_distributed_bank_refused(self, demo):
        with pytest.raises(MissingGain, match="no gain for system 1"):
            check_corollary(demo, load_bank(CENTRALIZED_BANK))

    @pytest.mark.parametrize("delta", [0.0, -1e6])
    def test_non_positive_margin_rejected(self, demo, demo_bank, delta):
        # The block-diagonal candidate builds no LmiProblem, so without its
        # own check every form would clear a negative margin.
        zero = {key: np.zeros_like(g) for key, g in demo_bank.gains.items()}
        bank = ControllerBank(Scheme.DISTRIBUTED, zero, demo_bank.certificates)
        with pytest.raises(ValueError, match="delta must be positive"):
            check_corollary(demo, bank, delta=delta)


class TestSolverParity:
    """Statuses and iteration counts of the perfbench synthesis problems at
    delta 1e-6.  A solver change that moves one changes the iteration, not
    just its rounding."""

    @pytest.mark.parametrize(
        "decay, iterations",
        [(0.0, (215, 62)), (0.5, (305, 73)), (1.0, (411, 57)), (1.5, (585, 137)), (2.0, (907, 280))],
    )
    def test_demo_distributed(self, demo, decay, iterations):
        sols = [solve_feasibility(p, 20000) for p in build_distributed(demo, 1e-6, decay)]
        assert [(s.status, s.iterations) for s in sols] == [(SolveStatus.FEASIBLE, n) for n in iterations]

    def test_demo_centralized(self, demo_integrated):
        sol = solve_feasibility(build_centralized(demo_integrated, 1e-6, 1.5), 20000)
        assert (sol.status, sol.iterations) == (SolveStatus.FEASIBLE, 730)


class TestPublishedExample:
    """The published example's synthesis is provably on the feasibility
    boundary once the rate matrices are repaired to valid generators (see
    the analysis notes); the solver must report that honestly rather than
    fabricate a feasible point."""

    def test_distributed_not_feasible(self, paper_model):
        out = synthesize(paper_model, Scheme.DISTRIBUTED, delta=1e-6, max_iter=20000)
        assert out.bank is None
        statuses = {s.status for s in out.solutions}
        assert SolveStatus.FEASIBLE not in statuses or out.solutions[0].status is not SolveStatus.FEASIBLE

    def test_printed_gains_do_not_certify_under_repaired_rates(self, paper_model, paper_integrated):
        from mjls.fixtures import example_printed_gains

        printed = example_printed_gains()
        bank = ControllerBank(Scheme.DISTRIBUTED, printed, {})
        cert = check_corollary(paper_model, bank, delta=1e-8)
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
        p1, _p2 = build_distributed(model, delta=1e-4)
        assert ("s", 1) in p1.layout.keys
        sol = solve_feasibility(p1, 5000)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.variable(("s", 1)) >= 1e-4 - 1e-9

    def test_synthesis_and_certification_with_disturbance(self):
        model = self.disturbed_model()
        out = synthesize(model, Scheme.DISTRIBUTED, delta=1e-4, max_iter=20000)
        assert out.bank is not None
        for k in (1, 2):
            cert = out.bank.certificates[k]
            assert cert.certified
            assert all(s > 0.0 for s in cert.s_values)
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
        cert = certify_gains(model, bank, delta=1e-8)
        assert cert.certified
        p = float(cert.p_matrices[0][0, 0])
        s = cert.s_values[0]
        expected = -2.0 * p + s * (p * 0.5) ** 2
        assert abs(cert.psi_max[(1, 1)] - expected) <= 1e-12


class TestFullInformationCertification:
    def test_fullinfo_bank_certified_against_true_mode_reading(self, demo, demo_integrated):
        # The full-information controller reads the true mode; its bank is
        # certified against identity emissions even when the model's own
        # emissions are noisy.
        out = synthesize(demo, Scheme.FULL_INFORMATION, delta=1e-6, max_iter=20000, decay=1.0)
        assert out.bank is not None
        assert out.bank.certificates[0].certified
        cert = certify_gains(demo_integrated, out.bank, delta=1e-8)
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
        out_c = synthesize(model, Scheme.CENTRALIZED, delta=1e-4, max_iter=20000)
        out_f = synthesize(model, Scheme.FULL_INFORMATION, delta=1e-4, max_iter=20000)
        assert out_c.bank is not None and out_f.bank is not None
        assert np.array_equal(out_c.solutions[0].z, out_f.solutions[0].z)
        assert set(out_c.bank.gains) == set(out_f.bank.gains)
        for key, g in out_c.bank.gains.items():
            assert np.array_equal(g, out_f.bank.gains[key])
