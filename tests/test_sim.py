import math

import numpy as np
import pytest

from mjls import sim
from mjls.errors import MissingGain
from mjls.fixtures import demo_model, example_initial_state
from mjls.model import (
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
)
from mjls.sim import (
    DecayingSine,
    OnChange,
    Periodic,
    SimConfig,
    control_input,
    energy_functional,
    estimate_stability,
    sample_observation,
    simulate,
    step_mode,
)
from mjls.synthesis import ControllerBank, Scheme

CORRECTED_LAMBDA_1 = np.array([[-0.6, 0.6], [0.4, -0.4]])


def static_model(n_modes1=1, rates1=None, obs1=None):
    """x' = 0 model so only the chains and observations evolve."""
    modes1 = tuple(
        ModeDynamics(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        for _ in range(n_modes1)
    )
    sys1 = JumpLinearSystem(1, 1, 1, modes1)
    sys2 = JumpLinearSystem(1, 1, 1, (ModeDynamics([[0.0]], [[0.0]], [[0.0]]),))
    eye1 = np.eye(n_modes1)
    return InterdependentModel(
        sys1=sys1,
        sys2=sys2,
        part1=RegionPartition(()),
        part2=RegionPartition(()),
        rates1=RateFamily((rates1 if rates1 is not None else np.zeros((n_modes1, n_modes1)),)),
        rates2=RateFamily((np.zeros((1, 1)),)),
        obs1=ObservationModel((obs1 if obs1 is not None else eye1,)),
        obs2=ObservationModel((np.eye(1),)),
    )


def zero_bank(model):
    gains = {}
    for i in range(1, model.sys1.mode_count + 1):
        gains[(1, i, (1, 1))] = np.zeros((1, 1))
    for i in range(1, model.sys2.mode_count + 1):
        gains[(2, i, (1, 1))] = np.zeros((1, 1))
    return ControllerBank(Scheme.DISTRIBUTED, gains, {})


def scalar_decay_model(a=-1.0):
    sys = JumpLinearSystem(1, 1, 1, (ModeDynamics([[a]], [[0.0]], [[0.0]]),))
    return InterdependentModel(
        sys1=sys,
        sys2=sys,
        part1=RegionPartition(()),
        part2=RegionPartition(()),
        rates1=RateFamily((np.zeros((1, 1)),)),
        rates2=RateFamily((np.zeros((1, 1)),)),
        obs1=ObservationModel((np.eye(1),)),
        obs2=ObservationModel((np.eye(1),)),
    )


class TestStepMode:
    def test_zero_rates_stay(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert step_mode(rng, 1, np.zeros(3), 0.01) == 1

    def test_jump_frequency_binomial(self):
        # gamma_12 = 0.6, dt = 0.01 -> per-step jump probability 0.006;
        # binomial concentration over 1e6 draws.
        rng = np.random.default_rng(42)
        row = np.array([-0.6, 0.6])
        n = 1_000_000
        jumps = sum(1 for _ in range(n) if step_mode(rng, 1, row, 0.01) == 2)
        assert abs(jumps / n - 0.006) <= 3e-4

    def test_corrected_rate_mode_two(self):
        # Corrected lambda^1 row 2 jumps at rate 0.4: probability 4e-4 per
        # step at dt = 1e-3.
        rng = np.random.default_rng(7)
        n = 1_000_000
        jumps = sum(
            1 for _ in range(n) if step_mode(rng, 2, CORRECTED_LAMBDA_1[1], 1e-3) == 1
        )
        se = math.sqrt(4e-4 * (1 - 4e-4) / n)
        assert abs(jumps / n - 4e-4) <= 3 * se


class TestSampleObservation:
    def test_identity_row(self):
        rng = np.random.default_rng(0)
        assert all(sample_observation(rng, [0.0, 1.0, 0.0]) == 2 for _ in range(50))

    def test_empirical_law(self):
        rng = np.random.default_rng(3)
        n = 1_000_000
        hits = sum(1 for _ in range(n) if sample_observation(rng, [0.9, 0.1]) == 1)
        assert abs(hits / n - 0.9) <= 1e-3

    def test_uniform_row(self):
        rng = np.random.default_rng(4)
        n = 1_000_000
        hits = sum(1 for _ in range(n) if sample_observation(rng, [0.5, 0.5]) == 1)
        assert abs(hits / n - 0.5) <= 1e-3


class TestControlInput:
    def test_zero_gain(self):
        model = static_model()
        bank = zero_bank(model)
        assert np.array_equal(control_input(bank, 1, 1, 1, 1, [3.0]), [0.0])

    def test_dot_product(self):
        bank = ControllerBank(
            Scheme.DISTRIBUTED, {(1, 1, (1, 1)): np.array([[-2.0, 1.0]])}, {}
        )
        assert np.allclose(control_input(bank, 1, 1, 1, 1, [3.0, 4.0]), [-2.0])

    def test_published_gain_arithmetic(self):
        bank = ControllerBank(
            Scheme.DISTRIBUTED, {(1, 1, (1, 1)): np.array([[-8.638, -0.498]])}, {}
        )
        u = control_input(bank, 1, 1, 1, 1, [-6.0, 5.0])
        assert np.allclose(u, [49.338], atol=1e-9)

    def test_missing_gain(self):
        bank = ControllerBank(Scheme.DISTRIBUTED, {}, {})
        with pytest.raises(MissingGain):
            control_input(bank, 1, 1, 1, 1, [1.0])


class TestSimulate:
    def test_static_system_state_constant(self):
        model = static_model()
        trace = simulate(model, zero_bank(model), SimConfig(dt=0.01, horizon=1.0, seed=0), [2.0], [-1.0])
        assert np.all(trace.x1 == 2.0)
        assert np.all(trace.x2 == -1.0)

    def test_scalar_exponential_oracle(self):
        model = scalar_decay_model()
        trace = simulate(model, zero_bank(model), SimConfig(dt=1e-3, horizon=5.0, seed=0), [1.0], [0.0])
        assert abs(trace.x1[-1, 0] - math.exp(-5.0)) <= 1e-6 * math.exp(-5.0)

    def test_zero_horizon_single_row(self):
        model = static_model()
        trace = simulate(model, zero_bank(model), SimConfig(dt=0.01, horizon=0.0, seed=0), [1.0], [1.0])
        assert len(trace) == 1

    def test_bit_identical_for_same_seed(self):
        model = static_model(
            n_modes1=2,
            rates1=CORRECTED_LAMBDA_1,
            obs1=np.array([[0.9, 0.1], [0.1, 0.9]]),
        )
        bank = zero_bank(model)
        cfg = SimConfig(dt=0.01, horizon=50.0, seed=1234)
        a = simulate(model, bank, cfg, [1.0], [0.0])
        b = simulate(model, bank, cfg, [1.0], [0.0])
        for field in ("t", "x1", "x2", "mode1", "mode2", "obs1", "obs2", "u1", "u2", "region1", "region2"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_modes_piecewise_constant_and_in_range(self):
        model = static_model(n_modes1=2, rates1=CORRECTED_LAMBDA_1)
        trace = simulate(model, zero_bank(model), SimConfig(dt=0.01, horizon=100.0, seed=5), [1.0], [0.0])
        assert set(np.unique(trace.mode1)) <= {1, 2}
        assert len(trace) == 10001

    def test_dt_bound_rejected(self):
        model = static_model(n_modes1=2, rates1=CORRECTED_LAMBDA_1)
        with pytest.raises(ValueError, match="jump-probability cap"):
            simulate(model, zero_bank(model), SimConfig(dt=0.5, horizon=1.0, seed=0), [1.0], [0.0])

    def test_mode_occupancy_matches_stationary_distribution(self):
        # Region-pinned two-state chain with the corrected rates; the
        # stationary distribution solves pi @ Lambda = 0 -> (0.4, 0.6).
        model = static_model(n_modes1=2, rates1=CORRECTED_LAMBDA_1)
        trace = simulate(model, zero_bank(model), SimConfig(dt=0.01, horizon=2000.0, seed=11), [1.0], [0.0])
        occ1 = float(np.mean(trace.mode1 == 1))
        batches = np.array_split(np.asarray(trace.mode1 == 1, dtype=float), 50)
        means = [b.mean() for b in batches]
        se = np.std(means, ddof=1) / math.sqrt(len(means))
        assert abs(occ1 - 0.4) <= 3 * se

    def test_observation_conditional_law(self):
        # Per-step refresh makes observation draws conditionally iid; the
        # empirical conditional frequencies must match the emission row.
        alpha = np.array([[0.9, 0.1], [0.1, 0.9]])
        model = static_model(n_modes1=2, rates1=CORRECTED_LAMBDA_1, obs1=alpha)
        cfg = SimConfig(dt=0.01, horizon=1500.0, seed=21, obs_policy=Periodic(0.01))
        trace = simulate(model, zero_bank(model), cfg, [1.0], [0.0])
        for mode in (1, 2):
            mask = trace.mode1 == mode
            n = int(np.sum(mask))
            assert n >= 100_000 * 0.3
            freq = float(np.mean(trace.obs1[mask] == mode))
            p = alpha[mode - 1, mode - 1]
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 3 * se

    def test_periodic_refresh_only_at_period_boundaries(self):
        # Uniform emissions and frozen modes: under Periodic(5*dt) the
        # observation may change only every 5 steps.
        alpha = np.array([[0.5, 0.5], [0.5, 0.5]])
        model = static_model(n_modes1=2, rates1=np.zeros((2, 2)), obs1=alpha)
        cfg = SimConfig(dt=0.01, horizon=10.0, seed=12, obs_policy=Periodic(0.05))
        trace = simulate(model, zero_bank(model), cfg, [1.0], [0.0])
        changes = np.nonzero(np.diff(trace.obs1))[0] + 1
        assert len(changes) > 0
        assert np.all(changes % 5 == 0)

    def test_onchange_holds_observation(self):
        # With OnChange and no mode/region changes the observation must
        # never be re-sampled.
        alpha = np.array([[0.5, 0.5], [0.5, 0.5]])
        model = static_model(n_modes1=2, rates1=np.zeros((2, 2)), obs1=alpha)
        cfg = SimConfig(dt=0.01, horizon=20.0, seed=3, obs_policy=OnChange())
        trace = simulate(model, zero_bank(model), cfg, [1.0], [0.0])
        assert len(np.unique(trace.obs1)) == 1

    def test_decaying_sine_disturbance(self):
        # x' = -x + w with w = e^{-t} sin(t); closed form checked by a
        # fine-grid reference integration.
        sys = JumpLinearSystem(1, 1, 1, (ModeDynamics([[-1.0]], [[0.0]], [[1.0]]),))
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
        dist = DecayingSine(amplitude1=(1.0,), amplitude2=(0.0,), decay=1.0, frequency=1.0)
        cfg = SimConfig(dt=1e-3, horizon=4.0, seed=0, disturbance=dist)
        trace = simulate(model, zero_bank(model), cfg, [0.0], [0.0])
        # Reference: forward integration of the same frozen-disturbance
        # scheme at 10x finer step.
        x = 0.0
        h = 1e-4
        for n in range(40_000):
            if n % 10 == 0:
                w = math.exp(-(n * h)) * math.sin(n * h)
            k1 = -x + w
            k2 = -(x + 0.5 * h * k1) + w
            k3 = -(x + 0.5 * h * k2) + w
            k4 = -(x + h * k3) + w
            x += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert abs(trace.x1[-1, 0] - x) <= 1e-4

    @pytest.mark.parametrize("scheme", [Scheme.CENTRALIZED, Scheme.FULL_INFORMATION])
    def test_joint_gain_cross_blocks_applied(self, scheme):
        # A joint gain couples x1 into u2 and x2 into u1; every recorded u
        # must be the full G(obs, regions) [x1; x2], cross blocks included.
        model = demo_model()
        n2 = model.sys2.mode_count
        rng = np.random.default_rng(17)
        gains = {
            (0, obs, (m1, m2)): rng.normal(scale=0.5, size=(2, 5))
            for obs in range(1, 7)
            for m1 in range(1, 3)
            for m2 in range(1, 4)
        }
        bank = ControllerBank(scheme, gains, {})
        cfg = SimConfig(dt=1e-3, horizon=0.5, seed=4, obs_policy=Periodic(1e-3))
        trace = simulate(model, bank, cfg, [-2.0, 1.5], [0.7, -2.2, 3.0])
        if scheme is Scheme.FULL_INFORMATION:
            joint_obs = (trace.mode1 - 1) * n2 + trace.mode2
        else:
            joint_obs = (trace.obs1 - 1) * n2 + trace.obs2
        x = np.hstack([trace.x1, trace.x2])
        u = np.hstack([trace.u1, trace.u2])
        for row in range(len(trace)):
            g = gains[(0, int(joint_obs[row]), (int(trace.region1[row]), int(trace.region2[row])))]
            expected = g @ x[row]
            assert np.linalg.norm(u[row] - expected) <= 1e-12 * np.linalg.norm(g) * np.linalg.norm(x[row])


@pytest.mark.parametrize(
    "run",
    [
        lambda model, bank, cfg: simulate(model, bank, cfg, [1.0], [0.0]),
        lambda model, bank, cfg: estimate_stability(model, bank, cfg, 3, [1.0], [0.0]),
    ],
    ids=["simulate", "estimate_stability"],
)
def test_bank_checked_before_first_step(monkeypatch, run):
    # Frozen modes and exact emissions: observation 2 is never drawn, so its
    # gain is never read; the bank is rejected all the same, before any step.
    model = static_model(n_modes1=2)
    gains = dict(zero_bank(model).gains)
    del gains[(1, 2, (1, 1))]
    steps = []
    monkeypatch.setattr(sim, "step_mode", lambda rng, i, row, dt: steps.append(i) or i)
    with pytest.raises(MissingGain, match="observation 2"):
        run(model, ControllerBank(Scheme.DISTRIBUTED, gains, {}), SimConfig(dt=0.01, horizon=1.0))
    assert steps == []


class TestEstimateStability:
    def test_analytic_scalar_integral(self):
        # x' = -x from 1: integral of x^2 is 0.5; truncation at T=10 and
        # trapezoid error stay inside 2%.
        model = scalar_decay_model()
        cfg = SimConfig(dt=1e-4, horizon=10.0, seed=0)
        report = estimate_stability(model, zero_bank(model), cfg, 1, [1.0], [0.0])
        assert abs(report.mean - 0.5) <= 0.01

    def test_zero_initial_state(self):
        model = scalar_decay_model()
        cfg = SimConfig(dt=1e-3, horizon=2.0, seed=0)
        report = estimate_stability(model, zero_bank(model), cfg, 3, [0.0], [0.0])
        assert report.mean == 0.0
        assert report.saturation == 0.0

    def test_reproducible_across_calls(self):
        model = static_model(n_modes1=2, rates1=CORRECTED_LAMBDA_1)
        cfg = SimConfig(dt=0.01, horizon=5.0, seed=9)
        a = estimate_stability(model, zero_bank(model), cfg, 5, [1.0], [0.0])
        b = estimate_stability(model, zero_bank(model), cfg, 5, [1.0], [0.0])
        assert a.functional_per_run == b.functional_per_run
        assert a.terminal_norms == b.terminal_norms


class TestDemoClosedLoop:
    def test_energy_decay_and_saturation(self, demo, demo_bank):
        # Memoryless per-step observation refresh matches the averaging the
        # Lyapunov certificate relies on; the closed loop then contracts.
        x1_0, x2_0 = example_initial_state()
        cfg = SimConfig(dt=1e-3, horizon=10.0, seed=0, obs_policy=Periodic(1e-3))
        report = estimate_stability(demo, demo_bank, cfg, 10, x1_0, x2_0)
        norm0 = math.sqrt(float(x1_0 @ x1_0 + x2_0 @ x2_0))
        assert report.saturation < 0.01
        assert np.median(report.terminal_norms) <= 1e-3 * norm0
        assert all(np.isfinite(report.functional_per_run))

    def test_norm_decreases_across_doubling_horizons(self, demo, demo_bank):
        x1_0, x2_0 = example_initial_state()
        means = []
        for run in range(6):
            cfg = SimConfig(dt=1e-3, horizon=10.0, seed=100 + run, obs_policy=Periodic(1e-3))
            trace = simulate(demo, demo_bank, cfg, x1_0, x2_0)
            norms = np.sqrt(np.sum(trace.x1**2, axis=1) + np.sum(trace.x2**2, axis=1))
            idx = [np.searchsorted(trace.t, h) for h in (2.5, 5.0, 10.0)]
            means.append([norms[i] for i in idx])
        sample_mean = np.mean(means, axis=0)
        assert sample_mean[0] > sample_mean[1] > sample_mean[2]

    def test_energy_functional_matches_manual_trapezoid(self, demo, demo_bank):
        x1_0, x2_0 = example_initial_state()
        cfg = SimConfig(dt=1e-2, horizon=1.0, seed=2, obs_policy=Periodic(1e-2))
        trace = simulate(demo, demo_bank, cfg, x1_0, x2_0)
        sq = np.sum(trace.x1**2, axis=1) + np.sum(trace.x2**2, axis=1)
        manual = float(np.trapezoid(sq, trace.t))
        assert abs(energy_functional(trace) - manual) <= 1e-12
