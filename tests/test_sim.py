import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from mjls import sim
from mjls.errors import DimensionMismatch, InvalidModel, MissingGain, NonFinite
from mjls.fixtures import demo_model, example_initial_state
from mjls.model import (
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
    block_diag,
    region_index,
)
from mjls.sim import (
    DecayingSine,
    OnChange,
    Periodic,
    SimConfig,
    Zero,
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


VERBS = {
    "simulate": simulate,
    "estimate_stability": lambda model, bank, cfg, x1, x2: estimate_stability(model, bank, cfg, 3, x1, x2),
}


class KernelReached(Exception):
    """Raised by the patched kernel in place of the first step."""


@pytest.fixture
def no_steps(monkeypatch):
    """Replace the kernel both verbs run with one that raises KernelReached."""

    def kernel(*args):
        raise KernelReached

    monkeypatch.setattr(sim, "_run", kernel)


@pytest.mark.parametrize("run", VERBS.values(), ids=VERBS.keys())
def test_bank_checked_before_first_step(no_steps, run):
    # Frozen modes and exact emissions: observation 2 is never drawn, so its
    # gain is never read; the bank is rejected all the same, before any step.
    model = static_model(n_modes1=2)
    cfg = SimConfig(dt=0.01, horizon=1.0)
    gains = dict(zero_bank(model).gains)
    # The complete bank reaches the patched kernel, so the verb runs its
    # steps there and the check below is not vacuous.
    with pytest.raises(KernelReached):
        run(model, ControllerBank(Scheme.DISTRIBUTED, gains, {}), cfg, [1.0], [0.0])
    del gains[(1, 2, (1, 1))]
    with pytest.raises(MissingGain, match="observation 2"):
        run(model, ControllerBank(Scheme.DISTRIBUTED, gains, {}), cfg, [1.0], [0.0])


def two_region_static_model(rates2_far=None, obs1_far=None):
    """x' = 0 with two modes per system; system 1's region 2 (|x1|^2 >= 100)
    is never entered from |x1| = 1, so its emission row and the rates it
    selects for system 2 are never drawn from."""
    static = ModeDynamics([[0.0]], [[0.0]], [[0.0]])
    sys = JumpLinearSystem(1, 1, 1, (static, static))
    return InterdependentModel(
        sys1=sys,
        sys2=sys,
        part1=RegionPartition((100.0,)),
        part2=RegionPartition(()),
        rates1=RateFamily((np.zeros((2, 2)),)),
        rates2=RateFamily((np.zeros((2, 2)), rates2_far if rates2_far is not None else np.zeros((2, 2)))),
        obs1=ObservationModel((np.eye(2), obs1_far if obs1_far is not None else np.eye(2))),
        obs2=ObservationModel((np.eye(2),)),
    )


@pytest.mark.parametrize(
    "model, message",
    [
        (two_region_static_model(obs1_far=np.array([[0.5, 0.4], [0.0, 1.0]])), "obs1[2][row 1]: row sums to 0.9"),
        (two_region_static_model(obs1_far=np.array([[1.0, 0.0], [-0.5, 1.5]])), "obs1[2]: entries must lie in [0, 1]"),
        (
            two_region_static_model(rates2_far=np.array([[0.5, -0.5], [0.0, 0.0]])),
            "rates2[2][1,2]: negative off-diagonal rate",
        ),
    ],
    ids=["emission-row-sum", "negative-emission", "negative-rate"],
)
def test_bad_draw_law_rejected_before_first_step(no_steps, model, message):
    # The bad row sits in a region the trajectory never enters; it is
    # rejected all the same, before any step is taken.
    gains = {(k, i, (m1, 1)): np.zeros((1, 1)) for k in (1, 2) for i in (1, 2) for m1 in (1, 2)}
    bank = ControllerBank(Scheme.DISTRIBUTED, gains, {})
    cfg = SimConfig(dt=0.01, horizon=1.0)
    for run in VERBS.values():
        with pytest.raises(KernelReached):
            run(two_region_static_model(), bank, cfg, [1.0], [1.0])
        with pytest.raises(InvalidModel, match=re.escape(message)):
            run(model, bank, cfg, [1.0], [1.0])


@pytest.mark.parametrize(
    "system, region, entry, value",
    [(1, 2, (0, 0), np.nan), (2, 1, (0, 1), np.inf)],
    ids=["nan-diagonal", "inf-off-diagonal"],
)
def test_non_finite_rate_rejected(demo, demo_bank, system, region, entry, value):
    # dt * nan > cap is False and the jump tables skip the diagonal, so a NaN
    # there passed every check; an infinite rate read as a dt problem.
    field = f"rates{system}"
    matrices = [g.copy() for g in getattr(demo, field).matrices]
    matrices[region - 1][entry] = value
    model = dataclasses.replace(demo, **{field: RateFamily(tuple(matrices))})
    with pytest.raises(InvalidModel, match=re.escape(f"{field}[{region}]: non-finite entries")):
        simulate(model, demo_bank, SimConfig(dt=1e-3, horizon=1.0), [1.0, 0.0], [0.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "model, init_modes, message",
    [
        (static_model(n_modes1=2), (0, 1), "initial modes"),
        (static_model(n_modes1=2), (3, 1), "initial modes"),
    ],
    ids=["mode-0", "mode-past-last"],
)
def test_unusable_start_or_partition_rejected(model, init_modes, message):
    # Modes and regions index the loop table, so one out of range would
    # silently pick another loop.
    cfg = SimConfig(dt=0.01, horizon=1.0, init_modes=init_modes)
    with pytest.raises(ValueError, match=message):
        simulate(model, zero_bank(model), cfg, [1.0], [1.0])


PERIOD_MESSAGE = "observation period must be a positive whole number of steps of dt 0.001, got "


@pytest.mark.parametrize(
    "settings, message",
    [
        (dict(obs_policy=Periodic(0.0015)), PERIOD_MESSAGE + "0.0015"),
        (dict(obs_policy=Periodic(0.0005)), PERIOD_MESSAGE + "0.0005"),
        (dict(obs_policy=Periodic(1e-13)), PERIOD_MESSAGE + "1e-13"),
        (dict(seed=-1), "seed must be a nonnegative integer, got -1"),
    ],
    ids=["period-one-and-a-half-steps", "period-half-a-step", "period-no-step", "negative-seed"],
)
def test_unusable_config_rejected(settings, message):
    # A period between whole steps ran as a neighbouring one, and a negative
    # seed failed inside numpy with a message that names no field.
    with pytest.raises(ValueError, match=re.escape(message)):
        SimConfig(dt=1e-3, horizon=1.0, **settings)


@pytest.mark.parametrize(
    "field, value",
    [
        ("decay", math.nan),
        ("decay", math.inf),
        ("frequency", math.nan),
        ("frequency", -math.inf),
        ("amplitude1", (math.nan,)),
        ("amplitude2", (math.inf,)),
    ],
    ids=["nan-decay", "inf-decay", "nan-frequency", "inf-frequency", "nan-amplitude1", "inf-amplitude2"],
)
def test_non_finite_disturbance_rejected(field, value):
    # A NaN or infinite field ran until the state turned NaN at the first
    # step, with numpy warnings escaping from the envelope.
    fields = dict(amplitude1=(1.0,), amplitude2=(1.0,), decay=1.0, frequency=1.0)
    with pytest.raises(ValueError, match=re.escape(f"disturbance {field} must be finite, got {value}")):
        DecayingSine(**{**fields, field: value})


@pytest.mark.parametrize(
    "amplitude1, amplitude2, message",
    [
        ((), (1.0, 1.0), "disturbance amplitude1: expected 1 entries, got 0"),
        ((1.0, 1.0), (1.0,), "disturbance amplitude1: expected 1 entries, got 2"),
        ((1.0,), (), "disturbance amplitude2: expected 1 entries, got 0"),
        ((1.0,), (1.0, 1.0), "disturbance amplitude2: expected 1 entries, got 2"),
    ],
    ids=["amplitude1-empty", "amplitude1-long", "amplitude2-empty", "amplitude2-long"],
)
def test_disturbance_of_wrong_length_rejected_before_first_step(no_steps, demo, demo_bank, amplitude1, amplitude2,
                                                                message):
    # An empty amplitude1 with a two-entry amplitude2 ran to the end, system
    # 2's amplitudes driving both systems; other mismatches failed in numpy.
    x1_0, x2_0 = [1.0, 0.0], [0.0, 0.0, 1.0]
    for run in VERBS.values():
        good = DecayingSine(amplitude1=(1.0,), amplitude2=(1.0,), decay=1.0, frequency=1.0)
        with pytest.raises(KernelReached):
            run(demo, demo_bank, SimConfig(dt=1e-3, horizon=1.0, disturbance=good), x1_0, x2_0)
        bad = DecayingSine(amplitude1=amplitude1, amplitude2=amplitude2, decay=1.0, frequency=1.0)
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            run(demo, demo_bank, SimConfig(dt=1e-3, horizon=1.0, disturbance=bad), x1_0, x2_0)


@pytest.mark.parametrize("run", VERBS.values(), ids=VERBS.keys())
def test_invalid_model_rejected_before_first_step(no_steps, demo, demo_bank, run):
    # The draw tables read only the off-diagonal rates, so a generator row
    # that does not sum to zero ran as the valid model.
    matrices = [g.copy() for g in demo.rates1.matrices]
    matrices[0][0, 0] *= 3.0
    model = dataclasses.replace(demo, rates1=RateFamily(tuple(matrices)))
    x1_0, x2_0 = [1.0, 0.0], [0.0, 0.0, 1.0]
    with pytest.raises(KernelReached):
        run(demo, demo_bank, SimConfig(dt=1e-3, horizon=1.0), x1_0, x2_0)
    with pytest.raises(InvalidModel, match=re.escape("rates1[1][row 1]: row sums to -0.12")):
        run(model, demo_bank, SimConfig(dt=1e-3, horizon=1.0), x1_0, x2_0)


def test_unsorted_thresholds_rejected_before_first_step(no_steps):
    # Regions index the loop table, so thresholds out of order would
    # silently pick another loop.
    model = dataclasses.replace(static_model(), part1=RegionPartition((4.0, 1.0)))
    cfg = SimConfig(dt=0.01, horizon=1.0)
    for run in VERBS.values():
        with pytest.raises(InvalidModel, match=re.escape("partition1.thresholds[2]: thresholds must be strictly")):
            run(model, zero_bank(model), cfg, [1.0], [1.0])


def reference_simulate(model, bank, config, x1_0, x2_0):
    """A plain per-step loop for a distributed bank: explicit RK4 stages on
    the joint closed loop, scalar draws through ``step_mode`` and
    ``sample_observation``.  Returns (states, inputs, integer columns)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    dt, nx1 = config.dt, model.sys1.state_dim
    dist = config.disturbance
    x = np.concatenate([np.asarray(x1_0, dtype=float), np.asarray(x2_0, dtype=float)])
    th1, th2 = config.init_modes
    m1, m2 = region_index(model.part1, x[:nx1]), region_index(model.part2, x[nx1:])
    ob1 = sample_observation(rng, model.obs1.alpha(m1)[th1 - 1])
    ob2 = sample_observation(rng, model.obs2.alpha(m2)[th2 - 1])
    states, inputs, columns = [], [], []
    for n in range(round(config.horizon / dt) + 1):
        d1, d2 = model.sys1.dynamics(th1), model.sys2.dynamics(th2)
        g = block_diag(bank.gain(1, ob1, (m1, m2)), bank.gain(2, ob2, (m1, m2)))
        states.append(x)
        inputs.append(g @ x)
        columns.append((th1, th2, ob1, ob2, m1, m2))
        if n == round(config.horizon / dt):
            break
        a = block_diag(d1.a, d2.a) + block_diag(d1.b, d2.b) @ g
        t = n * dt
        if isinstance(dist, Zero):
            c = np.zeros(len(x))
        else:
            w = math.exp(-dist.decay * t) * math.sin(dist.frequency * t) * np.array(dist.amplitude1 + dist.amplitude2)
            c = block_diag(d1.d, d2.d) @ w
        k1 = a @ x + c
        k2 = a @ (x + 0.5 * dt * k1) + c
        k3 = a @ (x + 0.5 * dt * k2) + c
        k4 = a @ (x + dt * k3) + c
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        new_th1 = step_mode(rng, th1, model.rates1.matrix(m2)[th1 - 1], dt)
        new_th2 = step_mode(rng, th2, model.rates2.matrix(m1)[th2 - 1], dt)
        new_m1, new_m2 = region_index(model.part1, x[:nx1]), region_index(model.part2, x[nx1:])
        if isinstance(config.obs_policy, Periodic):
            refresh1 = refresh2 = (n + 1) % round(config.obs_policy.period / dt) == 0
        else:
            moved = (new_m1, new_m2) != (m1, m2)
            refresh1, refresh2 = new_th1 != th1 or moved, new_th2 != th2 or moved
        th1, th2, m1, m2 = new_th1, new_th2, new_m1, new_m2
        if refresh1:
            ob1 = sample_observation(rng, model.obs1.alpha(m1)[th1 - 1])
        if refresh2:
            ob2 = sample_observation(rng, model.obs2.alpha(m2)[th2 - 1])
    return np.array(states), np.array(inputs), np.array(columns)


def lively_demo(demo):
    """The demo model with D = 1, so that a disturbance acts, and its rates
    scaled back up by 10, so that both chains jump within a few seconds."""

    def with_unit_d(sys):
        return dataclasses.replace(sys, modes=tuple(ModeDynamics(m.a, m.b, np.ones_like(m.d)) for m in sys.modes))

    return dataclasses.replace(
        demo,
        sys1=with_unit_d(demo.sys1),
        sys2=with_unit_d(demo.sys2),
        rates1=RateFamily(tuple(10.0 * g for g in demo.rates1.matrices)),
        rates2=RateFamily(tuple(10.0 * g for g in demo.rates2.matrices)),
    )


SINE = DecayingSine(amplitude1=(2.0,), amplitude2=(-1.5,), decay=0.5, frequency=3.0)
TRACE_FIELDS = ("t", "x1", "x2", "mode1", "mode2", "obs1", "obs2", "u1", "u2", "region1", "region2")


# Periodic(5e-3) refreshes on every fifth step only, so regions also change
# on steps that do not refresh.
@pytest.mark.parametrize(
    "policy, disturbance, partition2",
    [
        pytest.param(Periodic(1e-3), Zero(), True, id="undisturbed-periodic"),
        pytest.param(OnChange(), Zero(), True, id="undisturbed-onchange"),
        pytest.param(Periodic(5e-3), Zero(), True, id="undisturbed-periodic-5-steps"),
        pytest.param(Periodic(1e-3), SINE, True, id="decaying-sine-periodic"),
        pytest.param(OnChange(), SINE, True, id="decaying-sine-onchange"),
        pytest.param(Periodic(5e-3), SINE, True, id="decaying-sine-periodic-5-steps"),
        # Partition 2 without thresholds: system 2 stays in region 1, and x1
        # starts in partition 1's outer shell.
        pytest.param(Periodic(1e-3), SINE, False, id="one-region-partition2-outer-start"),
    ],
)
def test_simulate_matches_reference_loop(demo, demo_bank, policy, disturbance, partition2):
    model, bank = lively_demo(demo), demo_bank
    x1_0, x2_0 = np.array([1.0, -2.5]), np.array([0.5, 1.5, -2.0])
    if not partition2:
        model = dataclasses.replace(
            model,
            part2=RegionPartition(()),
            rates1=RateFamily(model.rates1.matrices[:1]),
            obs2=ObservationModel(model.obs2.alphas[:1]),
        )
        bank = ControllerBank(Scheme.DISTRIBUTED, {key: g for key, g in bank.gains.items() if key[2][1] == 1}, {})
        x1_0 = np.array([3.0, -2.5])
    cfg = SimConfig(dt=1e-3, horizon=4.0, seed=0, obs_policy=policy, disturbance=disturbance)
    trace = simulate(model, bank, cfg, x1_0, x2_0)
    states, inputs, columns = reference_simulate(model, bank, cfg, x1_0, x2_0)
    for j, name in enumerate(("mode1", "mode2", "obs1", "obs2", "region1", "region2")):
        assert np.array_equal(getattr(trace, name), columns[:, j]), name
        if partition2 or name != "region2":
            assert np.any(np.diff(columns[:, j]) != 0), f"{name} never changes"
    if not partition2:
        assert columns[0, 4] == 2 and np.all(columns[:, 5] == 1)
    scale = np.linalg.norm(states, axis=1)
    assert np.all(np.linalg.norm(np.hstack([trace.x1, trace.x2]) - states, axis=1) <= 1e-10 * scale)
    gain_scale = max(np.linalg.norm(g) for g in bank.gains.values())
    assert np.all(np.linalg.norm(np.hstack([trace.u1, trace.u2]) - inputs, axis=1) <= 1e-10 * gain_scale * scale)


@pytest.mark.parametrize("policy", [OnChange(), Periodic(5e-3)], ids=["onchange", "periodic-5-steps"])
@pytest.mark.parametrize("disturbance", [Zero(), SINE], ids=["undisturbed", "decaying-sine"])
def test_chunk_length_does_not_change_the_trace(monkeypatch, demo, demo_bank, policy, disturbance):
    # Regions are checked a chunk of steps at a time, and a region change
    # cuts the chunk.  Checking every step (chunks of 1) and checking once
    # over the whole horizon (a cut at every change) must give the same trace.
    model = lively_demo(demo)
    x1_0, x2_0 = np.array([1.0, -2.5]), np.array([0.5, 1.5, -2.0])
    cfg = SimConfig(dt=1e-3, horizon=2.0, seed=3, obs_policy=policy, disturbance=disturbance)
    traces = []
    for first, most in ((sim._CHUNK_FIRST, sim._CHUNK_MAX), (1, 1), (2000, 2000)):
        monkeypatch.setattr(sim, "_CHUNK_FIRST", first)
        monkeypatch.setattr(sim, "_CHUNK_MAX", most)
        traces.append(simulate(model, demo_bank, cfg, x1_0, x2_0))
    assert np.count_nonzero(np.diff(traces[0].region1)) + np.count_nonzero(np.diff(traces[0].region2)) >= 5
    for trace in traces[1:]:
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(trace, name), getattr(traces[0], name)), name


def test_horizon_shorter_than_first_chunk(demo, demo_bank):
    # Five steps end inside the first chunk; they are the first rows of a
    # longer run from the same seed.
    model = lively_demo(demo)
    x1_0, x2_0 = np.array([1.0, -2.5]), np.array([0.5, 1.5, -2.0])
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=2, obs_policy=Periodic(2e-3), disturbance=SINE)
    short_cfg = dataclasses.replace(cfg, horizon=0.005)
    assert round(short_cfg.horizon / short_cfg.dt) < sim._CHUNK_FIRST
    long, short = simulate(model, demo_bank, cfg, x1_0, x2_0), simulate(model, demo_bank, short_cfg, x1_0, x2_0)
    assert len(short) == 6
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(short, name), getattr(long, name)[:6]), name
    report = estimate_stability(model, demo_bank, short_cfg, 1, x1_0, x2_0)
    run0 = simulate(model, demo_bank, dataclasses.replace(short_cfg, seed=(2, 0)), x1_0, x2_0)
    assert report.functional_per_run[0] == energy_functional(run0)


class TestDivergence:
    """x' = 300 x from 1 at dt = 1e-3: the state overflows at t = 2.367."""

    @pytest.mark.parametrize("run", VERBS.values(), ids=VERBS.keys())
    def test_non_finite_state_raises_at_its_time(self, run):
        model = scalar_decay_model(300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=r"at t = 2\.367 \(step 2367\)"):
                run(model, zero_bank(model), SimConfig(dt=1e-3, horizon=3.0), [1.0], [1.0])

    def test_overflowing_functional_raises_naming_the_run(self):
        # Over 2 s the state stays finite (3.7e260), but |x|^2 overflows.
        model = scalar_decay_model(300.0)
        cfg = SimConfig(dt=1e-3, horizon=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=r"functional of run 0 exceeds .* 3\.656e\+260 at t = 2\)"):
                estimate_stability(model, zero_bank(model), cfg, 1, [1.0], [1.0])
            trace = simulate(model, zero_bank(model), cfg, [1.0], [1.0])
            assert np.all(np.isfinite(trace.x1))
            with pytest.raises(NonFinite, match="functional of the trace exceeds"):
                energy_functional(trace)

    def test_overflowing_norm_is_outermost_region(self):
        # |x1|^2 overflows to inf past about 1e154 while x1 stays finite;
        # that state lies beyond every threshold, in region 3.
        model = dataclasses.replace(
            scalar_decay_model(300.0),
            part1=RegionPartition((1.0, 1e300)),
            rates2=RateFamily((np.zeros((1, 1)),) * 3),
            obs1=ObservationModel((np.eye(1),) * 3),
        )
        gains = {(k, 1, (m1, 1)): np.zeros((1, 1)) for k in (1, 2) for m1 in (1, 2, 3)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bank = ControllerBank(Scheme.DISTRIBUTED, gains, {})
            trace = simulate(model, bank, SimConfig(dt=1e-3, horizon=2.0), [0.5], [1.0])
        assert np.all(np.isfinite(trace.x1))
        beyond = np.abs(trace.x1[:, 0]) >= 1e150
        assert beyond[-1] and np.all(trace.region1[beyond] == 3)
        assert np.all(trace.region1[np.abs(trace.x1[:, 0]) < 1.0] == 1)


class TestEstimateStability:
    def test_runs_are_simulate_runs(self, demo, demo_bank):
        # One kernel: run r of the report is simulate under seed (seed, r).
        # The OnChange runs start near the thresholds and cross regions.
        cases = [
            (Periodic(1e-3), *example_initial_state()),
            (OnChange(), np.array([2.5, 2.2]), np.array([1.5, 1.5, 1.0])),
        ]
        for policy, x1_0, x2_0 in cases:
            cfg = SimConfig(dt=1e-3, horizon=0.5, seed=6, obs_policy=policy)
            report = estimate_stability(demo, demo_bank, cfg, 3, x1_0, x2_0)
            for run in range(3):
                trace = simulate(demo, demo_bank, dataclasses.replace(cfg, seed=(6, run)), x1_0, x2_0)
                terminal = float(np.sqrt(trace.x1[-1] @ trace.x1[-1] + trace.x2[-1] @ trace.x2[-1]))
                assert report.functional_per_run[run] == energy_functional(trace)
                assert report.half_functional_per_run[run] == energy_functional(trace, 0.25)
                assert report.terminal_norms[run] == terminal
                if isinstance(policy, OnChange):
                    assert np.any(np.diff(trace.region1) != 0) and np.any(np.diff(trace.region2) != 0)

    def test_half_horizon_of_odd_step_count(self):
        # x' = -x from 1 over three steps: the half functional runs to
        # t = 0.0015, inside the second step, where the exact value is
        # (1 - e^-0.003) / 2.
        model = scalar_decay_model()
        cfg = SimConfig(dt=1e-3, horizon=0.003, seed=0)
        report = estimate_stability(model, zero_bank(model), cfg, 1, [1.0], [0.0])
        half = (1.0 - math.exp(-0.003)) / 2.0
        full = (1.0 - math.exp(-0.006)) / 2.0
        assert abs(report.half_mean - half) <= 1e-6 * half
        assert abs(report.saturation - (full - half) / full) <= 1e-5

    def test_half_horizon_of_even_step_count_is_the_trapezoid(self):
        model = scalar_decay_model()
        cfg = SimConfig(dt=1e-3, horizon=0.004, seed=0)
        report = estimate_stability(model, zero_bank(model), cfg, 1, [1.0], [0.0])
        trace = simulate(model, zero_bank(model), cfg, [1.0], [0.0])
        sq = trace.x1[:, 0] ** 2 + trace.x2[:, 0] ** 2
        assert report.half_mean == float(np.trapezoid(sq[:3], trace.t[:3]))

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
