import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjls import sim
from mjls.errors import DimensionMismatch, InvalidModel, MissingGain, NonFinite
from mjls.fileio import load_bank, load_model
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
    # silently pick another loop.  Mode 0 is refused by the config itself.
    with pytest.raises(ValueError, match=message):
        cfg = SimConfig(dt=0.01, horizon=1.0, init_modes=init_modes)
        simulate(model, zero_bank(model), cfg, [1.0], [1.0])


@pytest.mark.parametrize("run", VERBS.values(), ids=VERBS.keys())
@pytest.mark.parametrize("x1_0", [[math.nan, 0.0], [math.inf, 0.0]], ids=["nan", "inf"])
def test_non_finite_initial_state_rejected(demo, demo_bank, no_steps, run, x1_0):
    # Refused before any step, with a message naming the state.
    with pytest.raises(NonFinite, match=re.escape(f"initial state x1_0: entries must be finite, got {x1_0}")):
        run(demo, demo_bank, SimConfig(dt=1e-3, horizon=1.0), x1_0, [0.0, 0.0, 1.0])


PERIOD_MESSAGE = "observation period must be a positive whole number of steps of dt 0.001, got "


@pytest.mark.parametrize(
    "settings, message",
    [
        (dict(obs_policy=Periodic(0.0015)), PERIOD_MESSAGE + "0.0015"),
        (dict(obs_policy=Periodic(0.0005)), PERIOD_MESSAGE + "0.0005"),
        (dict(obs_policy=Periodic(1e-13)), PERIOD_MESSAGE + "1e-13"),
        (dict(seed=-1), "seed must be a nonnegative integer, got -1"),
        (dict(seed=1.5), "seed must be a nonnegative integer, got 1.5"),
        (dict(seed="a"), "seed must be a nonnegative integer, got 'a'"),
        (dict(seed=True), "seed must be a nonnegative integer, got True"),
        (dict(seed=(3, -1)), "seed must be a nonnegative integer, got (3, -1)"),
        (dict(seed=(3, 1.0)), "seed must be a nonnegative integer, got (3, 1.0)"),
        (dict(init_modes=(1.5, 1)), "initial modes must be a pair of integers of at least 1, got (1.5, 1)"),
        (dict(init_modes=("1", 1)), "initial modes must be a pair of integers of at least 1, got ('1', 1)"),
        (dict(init_modes=(True, 1)), "initial modes must be a pair of integers of at least 1, got (True, 1)"),
        (dict(init_modes=(1, 1, 7)), "initial modes must be a pair of integers of at least 1, got (1, 1, 7)"),
        (dict(init_modes=1), "initial modes must be a pair of integers of at least 1, got 1"),
        (dict(obs_policy=Periodic(1e308)), PERIOD_MESSAGE + "1e+308"),
        (dict(horizon=1e308), "horizon must be a whole number of steps of dt 0.001, got 1e+308"),
        (dict(dt=1e-300, horizon=10.0), "horizon / dt must be at most 10000000 steps, got 10.0 / 1e-300"),
        (dict(horizon=10000.001), "horizon / dt must be at most 10000000 steps, got 10000.001 / 0.001"),
    ],
    ids=[
        "period-one-and-a-half-steps", "period-half-a-step", "period-no-step", "negative-seed",
        "fractional-seed", "string-seed", "bool-seed", "negative-seed-entry", "float-seed-entry",
        "fractional-mode", "string-mode", "bool-mode", "three-modes", "mode-not-a-pair",
        "period-overflows", "horizon-overflows", "steps-far-over-cap", "one-step-over-cap",
    ],
)
def test_unusable_config_rejected(settings, message):
    # A period between whole steps ran as a neighbouring one, a negative,
    # fractional or string seed failed inside numpy with a message that
    # names no field, a step count that overflows raised OverflowError, and
    # 1e301 finite steps were accepted.
    with pytest.raises(ValueError, match=re.escape(message)):
        SimConfig(**{"dt": 1e-3, "horizon": 1.0, **settings})


def test_seed_tuples_and_numpy_integers_accepted():
    # estimate_stability seeds run r with (seed, r).
    for seed in ((3, 0), (), np.int64(3), 2**70):
        assert SimConfig(dt=1e-3, horizon=1.0, seed=seed).seed == seed


@pytest.mark.parametrize("n_runs", [0, -1, 1.5, True, "2", None],
                         ids=["zero", "negative", "fraction", "bool", "string", "none"])
def test_unusable_run_count_rejected(no_steps, n_runs):
    # 1.5 raised a bare TypeError from range, and True returned a report
    # with runs=True.
    model = scalar_decay_model()
    cfg = SimConfig(dt=1e-3, horizon=1.0)
    with pytest.raises(KernelReached):
        estimate_stability(model, zero_bank(model), cfg, np.int64(2), [1.0], [1.0])
    with pytest.raises(ValueError, match=re.escape(f"n_runs must be an integer of at least 1, got {n_runs!r}")):
        estimate_stability(model, zero_bank(model), cfg, n_runs, [1.0], [1.0])


def test_step_cap_admits_its_bound():
    # Constructing the config runs nothing.
    assert SimConfig(dt=1e-3, horizon=1e4).horizon == 1e4


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
        # Both observations are drawn every step; a draw is kept only where
        # its chain refreshes.
        draw1 = sample_observation(rng, model.obs1.alpha(m1)[th1 - 1])
        draw2 = sample_observation(rng, model.obs2.alpha(m2)[th2 - 1])
        if refresh1:
            ob1 = draw1
        if refresh2:
            ob2 = draw2
    return np.array(states), np.array(inputs), np.array(columns)


@st.composite
def generated_runs(draw):
    """A generated model with a distributed bank and no certificate, and a
    seeded run of it.  Each system has 1-3 modes on 1-2 states, and each
    partition 0-2 thresholds.  An emission row is one-hot or spread.  Every
    off-diagonal rate lies in [4, 6], so a chain of two or more modes leaves
    each mode at rate 4 or more and, over the 2.4 s horizon, jumps but for
    odds of about e^-10."""

    def matrix(rows, cols, lo, hi):
        entries = draw(st.lists(st.floats(lo, hi), min_size=rows * cols, max_size=rows * cols))
        return np.array(entries).reshape(rows, cols)

    def rates(n):
        q = matrix(n, n, 4.0, 6.0) * (1.0 - np.eye(n))
        return q - np.diag(q.sum(axis=1))

    def emission(n):
        rows = []
        for _ in range(n):
            if draw(st.booleans()):
                rows.append(np.eye(n)[draw(st.integers(0, n - 1))])
            else:
                weights = matrix(1, n, 0.05, 1.0)[0]
                rows.append(weights / weights.sum())
        return np.array(rows)

    systems, parts = [], []
    for _ in range(2):
        n, nx = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        modes = tuple(ModeDynamics(matrix(nx, nx, -2.0, 2.0), matrix(nx, 1, -1.0, 1.0), matrix(nx, 1, -1.0, 1.0))
                      for _ in range(n))
        systems.append(JumpLinearSystem(nx, 1, 1, modes))
        parts.append(RegionPartition(tuple(np.cumsum(draw(st.lists(st.floats(0.3, 2.0), max_size=2))).tolist())))
    (s1, s2), (p1, p2) = systems, parts
    model = InterdependentModel(
        sys1=s1,
        sys2=s2,
        part1=p1,
        part2=p2,
        rates1=RateFamily(tuple(rates(s1.mode_count) for _ in range(p2.region_count))),
        rates2=RateFamily(tuple(rates(s2.mode_count) for _ in range(p1.region_count))),
        obs1=ObservationModel(tuple(emission(s1.mode_count) for _ in range(p1.region_count))),
        obs2=ObservationModel(tuple(emission(s2.mode_count) for _ in range(p2.region_count))),
    )
    cells = [(m1, m2) for m1 in range(1, p1.region_count + 1) for m2 in range(1, p2.region_count + 1)]
    gains = {
        (k, i, cell): matrix(1, system.state_dim, -1.0, 1.0)
        for k, system in ((1, s1), (2, s2))
        for i in range(1, system.mode_count + 1)
        for cell in cells
    }
    dt = 4e-3
    cfg = SimConfig(
        dt=dt,
        horizon=2.4,
        seed=draw(st.integers(0, 2**32)),
        obs_policy=draw(st.sampled_from([OnChange(), Periodic(dt), Periodic(3 * dt)])),
        disturbance=draw(st.sampled_from([Zero(), DecayingSine((1.0,), (-0.5,), 1.0, 5.0)])),
        init_modes=(draw(st.integers(1, s1.mode_count)), draw(st.integers(1, s2.mode_count))),
    )
    x1_0, x2_0 = matrix(1, s1.state_dim, -1.5, 1.5)[0], matrix(1, s2.state_dim, -1.5, 1.5)[0]
    return model, ControllerBank(Scheme.DISTRIBUTED, gains, {}), cfg, x1_0, x2_0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(generated_runs())
def test_generated_models_match_reference_loop(run):
    model, bank, cfg, x1_0, x2_0 = run
    trace = simulate(model, bank, cfg, x1_0, x2_0)
    states, inputs, columns = reference_simulate(model, bank, cfg, x1_0, x2_0)
    for j, name in enumerate(("mode1", "mode2", "obs1", "obs2", "region1", "region2")):
        assert np.array_equal(getattr(trace, name), columns[:, j]), name
    for j, system in enumerate((model.sys1, model.sys2)):
        assert system.mode_count == 1 or np.any(np.diff(columns[:, j]) != 0), f"chain {j + 1} never jumps"
    scale = np.linalg.norm(states, axis=1)
    assert np.all(np.linalg.norm(np.hstack([trace.x1, trace.x2]) - states, axis=1) <= 1e-10 * scale)
    gain_scale = max(np.linalg.norm(g) for g in bank.gains.values())
    assert np.all(np.linalg.norm(np.hstack([trace.u1, trace.u2]) - inputs, axis=1) <= 1e-10 * gain_scale * scale)


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


def draw_starts(trace):
    """The stream position of each step's first uniform: step 0 draws its two
    observations, and every later step s four uniforms from 4s - 2."""
    return np.concatenate([[0], 4 * np.arange(1, len(trace)) - 2])


@pytest.mark.parametrize("policy", [OnChange(), Periodic(1e-3), Periodic(3e-3)],
                         ids=["onchange", "periodic", "periodic-3-steps"])
def test_draw_window_does_not_change_the_trace(monkeypatch, demo, demo_bank, policy):
    # Uniforms are drawn and tabulated a window of steps at a time.  With
    # chunks of four steps, a window of one step puts a seam between two
    # ``random`` calls every four to eight steps, and one longer than the run
    # none after the first chunk; the traces and reports must not tell them
    # apart.
    model = lively_demo(demo)
    x1_0, x2_0 = np.array([1.0, -2.5]), np.array([0.5, 1.5, -2.0])
    cfg = SimConfig(dt=1e-3, horizon=2.0, seed=3, obs_policy=policy, disturbance=SINE)
    seams = []

    class Recording(np.random.Generator):
        """Records the stream position at which each ``random`` call starts."""

        drawn = 0

        def random(self, size=None):
            seams.append(self.drawn)
            self.drawn += size
            return super().random(size)

    traces, reports = [], []
    for window in (1, sim._WINDOW, 2001):
        monkeypatch.setattr(sim, "_WINDOW", window)
        monkeypatch.setattr(sim, "_CHUNK_FIRST", 4)
        monkeypatch.setattr(sim, "_CHUNK_MAX", 4)
        monkeypatch.setattr(np.random, "Generator", Recording)
        traces.append(simulate(model, demo_bank, cfg, x1_0, x2_0))
        if window == 1:
            seam_steps = np.searchsorted(draw_starts(traces[0]), seams, side="right") - 1
        reports.append(estimate_stability(model, demo_bank, cfg, 2, x1_0, x2_0))
        monkeypatch.undo()
    # A jump and a region cut each land within three steps after a seam.
    jumps = np.flatnonzero((np.diff(traces[0].mode1) != 0) | (np.diff(traces[0].mode2) != 0)) + 1
    cuts = np.flatnonzero((np.diff(traces[0].region1) != 0) | (np.diff(traces[0].region2) != 0)) + 1
    for steps in (jumps, cuts):
        gaps = steps[:, None] - seam_steps[None, :]
        assert np.any((gaps >= 0) & (gaps <= 3))
    for trace, report in zip(traces[1:], reports[1:]):
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(trace, name), getattr(traces[0], name)), name
        assert report == reports[0]


def test_mode_paths_do_not_depend_on_the_policy(demo, demo_bank):
    # Each step draws both jumps and both observations whatever the policy
    # uses, so in a single region, where no state feeds back into the jump
    # tables, every policy sees the same jump draws and the same mode paths.
    # OnChange drew only the observations it refreshed, so its jump draws
    # drifted away from Periodic's after the first jump.  The model is the
    # demo in region pair (1, 1), its rates scaled up by 100.
    model = dataclasses.replace(
        demo,
        part1=RegionPartition(()),
        part2=RegionPartition(()),
        rates1=RateFamily((100.0 * demo.rates1.matrices[0],)),
        rates2=RateFamily((100.0 * demo.rates2.matrices[0],)),
        obs1=ObservationModel(demo.obs1.alphas[:1]),
        obs2=ObservationModel(demo.obs2.alphas[:1]),
    )
    bank = ControllerBank(Scheme.DISTRIBUTED, {key: g for key, g in demo_bank.gains.items() if key[2] == (1, 1)}, {})
    x1_0, x2_0 = np.array([1.0, -2.5]), np.array([0.5, 1.5, -2.0])
    traces = [
        simulate(model, bank, SimConfig(dt=1e-3, horizon=2.0, seed=5, obs_policy=policy), x1_0, x2_0)
        for policy in (OnChange(), Periodic(1e-3), Periodic(3e-3))
    ]
    for name in ("mode1", "mode2"):
        assert np.count_nonzero(np.diff(getattr(traces[0], name))) >= 2, f"{name} jumps less than twice"
        for trace in traces[1:]:
            assert np.array_equal(getattr(trace, name), getattr(traces[0], name)), name


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

    def test_tuple_master_seed(self, demo, demo_bank):
        # Run r appends r to the master seed's words, so a tuple seed runs
        # as an integer one does.  SeedSequence ignores trailing zero words,
        # so run 0 draws as the master seed itself.
        x1_0, x2_0 = example_initial_state()
        cfg = SimConfig(dt=1e-3, horizon=0.2, seed=(3, 4), obs_policy=Periodic(1e-3))
        report = estimate_stability(demo, demo_bank, cfg, 2, x1_0, x2_0)
        for run, seed in ((0, (3, 4, 0)), (0, (3, 4)), (1, (3, 4, 1))):
            trace = simulate(demo, demo_bank, dataclasses.replace(cfg, seed=seed), x1_0, x2_0)
            assert report.functional_per_run[run] == energy_functional(trace)
        assert report.functional_per_run[0] != report.functional_per_run[1]

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
        # The functional sums weighted samples, in another order than
        # np.trapezoid: the digits agree to float64 rounding, 1e-12 relative.
        trapezoid = float(np.trapezoid(sq[:3], trace.t[:3]))
        assert abs(report.half_mean - trapezoid) <= 1e-12 * trapezoid

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


PERF_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
OUTER = (np.array([4.0, -5.5]), np.array([3.0, 5.0, -4.5]))  # in the outer shells of both partitions


class TestPinnedReports:
    """Values of ``estimate_stability`` recorded before the kernel wrote
    each row in place; a draw or row misalignment moves them far beyond
    the 1e-12 relative slack left for another BLAS's rounding."""

    def test_single_region_perfbench_call(self):
        model, bank = load_model(PERF_DATA / "single_region_model.json"), load_bank(PERF_DATA / "bank_single_region.json")
        cfg = SimConfig(dt=1e-3, horizon=0.1, seed=11, obs_policy=Periodic(1e-3))
        report = estimate_stability(model, bank, cfg, 48, *OUTER)
        got = (report.mean, report.half_mean, report.stderr, sum(report.terminal_norms))
        expected = (43.81248180117799, 11.9012406378153, 1.0723532234351039, 1349.5946457867776)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("policy, functionals, halves, terminals", [
        (Periodic(1e-3),
         (799.9018025657406, 8958.200229721402, 222.92391603317876),
         (545.3864242091578, 8062.901106599604, 213.13507905540712),
         (6.5986161320042696, 39.427402064561555, 3.7754613149710075)),
        (OnChange(),
         (15744038472190.338, 27415120102914.74, 9744983.703607505),
         (30078733.543581944, 247768851.3911631, 13282.089510449516),
         (12313133.066230504, 30555319.005145967, 15309.122984185624)),
    ], ids=["periodic", "onchange"])
    def test_demo_one_second_call(self, policy, functionals, halves, terminals):
        model, bank = load_model(PERF_DATA / "demo_model.json"), load_bank(PERF_DATA / "bank_distributed.json")
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=11, obs_policy=policy)
        report = estimate_stability(model, bank, cfg, 3, *OUTER)
        assert report.functional_per_run == pytest.approx(functionals, rel=1e-12)
        assert report.half_functional_per_run == pytest.approx(halves, rel=1e-12)
        assert report.terminal_norms == pytest.approx(terminals, rel=1e-12)


def test_trace_shares_no_memory_with_a_later_run(demo, demo_bank):
    cfg = SimConfig(dt=1e-3, horizon=0.5, seed=5, obs_policy=Periodic(1e-3))
    first = simulate(demo, demo_bank, cfg, *OUTER)
    kept = {name: getattr(first, name).copy() for name in TRACE_FIELDS}
    later = simulate(demo, demo_bank, dataclasses.replace(cfg, seed=6), *OUTER)
    estimate_stability(demo, demo_bank, cfg, 2, *OUTER)
    for name in TRACE_FIELDS:
        assert not np.shares_memory(getattr(first, name), getattr(later, name)), name
        assert np.array_equal(getattr(first, name), kept[name]), name


class TestMonteCarloReport:
    @staticmethod
    def report(values, halves=None):
        halves = values if halves is None else halves
        return sim.MonteCarloReport(len(values), 1.0, tuple(values), tuple(halves), (0.0,) * len(values))

    def test_normal_range_keeps_its_bits(self):
        values = [0.1, 2.5, 3.75e5, 1e-300, 7.0 / 3.0]
        report = self.report(values)
        mu = math.fsum(values) / 5
        assert report.mean == mu
        assert report.stderr == math.sqrt(math.fsum((f - mu) ** 2 for f in values) / 4 / 5)

    def test_sum_near_the_float_range(self):
        # The plain sum of these overflows: fsum raised "intermediate overflow".
        values = [1.5e308, 1.7e308, 1.6e308, 1.2e308]
        report = self.report(values)
        scaled = self.report([v / 2.0**64 for v in values])
        assert report.mean == 1.5e308
        assert report.half_mean == 1.5e308
        assert report.stderr == scaled.stderr * 2.0**64
        assert math.isfinite(report.saturation)

    def test_squares_beyond_the_float_range(self):
        # Deviations of about 1e160 square past the float range: ** raised
        # OverflowError.  Scaled by 2**-600 the same statistics are exact.
        values = [7.7e160, 3.1e158, 2.2e159, 9.0e155]
        report = self.report(values)
        scaled = self.report([v * 2.0**-600 for v in values])
        assert report.mean == scaled.mean * 2.0**600
        assert report.stderr == scaled.stderr * 2.0**600
        assert math.isfinite(report.stderr) and report.stderr > 1e160

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_named(self, bad):
        report = self.report([1.0, bad, 2.0])
        for stat in ("mean", "stderr"):
            with pytest.raises(NonFinite, match="functional_per_run: every value must be finite"):
                getattr(report, stat)
        report = self.report([1.0, 3.0, 2.0], halves=[0.5, bad, 1.0])
        assert report.mean == 2.0
        with pytest.raises(NonFinite, match="half_functional_per_run: every value must be finite"):
            report.half_mean


@pytest.mark.parametrize("horizon", [5.0, 1.0 + 1e-9, -1.0, math.nan, math.inf],
                         ids=["past-the-end", "just-past-the-end", "negative", "nan", "inf"])
def test_energy_functional_rejects_horizon_off_the_trace(demo, demo_bank, horizon):
    # A horizon past the last sample returned the integral over the whole
    # 1 s trace as if it covered the horizon; a negative or NaN one gave 0.
    x1_0, x2_0 = example_initial_state()
    cfg = SimConfig(dt=1e-2, horizon=1.0, seed=4, obs_policy=Periodic(1e-2))
    trace = simulate(demo, demo_bank, cfg, x1_0, x2_0)
    with pytest.raises(ValueError, match=re.escape(f"energy functional horizon must lie in [0, 1], got {horizon}")):
        energy_functional(trace, horizon)
    assert energy_functional(trace, 1.0) == energy_functional(trace)
    assert energy_functional(trace, 0.0) == 0.0


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
