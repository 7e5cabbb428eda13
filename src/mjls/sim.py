"""Closed-loop simulation of the coupled jump systems and stability estimation.

The simulator advances the joint continuous state with fixed-step RK4 while the
two mode chains jump with per-step probability rate*dt, the rate matrix in
force being selected each step by the partner state's region.  Observations
are re-sampled per the configured policy, and the feedback in force is
frozen across each step.  Everything is driven by one seeded generator, so
a (model, bank, config, seed) tuple reproduces its trace bit for bit.
The joint dynamics and gains are the ones the certifier checks, from
``model.joint_system`` and ``synthesis.check_bank``.

``estimate_stability`` runs independent seeded simulations and reports the
sample mean and standard error of the truncated energy functional
integral of |x(t)|^2, whose saturation across horizons is the practical
stand-in for the infinite-horizon stochastic stability criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InvalidGenerator, NonFinite, NotStochastic
from .model import InterdependentModel, joint_system, mode_pairs, region_index
from .synthesis import ControllerBank, Scheme, check_bank

__all__ = [
    "OnChange",
    "Periodic",
    "Zero",
    "DecayingSine",
    "SimConfig",
    "Trace",
    "MonteCarloReport",
    "step_mode",
    "sample_observation",
    "control_input",
    "simulate",
    "estimate_stability",
]

# Largest admissible dt * max diagonal jump rate; keeps the per-step jump
# probabilities in the small-increment regime the rate definition assumes.
JUMP_PROBABILITY_CAP = 0.1


@dataclass(frozen=True)
class OnChange:
    """Re-sample an observation whenever its mode or the region pair changes."""


@dataclass(frozen=True)
class Periodic:
    """Re-sample observations every ``period`` seconds (and at t = 0)."""

    period: float

    def __post_init__(self):
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError(f"observation period must be positive and finite, got {self.period}")


@dataclass(frozen=True)
class Zero:
    """No disturbance."""

    def value(self, t: float, system: int) -> float:
        return 0.0


@dataclass(frozen=True)
class DecayingSine:
    """w_k(t) = amplitude_k * exp(-decay t) * sin(frequency t); square-integrable."""

    amplitude1: tuple[float, ...]
    amplitude2: tuple[float, ...]
    decay: float
    frequency: float

    def __post_init__(self):
        object.__setattr__(self, "amplitude1", tuple(float(a) for a in self.amplitude1))
        object.__setattr__(self, "amplitude2", tuple(float(a) for a in self.amplitude2))
        if self.decay <= 0.0:
            raise ValueError("disturbance decay rate must be positive for square integrability")


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step simulation settings."""

    dt: float
    horizon: float
    seed: int = 0
    obs_policy: OnChange | Periodic = OnChange()
    disturbance: Zero | DecayingSine = Zero()
    init_modes: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ValueError(f"horizon must be nonnegative and finite, got {self.horizon}")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"horizon must be a whole number of steps of dt {self.dt}, got {self.horizon}")


@dataclass(frozen=True)
class Trace:
    """Per-step record of the closed loop; row n is the state of play at t[n]."""

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    mode1: np.ndarray
    mode2: np.ndarray
    obs1: np.ndarray
    obs2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    region1: np.ndarray
    region2: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class MonteCarloReport:
    """Sample statistics of the truncated energy functional over N runs."""

    runs: int
    horizon: float
    functional_per_run: tuple[float, ...]
    half_functional_per_run: tuple[float, ...]
    terminal_norms: tuple[float, ...]

    @property
    def mean(self) -> float:
        return math.fsum(self.functional_per_run) / self.runs

    @property
    def half_mean(self) -> float:
        return math.fsum(self.half_functional_per_run) / self.runs

    @property
    def stderr(self) -> float:
        if self.runs < 2:
            return 0.0
        mu = self.mean
        var = math.fsum((f - mu) ** 2 for f in self.functional_per_run) / (self.runs - 1)
        return math.sqrt(var / self.runs)

    @property
    def saturation(self) -> float:
        """Relative gap between the full- and half-horizon means."""
        mu = self.mean
        if mu == 0.0:
            return 0.0
        return abs(mu - self.half_mean) / mu


def step_mode(rng, i: int, rate_row, dt: float) -> int:
    """One jump-chain step: leave mode i with probability rate * dt per target.

    A single uniform draw is compared against the cumulative per-target jump
    probabilities; the leftover mass keeps the current mode.
    """
    row = np.asarray(rate_row, dtype=float)
    u = rng.random()
    acc = 0.0
    for j in range(len(row)):
        if j == i - 1:
            continue
        p = row[j] * dt
        if p < 0.0:
            raise InvalidGenerator(f"negative jump probability from rate {row[j]} at target {j + 1}")
        acc += p
        if u < acc:
            return j + 1
    if acc > 1.0:
        raise InvalidGenerator(f"per-step jump probability {acc:.3g} exceeds 1; reduce dt")
    return i


def sample_observation(rng, row) -> int:
    """Sample a 1-based observation index from one emission-matrix row."""
    r = np.asarray(row, dtype=float)
    u = rng.random()
    acc = 0.0
    for j in range(len(r)):
        if r[j] < 0.0:
            raise NotStochastic(f"negative emission probability {r[j]}")
        acc += r[j]
        if u < acc:
            return j + 1
    if acc < 1.0 - 1e-9:
        raise NotStochastic(f"emission row sums to {acc:.12g}, expected 1")
    return len(r)


def control_input(bank: ControllerBank, k: int, i_hat: int, m1: int, m2: int, x_k) -> np.ndarray:
    """Feedback u_k = G x_k for subsystem k under observation i_hat."""
    gain = bank.gain(k, i_hat, (m1, m2))
    return gain @ np.asarray(x_k, dtype=float)


def check_dt(model: InterdependentModel, dt: float) -> None:
    """Reject a dt whose per-step jump probability, at the worst joint
    diagonal rate over all regions and mode pairs, exceeds the cap."""
    worst = sum(max(float(np.max(np.abs(np.diag(g)))) for g in r.matrices) for r in (model.rates1, model.rates2))
    if dt * worst > JUMP_PROBABILITY_CAP:
        bound = JUMP_PROBABILITY_CAP / worst if worst > 0.0 else math.inf
        raise ValueError(
            f"dt={dt:g} violates the jump-probability cap: dt * {worst:g} > "
            f"{JUMP_PROBABILITY_CAP}; need dt <= {bound:g}"
        )


def _rk4(a_cl: np.ndarray, c: np.ndarray | None, x: np.ndarray, h: float) -> np.ndarray:
    if c is None:
        k1 = a_cl @ x
        k2 = a_cl @ (x + (0.5 * h) * k1)
        k3 = a_cl @ (x + (0.5 * h) * k2)
        k4 = a_cl @ (x + h * k3)
    else:
        k1 = a_cl @ x + c
        k2 = a_cl @ (x + (0.5 * h) * k1) + c
        k3 = a_cl @ (x + (0.5 * h) * k2) + c
        k4 = a_cl @ (x + h * k3) + c
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _prepare(model: InterdependentModel, bank: ControllerBank, config: SimConfig, x1_0, x2_0):
    """Check every input before the first step.  Returns the closed loop
    (G, A + B G, D) per (mode1, mode2, obs1, obs2, region1, region2) and the
    joint initial state x = [x1; x2].

    G is the joint gain ``check_bank`` returns, the one the certifier
    checks, and (A, B, D) the joint mode's dynamics from ``joint_system``.
    A full-information controller reads the true modes, so its entries hold
    the gain of the joint mode in force whatever was observed.
    """
    check_dt(model, config.dt)
    x1 = np.asarray(x1_0, dtype=float)
    x2 = np.asarray(x2_0, dtype=float)
    if x1.shape != (model.sys1.state_dim,) or x2.shape != (model.sys2.state_dim,):
        raise DimensionMismatch(
            f"initial states must have dimensions {model.sys1.state_dim} and {model.sys2.state_dim}"
        )
    system = joint_system(model)
    pairs = mode_pairs(model)
    full_info = bank.scheme is Scheme.FULL_INFORMATION
    loops = {}
    for (_, j, cell), g in check_bank(model, bank).gains.items():
        modes = [j] if full_info else range(1, len(pairs) + 1)
        observed = pairs if full_info else [pairs[j - 1]]
        for i in modes:
            dyn = system.dynamics(i)
            entry = (g, dyn.a + dyn.b @ g, dyn.d)
            for obs in observed:
                loops[(*pairs[i - 1], *obs, *cell)] = entry
    return loops, np.concatenate([x1, x2])


def simulate(model: InterdependentModel, bank: ControllerBank, config: SimConfig, x1_0, x2_0) -> Trace:
    """Run one seeded closed-loop trajectory and record every step.

    Each iteration freezes the rates, gains and disturbance at the current
    step's values, advances the joint state one RK4 step, then samples the
    mode jumps (using the regions the step started from) and refreshes the
    observations per policy.  Bit-identical for identical inputs.  The bank
    is checked against the model before the first step.
    """
    loops, x0 = _prepare(model, bank, config, x1_0, x2_0)
    return _run(model, loops, x0, config)


def _run(model: InterdependentModel, loops: dict, x: np.ndarray, config: SimConfig) -> Trace:
    """One trajectory of the closed loops ``_prepare`` tabulated."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    n_steps = round(config.horizon / config.dt)
    nx1, nu1 = model.sys1.state_dim, model.sys1.input_dim
    th1, th2 = config.init_modes
    dt = config.dt
    dist = config.disturbance
    zero_w = isinstance(dist, Zero)
    if not zero_w:
        amplitude = np.concatenate([dist.amplitude1, dist.amplitude2])
    periodic = isinstance(config.obs_policy, Periodic)
    period_steps = max(1, int(round(config.obs_policy.period / dt))) if periodic else 0

    t_arr = np.arange(n_steps + 1) * dt
    x_arr = np.empty((n_steps + 1, len(x)))
    u_arr = np.empty((n_steps + 1, nu1 + model.sys2.input_dim))
    i1_arr = np.empty(n_steps + 1, dtype=np.int64)
    i2_arr = np.empty(n_steps + 1, dtype=np.int64)
    o1_arr = np.empty(n_steps + 1, dtype=np.int64)
    o2_arr = np.empty(n_steps + 1, dtype=np.int64)
    m1_arr = np.empty(n_steps + 1, dtype=np.int64)
    m2_arr = np.empty(n_steps + 1, dtype=np.int64)

    m1 = region_index(model.part1, x[:nx1])
    m2 = region_index(model.part2, x[nx1:])
    ob1 = sample_observation(rng, model.obs1.alpha(m1)[th1 - 1])
    ob2 = sample_observation(rng, model.obs2.alpha(m2)[th2 - 1])
    g, a_cl, d = loops[th1, th2, ob1, ob2, m1, m2]

    def record(n):
        x_arr[n] = x
        u_arr[n] = g @ x
        i1_arr[n] = th1
        i2_arr[n] = th2
        o1_arr[n] = ob1
        o2_arr[n] = ob2
        m1_arr[n] = m1
        m2_arr[n] = m2

    record(0)

    for n in range(1, n_steps + 1):
        if zero_w:
            c = None
        else:
            t_prev = t_arr[n - 1]
            envelope = math.exp(-dist.decay * t_prev) * math.sin(dist.frequency * t_prev)
            c = d @ (envelope * amplitude)
        x = _rk4(a_cl, c, x, dt)

        # Jumps sample against the regions the step started from.
        new_th1 = step_mode(rng, th1, model.rates1.matrix(m2)[th1 - 1], dt)
        new_th2 = step_mode(rng, th2, model.rates2.matrix(m1)[th2 - 1], dt)
        new_m1 = region_index(model.part1, x[:nx1])
        new_m2 = region_index(model.part2, x[nx1:])

        region_changed = (new_m1, new_m2) != (m1, m2)
        if periodic:
            refresh1 = refresh2 = n % period_steps == 0
        else:
            refresh1 = new_th1 != th1 or region_changed
            refresh2 = new_th2 != th2 or region_changed
        th1, th2, m1, m2 = new_th1, new_th2, new_m1, new_m2
        if refresh1:
            ob1 = sample_observation(rng, model.obs1.alpha(m1)[th1 - 1])
        if refresh2:
            ob2 = sample_observation(rng, model.obs2.alpha(m2)[th2 - 1])

        g, a_cl, d = loops[th1, th2, ob1, ob2, m1, m2]
        record(n)

    if not np.all(np.isfinite(x_arr)):
        raise NonFinite("state diverged to non-finite values during simulation")

    return Trace(
        t=t_arr,
        x1=x_arr[:, :nx1],
        x2=x_arr[:, nx1:],
        mode1=i1_arr,
        mode2=i2_arr,
        obs1=o1_arr,
        obs2=o2_arr,
        u1=u_arr[:, :nu1],
        u2=u_arr[:, nu1:],
        region1=m1_arr,
        region2=m2_arr,
    )


def energy_functional(trace: Trace, horizon: float | None = None) -> float:
    """Trapezoidal integral of |x(t)|^2, optionally truncated."""
    sq = np.sum(trace.x1 * trace.x1, axis=1) + np.sum(trace.x2 * trace.x2, axis=1)
    t = trace.t
    if horizon is not None:
        keep = t <= horizon + 1e-12
        sq = sq[keep]
        t = t[keep]
    if len(t) < 2:
        return 0.0
    return float(np.trapezoid(sq, t))


def estimate_stability(
    model: InterdependentModel, bank: ControllerBank, config: SimConfig, n_runs: int, x1_0, x2_0
) -> MonteCarloReport:
    """Monte Carlo estimate of the truncated energy functional.

    Each run gets its own generator seeded from (config.seed, run index),
    so the report is reproducible and order-independent.  The bank is
    checked and the closed loops tabulated once, before the first run.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    loops, x0 = _prepare(model, bank, config, x1_0, x2_0)
    functionals = []
    halves = []
    terminals = []
    half = config.horizon / 2.0
    for run in range(n_runs):
        # Composite entropy (master seed, run index) gives independent,
        # reproducible streams; SeedSequence accepts the tuple directly.
        run_config = replace(config, seed=(config.seed, run))
        trace = _run(model, loops, x0, run_config)
        functionals.append(energy_functional(trace))
        halves.append(energy_functional(trace, half))
        terminals.append(float(np.sqrt(trace.x1[-1] @ trace.x1[-1] + trace.x2[-1] @ trace.x2[-1])))
    return MonteCarloReport(
        runs=n_runs,
        horizon=config.horizon,
        functional_per_run=tuple(functionals),
        half_functional_per_run=tuple(halves),
        terminal_norms=tuple(terminals),
    )
