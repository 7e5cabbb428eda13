"""Closed-loop simulation of the coupled jump systems and stability estimation.

The simulator advances the joint continuous state with fixed-step RK4 while the
two mode chains jump with per-step probability rate*dt, the rate matrix in
force being selected each step by the partner state's region.  Observations
are re-sampled per the configured policy, and the feedback in force is
frozen across each step.  Everything is driven by one seeded generator, so
a (model, bank, config, seed) tuple reproduces its trace bit for bit.
The joint dynamics and gains are the ones the certifier checks, from
``model.joint_system`` and ``synthesis.check_bank``.

The feedback and disturbance are frozen across a step, so the closed loop
is linear there and its RK4 step is exact as one matrix: x <- T4(dt A_cl) x
plus a disturbance term (see ``_run``).  ``_prepare`` tabulates that step
matrix for every (modes, observations, regions) the loop can be in, and
turns every rate and emission row into a cumulative draw table; ``_run`` is
a scalar loop of one matrix-vector product, two squared norms and a few
table lookups per step.

``estimate_stability`` runs independent seeded simulations and reports the
sample mean and standard error of the truncated energy functional
integral of |x(t)|^2, whose saturation across horizons is the practical
stand-in for the infinite-horizon stochastic stability criterion.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import mul

import numpy as np

from .errors import DimensionMismatch, InvalidGenerator, NonFinite, NotStochastic
from .model import InterdependentModel, joint_system
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


def _jump_row(rate_row, i: int, dt: float) -> tuple[list[float], list[int]]:
    """Draw table for leaving 0-based mode ``i``: the cumulative per-target
    jump probabilities rate * dt, accumulated in target order with the
    diagonal skipped, and the 0-based modes they pick; the last outcome,
    ``i`` itself, takes the leftover mass."""
    cums, outcomes = [], []
    acc = 0.0
    for j, rate in enumerate(np.asarray(rate_row, dtype=float).tolist()):
        if j == i:
            continue
        p = rate * dt
        if not p >= 0.0:
            raise InvalidGenerator(f"negative or NaN jump probability from rate {rate} at target {j + 1}")
        acc += p
        cums.append(acc)
        outcomes.append(j)
    if acc > 1.0:
        raise InvalidGenerator(f"per-step jump probability {acc:.3g} exceeds 1; reduce dt")
    return cums, [*outcomes, i]


def _emission_row(row) -> tuple[list[float], list[int]]:
    """Draw table for one emission-matrix row: its cumulative probabilities
    and the 0-based observations they pick, the last again for any mass a
    rounding shortfall leaves over."""
    cums = []
    acc = 0.0
    for p in np.asarray(row, dtype=float).tolist():
        if not p >= 0.0:
            raise NotStochastic(f"negative or NaN emission probability {p}")
        acc += p
        cums.append(acc)
    if acc < 1.0 - 1e-9:
        raise NotStochastic(f"emission row sums to {acc:.12g}, expected 1")
    return cums, [*range(len(cums)), len(cums) - 1]


def _pick(table: tuple[list[float], list[int]], u: float) -> int:
    """The outcome of the first cumulative probability above the uniform ``u``."""
    cums, outcomes = table
    return outcomes[bisect_right(cums, u)]


def step_mode(rng, i: int, rate_row, dt: float) -> int:
    """One jump-chain step: leave mode i with probability rate * dt per target.

    A single uniform draw is compared against the cumulative per-target jump
    probabilities; the leftover mass keeps the current mode.
    """
    return _pick(_jump_row(rate_row, i - 1, dt), rng.random()) + 1


def sample_observation(rng, row) -> int:
    """Sample a 1-based observation index from one emission-matrix row."""
    return _pick(_emission_row(row), rng.random()) + 1


def check_dt(model: InterdependentModel, dt: float) -> None:
    """Reject non-finite rates, and a dt whose per-step jump probability, at
    the worst joint diagonal rate over all regions and mode pairs, exceeds
    the cap."""
    for k, rates in ((1, model.rates1), (2, model.rates2)):
        for region, g in enumerate(rates.matrices, start=1):
            if not np.isfinite(g).all():
                raise InvalidGenerator(f"system {k}: rate matrix for partner region {region} has non-finite entries")
    worst = sum(max(float(np.max(np.abs(np.diag(g)))) for g in r.matrices) for r in (model.rates1, model.rates2))
    if dt * worst > JUMP_PROBABILITY_CAP:
        bound = JUMP_PROBABILITY_CAP / worst if worst > 0.0 else math.inf
        raise ValueError(
            f"dt={dt:g} violates the jump-probability cap: dt * {worst:g} > "
            f"{JUMP_PROBABILITY_CAP}; need dt <= {bound:g}"
        )


@dataclass(frozen=True)
class _Tables:
    """What ``_run`` reads, built and checked once by ``_prepare``.

    Closed loop k is the one in force at the 0-based (mode1, mode2, obs1,
    obs2, region1, region2) whose flat position in an array of ``shape`` is k.
    """

    shape: tuple[int, int, int, int, int, int]
    gains: np.ndarray  # (loops, inputs, states): G of each loop
    steps: list[np.ndarray]  # T4(dt A_cl) of each loop
    pushes: list[np.ndarray] | None  # dt S3(dt A_cl) D amplitude of each loop; None without disturbance
    jumps: tuple[list, list]  # system k's jump tables, [partner region][mode]
    emissions: tuple[list, list]  # system k's emission tables, [own region][mode]
    thresholds: tuple[tuple[float, ...], tuple[float, ...]]
    x0: np.ndarray  # joint initial state [x1; x2]
    split: tuple[int, int]  # state and input dimensions of system 1


def _prepare(model: InterdependentModel, bank: ControllerBank, config: SimConfig, x1_0, x2_0) -> _Tables:
    """Check every input before the first step and tabulate what ``_run`` reads.

    Each closed loop holds the joint gain G that ``check_bank`` returns, the
    one the certifier checks, and the step of A_cl = A + B G, with (A, B, D)
    the joint mode's dynamics from ``joint_system``.  A full-information
    controller reads the true modes, so its loops hold the gain of the joint
    mode in force whatever was observed.  The step matrices of all loops
    come from a few matrix products on the stacked (loops, n, n) array.
    Every rate and emission row becomes a draw table here, so a bad row is
    rejected even in a region the run never enters.
    """
    check_dt(model, config.dt)
    dt = config.dt
    s1, s2 = model.sys1, model.sys2
    x1 = np.asarray(x1_0, dtype=float)
    x2 = np.asarray(x2_0, dtype=float)
    if x1.shape != (s1.state_dim,) or x2.shape != (s2.state_dim,):
        raise DimensionMismatch(f"initial states must have dimensions {s1.state_dim} and {s2.state_dim}")
    n1, n2 = s1.mode_count, s2.mode_count
    if not (1 <= config.init_modes[0] <= n1 and 1 <= config.init_modes[1] <= n2):
        raise ValueError(f"initial modes must lie in 1..{n1} and 1..{n2}, got {config.init_modes}")
    for name, part in (("partition1", model.part1), ("partition2", model.part2)):
        if not all(a < b for a, b in zip(part.thresholds, part.thresholds[1:])):
            raise ValueError(f"{name}: thresholds must be strictly increasing, got {part.thresholds}")
    r1, r2 = model.part1.region_count, model.part2.region_count
    jumps = (
        [[_jump_row(model.rates1.matrix(m)[i], i, dt) for i in range(n1)] for m in range(1, r2 + 1)],
        [[_jump_row(model.rates2.matrix(m)[i], i, dt) for i in range(n2)] for m in range(1, r1 + 1)],
    )
    emissions = (
        [[_emission_row(model.obs1.alpha(m)[i]) for i in range(n1)] for m in range(1, r1 + 1)],
        [[_emission_row(model.obs2.alpha(m)[i]) for i in range(n2)] for m in range(1, r2 + 1)],
    )

    system = joint_system(model)
    joint = check_bank(model, bank).gains
    cells = list(itertools.product(range(1, r1 + 1), range(1, r2 + 1)))
    nj, nx, nu = n1 * n2, system.state_dim, system.input_dim
    g = np.array([[joint[(0, j, cell)] for cell in cells] for j in range(1, nj + 1)])
    # Axes (mode, observation, cell): a loop reads the gain of its
    # observation, or of its mode under full information.
    g = g[:, None] if bank.scheme is Scheme.FULL_INFORMATION else g[None]
    a = np.array([mode.a for mode in system.modes])[:, None, None]
    b = np.array([mode.b for mode in system.modes])[:, None, None]
    loops = (nj, nj, len(cells))
    m = dt * np.broadcast_to(a + b @ g, (*loops, nx, nx)).reshape(-1, nx, nx)
    eye = np.eye(nx)
    s3 = eye + m @ (eye / 2.0 + m @ (eye / 6.0 + m / 24.0))  # I + M/2 + M^2/6 + M^3/24
    phi = eye + m @ s3  # I + M + M^2/2 + M^3/6 + M^4/24

    pushes = None
    dist = config.disturbance
    if not isinstance(dist, Zero):
        amplitude = np.concatenate([dist.amplitude1, dist.amplitude2])
        dw = np.array([mode.d @ amplitude for mode in system.modes])[:, None, None]
        dw = np.broadcast_to(dw, (*loops, nx)).reshape(-1, nx, 1)
        pushes = list(dt * (s3 @ dw)[:, :, 0])

    return _Tables(
        shape=(n1, n2, n1, n2, r1, r2),
        gains=np.broadcast_to(g, (*loops, nu, nx)).reshape(-1, nu, nx),
        steps=list(phi),
        pushes=pushes,
        jumps=jumps,
        emissions=emissions,
        thresholds=(model.part1.thresholds, model.part2.thresholds),
        x0=np.concatenate([x1, x2]),
        split=(s1.state_dim, s1.input_dim),
    )


def simulate(model: InterdependentModel, bank: ControllerBank, config: SimConfig, x1_0, x2_0) -> Trace:
    """Run one seeded closed-loop trajectory and record every step.

    Each iteration freezes the rates, gains and disturbance at the current
    step's values, advances the joint state one RK4 step, then samples the
    mode jumps (using the regions the step started from) and refreshes the
    observations per policy.  Bit-identical for identical inputs.  The bank
    and every draw law are checked against the model before the first step.
    """
    return _run(_prepare(model, bank, config, x1_0, x2_0), config)


def _uniforms(rng, count: int):
    """The generator's uniforms in order, drawn up to 4096 at a time;
    ``rng.random(k).tolist()`` gives the doubles of k ``rng.random()`` calls."""
    size = min(count, 4096)
    while True:
        yield from rng.random(size).tolist()


def _run(tables: _Tables, config: SimConfig) -> Trace:
    """One trajectory of the closed loops ``_prepare`` tabulated.

    Within a step the loop is x' = A x + c with A = A_cl and c = D w frozen,
    and RK4's four stages on it collapse exactly to
    x <- T4(hA) x + h S3(hA) c, with T4(M) = I + M + M^2/2 + M^3/6 + M^4/24
    and S3(M) = I + M/2 + M^2/6 + M^3/24 (expand k1..k4 and collect powers
    of hA).  So a step is one product with the loop's step matrix, plus the
    disturbance envelope times the loop's push; only the rounding differs
    from evaluating the stages.  Each step records its loop index, from
    which modes, observations, regions and u = G x are read after the loop.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    n_steps = round(config.horizon / config.dt)
    draws = _uniforms(rng, 2 + 4 * n_steps)  # at most four draws per step
    n1, n2, _, _, r1, r2 = tables.shape
    steps, pushes = tables.steps, tables.pushes
    jumps1, jumps2 = tables.jumps
    emit1, emit2 = tables.emissions
    t1, t2 = tables.thresholds
    nx1, nu1 = tables.split
    if pushes is not None:
        dist = config.disturbance
        t = np.arange(n_steps) * config.dt
        envelope = (np.exp(-dist.decay * t) * np.sin(dist.frequency * t)).tolist()
    periodic = isinstance(config.obs_policy, Periodic)
    period_steps = max(1, round(config.obs_policy.period / config.dt)) if periodic else 0

    # Regions are 0-based shell indices: the thresholds at or below |x_k|^2.
    x = tables.x0
    xl = x.tolist()
    h1, h2 = xl[:nx1], xl[nx1:]
    m1 = bisect_right(t1, sum(map(mul, h1, h1)))
    m2 = bisect_right(t2, sum(map(mul, h2, h2)))
    th1, th2 = config.init_modes[0] - 1, config.init_modes[1] - 1
    ob1 = _pick(emit1[m1][th1], next(draws))
    ob2 = _pick(emit2[m2][th2], next(draws))
    k = ((((th1 * n2 + th2) * n1 + ob1) * n2 + ob2) * r1 + m1) * r2 + m2
    xs, ks = [x], [k]

    for n in range(1, n_steps + 1):
        x = steps[k].dot(x)
        if pushes is not None:
            x += envelope[n - 1] * pushes[k]

        # Jumps sample against the regions the step started from.
        new_th1 = _pick(jumps1[m2][th1], next(draws))
        new_th2 = _pick(jumps2[m1][th2], next(draws))
        xl = x.tolist()
        h1, h2 = xl[:nx1], xl[nx1:]
        new_m1 = bisect_right(t1, sum(map(mul, h1, h1)))
        new_m2 = bisect_right(t2, sum(map(mul, h2, h2)))

        if periodic:
            refresh1 = refresh2 = n % period_steps == 0
        else:
            region_changed = new_m1 != m1 or new_m2 != m2
            refresh1 = new_th1 != th1 or region_changed
            refresh2 = new_th2 != th2 or region_changed
        th1, th2, m1, m2 = new_th1, new_th2, new_m1, new_m2
        if refresh1:
            ob1 = _pick(emit1[m1][th1], next(draws))
        if refresh2:
            ob2 = _pick(emit2[m2][th2], next(draws))

        k = ((((th1 * n2 + th2) * n1 + ob1) * n2 + ob2) * r1 + m1) * r2 + m2
        xs.append(x)
        ks.append(k)

    x_arr = np.array(xs)
    if not np.all(np.isfinite(x_arr)):
        raise NonFinite("state diverged to non-finite values during simulation")
    index = np.array(ks)
    mode1, mode2, obs1, obs2, region1, region2 = (c + 1 for c in np.unravel_index(index, tables.shape))
    u_arr = np.matmul(tables.gains[index], x_arr[:, :, None])[:, :, 0]

    return Trace(
        t=np.arange(n_steps + 1) * config.dt,
        x1=x_arr[:, :nx1],
        x2=x_arr[:, nx1:],
        mode1=mode1,
        mode2=mode2,
        obs1=obs1,
        obs2=obs2,
        u1=u_arr[:, :nu1],
        u2=u_arr[:, nu1:],
        region1=region1,
        region2=region2,
    )


def energy_functional(trace: Trace, horizon: float | None = None) -> float:
    """Trapezoidal integral of |x(t)|^2, optionally truncated at ``horizon``.

    A horizon inside a step ends the integral on the linear interpolant of
    |x|^2 across that step, so half of an odd number of steps is met exactly.
    """
    sq = np.sum(trace.x1 * trace.x1, axis=1) + np.sum(trace.x2 * trace.x2, axis=1)
    t = trace.t
    tail = 0.0
    if horizon is not None:
        k = int(np.count_nonzero(t <= horizon + 1e-12))
        if 0 < k < len(t) and horizon > t[k - 1] + 1e-12:
            w = horizon - t[k - 1]
            end = sq[k - 1] + (sq[k] - sq[k - 1]) * (w / (t[k] - t[k - 1]))
            tail = 0.5 * w * (sq[k - 1] + end)
        sq, t = sq[:k], t[:k]
    head = float(np.trapezoid(sq, t)) if len(t) >= 2 else 0.0
    return head + float(tail)


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
    tables = _prepare(model, bank, config, x1_0, x2_0)
    functionals = []
    halves = []
    terminals = []
    half = config.horizon / 2.0
    for run in range(n_runs):
        # Composite entropy (master seed, run index) gives independent,
        # reproducible streams; SeedSequence accepts the tuple directly.
        run_config = replace(config, seed=(config.seed, run))
        trace = _run(tables, run_config)
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
