"""Closed-loop simulation of the coupled jump systems and stability estimation.

The simulator advances the joint continuous state with fixed-step RK4 while the
two mode chains jump with per-step probability rate*dt, the rate matrix in
force being selected each step by the partner state's region.  Observations
are re-sampled per the configured policy, and the feedback in force is
frozen across each step.  Everything is driven by one seeded generator, so
a (model, bank, config, seed) tuple reproduces its trace bit for bit.
Every step after step 0 owns a fixed slot of four uniforms in that stream,
two jump draws and two observation draws, whether or not the policy
refreshes, so a chain's jump draws do not depend on the observation policy.
The joint dynamics and gains are the ones the certifier checks, from
``model.joint_system`` and ``synthesis.joint_bank``, the stack of the gains
``synthesis.check_bank`` checks.

The feedback and disturbance are frozen across a step, so the closed loop
is linear there and its RK4 step is exact as one matrix: x <- T4(dt A_cl) x
plus a disturbance term (see ``_run``).  ``_prepare`` tabulates that step
matrix for every (modes, observations, regions) the loop can be in, and
turns every rate and emission row into a cumulative draw table; all that
does not depend on the run is built there, once per call.  ``_run``
holds the regions across a chunk of steps and finds them for the whole
chunk at once.  Jumps are rare, so between the steps on which a chain may
jump numpy finds the loop index of every step from the draw tables, and the
Python loop is one matrix-vector product per step, written in place into
the run's one preallocated state array.  ``simulate`` builds a ``Trace``
from its states and loop indices; ``estimate_stability`` reads the
functional off the states alone.

``estimate_stability`` runs independent seeded simulations and reports the
sample mean and standard error of the truncated energy functional
integral of |x(t)|^2, whose saturation across horizons is the practical
stand-in for the infinite-horizon stochastic stability criterion.
"""

from __future__ import annotations

import itertools
import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidModel, NonFinite
from .model import InterdependentModel, joint_system, region_pairs, validate
from .synthesis import ControllerBank, Scheme, joint_bank

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

# Largest admissible horizon / dt, since a run holds every step's state.
MAX_STEPS = 10**7


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
        for name in ("amplitude1", "amplitude2", "decay", "frequency"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"disturbance {name} must be finite, got {getattr(self, name)}")
        if self.decay <= 0.0:
            raise ValueError("disturbance decay rate must be positive for square integrability")


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step simulation settings."""

    dt: float
    horizon: float
    seed: int | tuple[int, ...] = 0  # a nonnegative integer, or a tuple of them
    obs_policy: OnChange | Periodic = OnChange()
    disturbance: Zero | DecayingSine = Zero()
    init_modes: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if not all(_is_int_at_least(e, 0) for e in _entropy(self.seed)):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        modes = self.init_modes
        if not (isinstance(modes, tuple) and len(modes) == 2 and all(_is_int_at_least(i, 1) for i in modes)):
            raise ValueError(f"initial modes must be a pair of integers of at least 1, got {modes!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ValueError(f"horizon must be nonnegative and finite, got {self.horizon}")
        steps = _steps(self.horizon, self.dt)
        if steps is None:
            raise ValueError(f"horizon must be a whole number of steps of dt {self.dt}, got {self.horizon}")
        if steps > MAX_STEPS:
            raise ValueError(f"horizon / dt must be at most {MAX_STEPS} steps, got {self.horizon} / {self.dt}")
        if isinstance(self.obs_policy, Periodic) and not _steps(self.obs_policy.period, self.dt):
            raise ValueError(
                f"observation period must be a positive whole number of steps of dt {self.dt}, "
                f"got {self.obs_policy.period}"
            )


def _entropy(seed) -> tuple:
    """A seed's entropy words: the tuple itself, or the one integer."""
    return seed if isinstance(seed, tuple) else (seed,)


def _is_int_at_least(value, least: int) -> bool:
    """Whether ``value`` is an integer, not a bool, of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _steps(span: float, dt: float) -> int | None:
    """The number of steps of ``dt`` in ``span``, or None when it is not a
    whole number (within a relative 1e-9) or overflows to infinity."""
    steps = span / dt
    if math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * max(1.0, steps):
        return round(steps)
    return None


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

    # The statistics are finite whenever every value is.  Near the float
    # range the values are scaled by a power of two, so that no sum or
    # square overflows; one in the normal range scales by 1 and keeps its
    # bits.  A value that is not finite raises NonFinite naming its field.

    @property
    def mean(self) -> float:
        return self._mean(self.functional_per_run, "functional_per_run")

    @property
    def half_mean(self) -> float:
        return self._mean(self.half_functional_per_run, "half_functional_per_run")

    @property
    def stderr(self) -> float:
        if self.runs < 2:
            return 0.0
        mu = self.mean
        # Every deviation lies below 2**e, so below 2**(e - j) once scaled.
        e = _top_exponent(self.functional_per_run, "functional_per_run") + 1
        j = max(0, -(-(2 * e + self.runs.bit_length() - 1023) // 2))
        var = math.fsum((math.ldexp(f, -j) - math.ldexp(mu, -j)) ** 2 for f in self.functional_per_run) / (self.runs - 1)
        return math.ldexp(math.sqrt(var / self.runs), j)

    def _mean(self, values: tuple[float, ...], field: str) -> float:
        k = max(0, _top_exponent(values, field) + self.runs.bit_length() - 1023)
        return math.ldexp(math.fsum(math.ldexp(v, -k) for v in values) / self.runs, k)

    @property
    def saturation(self) -> float:
        """Relative gap between the full- and half-horizon means."""
        mu = self.mean
        if mu == 0.0:
            return 0.0
        return abs(mu - self.half_mean) / mu


def _top_exponent(values, field: str) -> int:
    """The least e with every |value| below 2**e (0 for none or zeros).
    A value that is not finite raises NonFinite naming ``field``."""
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise NonFinite(f"{field}: every value must be finite, got {bad[0]}")
    return math.frexp(max(map(abs, values), default=0.0))[1]


def _jump_row(rate_row, i: int, dt: float) -> tuple[list[float], list[int]]:
    """Draw table for leaving 0-based mode ``i``: the cumulative per-target
    jump probabilities rate * dt, accumulated in target order with the
    diagonal skipped, and the 0-based modes they pick; the last outcome,
    ``i`` itself, takes the leftover mass."""
    rates = np.asarray(rate_row, dtype=float).tolist()
    outcomes = [j for j in range(len(rates)) if j != i]
    return list(itertools.accumulate(rates[j] * dt for j in outcomes)), [*outcomes, i]


def _emission_row(row) -> tuple[list[float], list[int]]:
    """Draw table for one emission-matrix row: its cumulative probabilities
    and the 0-based observations they pick, the last again for any mass a
    rounding shortfall leaves over."""
    cums = list(itertools.accumulate(np.asarray(row, dtype=float).tolist()))
    return cums, [*range(len(cums)), len(cums) - 1]


def _pick(table: tuple[list[float], list[int]], u: float) -> int:
    """The outcome of the first cumulative probability above the uniform ``u``."""
    cums, outcomes = table
    return outcomes[bisect_right(cums, u)]


def step_mode(rng, i: int, rate_row, dt: float) -> int:
    """One jump-chain step: leave mode i with probability rate * dt per target.

    A single uniform draw is compared against the cumulative per-target jump
    probabilities; the leftover mass keeps the current mode.  The sums are
    those of ``_jump_row``, so a uniform picks the mode the simulator's
    tables pick.  ``rate_row`` must be a row of a model that ``validate``
    accepts, at a ``dt`` that ``check_dt`` accepts; it is not checked here.
    """
    u = rng.random()
    leave = 0.0
    for j, rate in enumerate(np.asarray(rate_row, dtype=float).tolist(), 1):
        if j != i:
            leave += rate * dt
            if u < leave:
                return j
    return i


def sample_observation(rng, row) -> int:
    """Sample a 1-based observation index from one emission-matrix row.

    The sums are those of ``_emission_row``, so a uniform picks the
    observation the simulator's tables pick.  ``row`` must be a row of a
    model that ``validate`` accepts; it is not checked here.
    """
    u = rng.random()
    probabilities = np.asarray(row, dtype=float).tolist()
    total = 0.0
    for j, probability in enumerate(probabilities, 1):
        total += probability
        if u < total:
            return j
    return len(probabilities)


def check_dt(model: InterdependentModel, dt: float) -> None:
    """Reject a dt whose per-step jump probability, at the worst joint
    diagonal rate over all regions and mode pairs, exceeds the cap.  The
    model is one that ``validate`` accepts."""
    worst = sum(max(float(np.max(np.abs(np.diag(g)))) for g in r.matrices) for r in (model.rates1, model.rates2))
    if dt * worst > JUMP_PROBABILITY_CAP:
        bound = JUMP_PROBABILITY_CAP / worst if worst > 0.0 else math.inf
        raise ValueError(
            f"dt={dt:g} violates the jump-probability cap: dt * {worst:g} > "
            f"{JUMP_PROBABILITY_CAP}; need dt <= {bound:g}"
        )


@dataclass(frozen=True)
class _Tables:
    """What ``_run`` reads, built once per call by ``_prepare``.

    Closed loop k is the one in force at the 0-based (mode1, mode2, obs1,
    obs2, region1, region2) whose flat position in an array of ``shape`` is k.
    """

    shape: tuple[int, int, int, int, int, int]
    gains: np.ndarray  # (loops, inputs, states): G of each loop
    steps: list[np.ndarray]  # T4(dt A_cl) of each loop
    pushes: list[np.ndarray] | None  # dt S3(dt A_cl) D amplitude of each loop; None without disturbance
    envelope: list[float] | None  # the disturbance envelope at each step's start; None without disturbance
    n_steps: int  # steps in the horizon
    period: int  # steps between observation refreshes; 0 under OnChange
    jumps: tuple[list, list]  # system k's jump tables, [partner region][mode]
    leave: tuple[float, float]  # system k's largest leave probability over its jump tables
    emissions: tuple[list, list]  # system k's emission tables, [own region][mode]
    # System k's emission tables as arrays, [own region][mode]: the
    # cumulative probabilities, and the outcomes times their stride in a
    # loop index.
    observed: tuple[list, list]
    thresholds: tuple[np.ndarray, np.ndarray]
    regioned: bool  # whether either partition has thresholds
    x0: np.ndarray  # joint initial state [x1; x2]
    regions0: tuple[int, int]  # the 0-based regions of x0
    split: tuple[int, int]  # state and input dimensions of system 1


def _prepare(model: InterdependentModel, bank: ControllerBank, config: SimConfig, x1_0, x2_0) -> _Tables:
    """Check every input before the first step and tabulate what ``_run`` reads.

    Each closed loop holds the joint gain G that ``check_bank`` returns, the
    one the certifier checks, read from the stack ``joint_bank`` returns with
    it, and the step of A_cl = A + B G, with (A, B, D) the joint mode's
    dynamics from ``joint_system``.  A full-information
    controller reads the true modes, so its loops hold the gain of the joint
    mode in force whatever was observed.  The step matrices of all loops
    come from a few matrix products on the stacked (loops, n, n) array.
    A model that ``validate`` rejects is refused with InvalidModel first,
    even where the bad entry lies in a region the run never enters; a bank
    that ``check_bank`` rejects, certificate included, as ``certify`` is.
    """
    violations = validate(model)
    if violations:
        raise InvalidModel(violations)
    check_dt(model, config.dt)
    dt = config.dt
    s1, s2 = model.sys1, model.sys2
    x1 = np.asarray(x1_0, dtype=float)
    x2 = np.asarray(x2_0, dtype=float)
    if x1.shape != (s1.state_dim,) or x2.shape != (s2.state_dim,):
        raise DimensionMismatch(f"initial states must have dimensions {s1.state_dim} and {s2.state_dim}")
    for name, x in (("x1_0", x1), ("x2_0", x2)):
        if not np.all(np.isfinite(x)):
            raise NonFinite(f"initial state {name}: entries must be finite, got {x.tolist()}")
    n1, n2 = s1.mode_count, s2.mode_count
    if not (1 <= config.init_modes[0] <= n1 and 1 <= config.init_modes[1] <= n2):
        raise ValueError(f"initial modes must lie in 1..{n1} and 1..{n2}, got {config.init_modes}")
    dist = config.disturbance
    if isinstance(dist, DecayingSine):
        for name, amplitude, nw in (("amplitude1", dist.amplitude1, s1.disturbance_dim),
                                    ("amplitude2", dist.amplitude2, s2.disturbance_dim)):
            if len(amplitude) != nw:
                raise DimensionMismatch(f"disturbance {name}: expected {nw} entries, got {len(amplitude)}")
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
    cells = region_pairs(model)
    nj, nx, nu = n1 * n2, system.state_dim, system.input_dim
    g = joint_bank(model, bank)[1].swapaxes(0, 1)  # (observation, cell)
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

    n_steps = _steps(config.horizon, dt)
    pushes = envelope = None
    if not isinstance(dist, Zero):
        amplitude = np.concatenate([dist.amplitude1, dist.amplitude2])
        dw = np.array([mode.d @ amplitude for mode in system.modes])[:, None, None]
        dw = np.broadcast_to(dw, (*loops, nx)).reshape(-1, nx, 1)
        pushes = list(dt * (s3 @ dw)[:, :, 0])
        t = np.arange(n_steps) * dt
        envelope = (np.exp(-dist.decay * t) * np.sin(dist.frequency * t)).tolist()

    strides = (n2 * r1 * r2, r1 * r2)  # of obs1 and obs2 in a loop index
    thresholds = (np.array(model.part1.thresholds, dtype=float), np.array(model.part2.thresholds, dtype=float))
    x0 = np.concatenate([x1, x2])
    return _Tables(
        shape=(n1, n2, n1, n2, r1, r2),
        gains=np.broadcast_to(g, (*loops, nu, nx)).reshape(-1, nu, nx),
        steps=list(phi),
        pushes=pushes,
        envelope=envelope,
        n_steps=n_steps,
        period=_steps(config.obs_policy.period, dt) if isinstance(config.obs_policy, Periodic) else 0,
        jumps=jumps,
        leave=tuple(max((cums[-1] for per_region in j for cums, _ in per_region if cums), default=0.0) for j in jumps),
        emissions=emissions,
        observed=tuple(
            [[(np.array(cums), stride * np.array(outcomes)) for cums, outcomes in per_region] for per_region in e]
            for e, stride in zip(emissions, strides)
        ),
        thresholds=thresholds,
        regioned=any(map(len, thresholds)),
        x0=x0,
        regions0=tuple(int(r[0]) for r in _regions(thresholds, x0[None], s1.state_dim)),
        split=(s1.state_dim, s1.input_dim),
    )


# Chunk lengths of the region check, in steps (see ``_run``).  A chunk
# starts at _CHUNK_FIRST steps, doubles after each chunk that kept its
# regions, up to _CHUNK_MAX, and starts over at _CHUNK_FIRST after a cut.
# One check costs about as much as eighteen steps (7-8 us against 0.44 us
# a step), and a cut redoes the steps past it.  Region changes come in
# bursts, so short chunks after a cut and long ones between bursts keep
# both costs low.  On demo runs from the outer shells, regions change
# every 40 steps or so in the first second: there 48 % of steps are redone
# and a check falls every 28 steps (38 % and 23 with a first chunk of 8).
# Over 10 s, 7 % are redone and a check falls every 170 steps.  First
# chunks of 16 cost 11 % less than 8 on 1 s runs and 2 % less on 10 s
# runs, and 32 about 1 % less again.
_CHUNK_FIRST = 16
_CHUNK_MAX = 1024

# Steps of uniforms drawn at once, and of jump events found (see ``_run``).
# From 256 to 16 384 steps, 10 s demo runs cost the same within noise.
_WINDOW = 4096


def simulate(model: InterdependentModel, bank: ControllerBank, config: SimConfig, x1_0, x2_0) -> Trace:
    """Run one seeded closed-loop trajectory and record every step.

    Each iteration freezes the rates, gains and disturbance at the current
    step's values, advances the joint state one RK4 step, then samples the
    mode jumps (using the regions the step started from) and refreshes the
    observations per policy.  Bit-identical for identical inputs.  The
    model is validated, and the bank checked against it, before the first
    step.  The trace owns its arrays: no later run writes to them.
    A state that overflows raises NonFinite naming the time of the first
    non-finite row.
    """
    tables = _prepare(model, bank, config, x1_0, x2_0)
    x_arr, index = _run(tables, config, config.seed)
    nx1, nu1 = tables.split
    mode1, mode2, obs1, obs2, region1, region2 = (c + 1 for c in np.unravel_index(index, tables.shape))
    u_arr = np.matmul(tables.gains[index], x_arr[:, :, None])[:, :, 0]
    return Trace(
        t=np.arange(len(index)) * config.dt,
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


def _squared_norms(squares: np.ndarray) -> np.ndarray:
    """|x|^2 of each column of a (n, rows) array of squared state entries,
    summed in index order, as a Python ``sum`` would, so a norm on a
    threshold lands where ``bisect_right`` puts it.  A square that
    overflows is inf."""
    sq = squares[0]
    for column in squares[1:]:
        sq = sq + column
    return sq


def _regions(thresholds: tuple[np.ndarray, np.ndarray], block: np.ndarray, nx1: int) -> list[np.ndarray]:
    """The 0-based regions of each row of a (rows, n) block of joint states,
    whose first ``nx1`` columns are system 1's: the count of thresholds at
    or below |x_k|^2, in the outermost region where a square overflows.  A
    partition without thresholds has region 0, and no norm is taken."""
    squares = (block * block).T
    return [
        t.searchsorted(_squared_norms(part), side="right") if len(t) else np.zeros(len(block), dtype=int)
        for t, part in zip(thresholds, (squares[:nx1], squares[nx1:]))
    ]


def _check_finite(block: np.ndarray, first_step: int, dt: float) -> None:
    """Raise NonFinite naming the time of the block's first non-finite row."""
    finite = np.isfinite(block)
    if not finite.all():
        step = first_step + int(np.argmin(finite.all(axis=1)))
        raise NonFinite(f"state diverged to non-finite values at t = {step * dt:g} (step {step})")


def _events(u: np.ndarray, w0: int, leave: tuple[float, float]) -> list[int]:
    """The steps of a window of uniforms ``u``, whose row 0 holds step
    ``w0``'s draws, on which a chain may jump: those whose jump draw lies
    below its chain's largest leave probability."""
    return (((u[:, 0] < leave[0]) | (u[:, 1] < leave[1])).nonzero()[0] + w0).tolist()


def _run(tables: _Tables, config: SimConfig, seed) -> tuple[np.ndarray, np.ndarray]:
    """One trajectory of the closed loops ``_prepare`` tabulated, drawn from
    ``seed`` (the config's own seed is not read): the joint state and the
    loop index of every step, from which modes, observations, regions and
    u = G x are read.  Both are arrays of one row per step, allocated once
    and owned by the caller; each row is written in place.

    Within a step the loop is x' = A x + c with A = A_cl and c = D w frozen,
    and RK4's four stages on it collapse exactly to
    x <- T4(hA) x + h S3(hA) c, with T4(M) = I + M + M^2/2 + M^3/6 + M^4/24
    and S3(M) = I + M/2 + M^2/6 + M^3/24 (expand k1..k4 and collect powers
    of hA).  So a step is one product with the loop's step matrix, written
    straight into the step's row, plus the disturbance envelope times the
    loop's push; only the rounding differs from evaluating the stages.

    Every step owns a fixed slot of the uniform stream.  Row 0 draws its two
    observations; every later step s draws, from position 4s - 2, chain 1's
    jump, chain 2's jump, chain 1's observation and chain 2's observation.
    An observation draw is used only where its chain refreshes.  The
    uniforms come in windows of steps (``_WINDOW``), held as rows of four,
    one row per step; row 0's two draws and the first window come from one
    call.  A chain jumps only when its draw lies below its table's leave
    probability, so a step whose jump draws both lie at or above the
    largest leave probability of their chain is no event: modes hold, and
    so do the observations under ``OnChange``.  Between events, numpy finds
    the loop indices of a run of steps from the window's draws and the
    emission tables of ``_prepare``, and the Python loop only takes the
    products.  An event step keeps the scalar rules.

    Regions are found a chunk of steps at a time.  A chunk runs with both
    regions held at their values at its start, then finds the regions of
    all its rows at once; the first row whose regions differ from the held
    ones cuts it.  Holding is exact up to and including that row: its state
    came from the previous row's loop, whose regions were the held ones,
    and its jumps were drawn against the regions the step started from,
    which are the held ones too.  Only its observation refresh read the
    held regions, so it is redrawn from the row's own observation draws
    under the new regions; an ``OnChange`` policy now refreshes both
    observations, since the regions changed.  The next chunk starts from
    the cut row and writes over the rows past it.  Row 0 is a cut row
    whose regions ``_prepare`` found, so its observations are drawn there
    as the refresh of step 0.  Without thresholds no region can change, so
    no chunk finds regions.

    A chunk that holds a non-finite state raises NonFinite; numpy's overflow
    and invalid-value warnings are silenced, since that error reports them.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    dt, n_steps, period = config.dt, tables.n_steps, tables.period
    n1, n2, _, _, r1, r2 = tables.shape
    strides = (n2 * r1 * r2, r1 * r2)  # of obs1 and obs2 in a loop index
    steps, pushes, envelope = tables.steps, tables.pushes, tables.envelope
    jumps1, jumps2 = tables.jumps
    emit1, emit2 = tables.emissions
    observed1, observed2 = tables.observed
    nx1 = tables.split[0]
    # Without thresholds no region changes, so no chunk is cut.
    first = _CHUNK_FIRST if tables.regioned else _CHUNK_MAX

    xs = np.empty((n_steps + 1, len(tables.x0)))
    ks = np.empty(n_steps + 1, dtype=np.intp)
    # The window of uniforms, row e - w0 holding step e's; row 0 has no
    # jump draws.
    fresh = min(n_steps, max(first, _WINDOW))
    u, w0 = np.concatenate([(np.nan, np.nan), rng.random(2 + 4 * fresh)]).reshape(-1, 4), 0
    events = _events(u, w0, tables.leave)
    xs[0] = tables.x0
    m1, m2 = tables.regions0
    th1, th2 = config.init_modes[0] - 1, config.init_modes[1] - 1
    ob1, ob2 = _pick(emit1[m1][th1], u[0, 2]), _pick(emit2[m2][th2], u[0, 3])
    ks[0] = k = ((((th1 * n2 + th2) * n1 + ob1) * n2 + ob2) * r1 + m1) * r2 + m2
    n, next_length = 0, first
    with np.errstate(over="ignore", invalid="ignore"):
        while n < n_steps:
            length = min(next_length, n_steps - n)
            s, end = n + 1, n + length + 1
            if end > w0 + len(u):
                # The next window keeps the rows from step s on and draws
                # the rest up to _WINDOW steps, or the chunk, or the horizon.
                fresh = min(n_steps + 1, s + max(length, _WINDOW)) - w0 - len(u)
                u = np.concatenate([u[s - w0 :], rng.random(4 * fresh).reshape(fresh, 4)])
                w0 = s
                events = _events(u, w0, tables.leave)
            # Regions held: each chain jumps by its partner's region, and
            # each observation is drawn in its own system's region.
            jump1, jump2, held1, held2 = jumps1[m2], jumps2[m1], emit1[m1], emit2[m2]
            cell = m1 * r2 + m2
            while s < end:
                # e: the chunk's end, or the next step whose draws may jump.
                i = bisect_left(events, s)
                e = min(end, events[i]) if i < len(events) else end
                # Observations hold until the run's first refresh step a.
                a = min(s + -s % period, e) if period else e
                ks[s:a] = k
                if a < e:
                    # From a on, each step holds the observations drawn at
                    # its last refresh, one every period steps.
                    (cums1, outcomes1), (cums2, outcomes2) = observed1[m1][th1], observed2[m2][th2]
                    draws = u[a - w0 : e - w0 : period]
                    refreshed = (
                        outcomes1[cums1.searchsorted(draws[:, 2], side="right")]
                        + outcomes2[cums2.searchsorted(draws[:, 3], side="right")]
                        + ((th1 * n2 + th2) * n1 * strides[0] + cell)
                    )
                    ks[a:e] = refreshed.repeat(period)[: e - a]
                # Each row's product is with the loop of the row before it,
                # up to the event row, or to the chunk's last row.
                stop = min(e + 1, end)
                x = xs[s - 1]
                if pushes is None:
                    for row, k in zip(xs[s:stop], ks[s - 1 : stop - 1].tolist()):
                        steps[k].dot(x, row)
                        x = row
                else:
                    for row, k, w in zip(xs[s:stop], ks[s - 1 : stop - 1].tolist(), envelope[s - 1 : stop - 1]):
                        steps[k].dot(x, row)
                        row += w * pushes[k]
                        x = row
                if e == end:
                    k = int(ks[end - 1])
                    break
                jump_draw1, jump_draw2, obs_draw1, obs_draw2 = u[e - w0].tolist()
                new1, new2 = _pick(jump1[th1], jump_draw1), _pick(jump2[th2], jump_draw2)
                ob1, ob2 = k // strides[0] % n1, k // strides[1] % n2
                if period:
                    refresh1 = refresh2 = e % period == 0
                else:
                    refresh1, refresh2 = new1 != th1, new2 != th2
                th1, th2 = new1, new2
                if refresh1:
                    ob1 = _pick(held1[th1], obs_draw1)
                if refresh2:
                    ob2 = _pick(held2[th2], obs_draw2)
                ks[e] = k = (((th1 * n2 + th2) * n1 + ob1) * n2 + ob2) * r1 * r2 + cell
                s = e + 1

            next_length = min(2 * length, _CHUNK_MAX)
            if tables.regioned:
                reg1, reg2 = _regions(tables.thresholds, xs[n + 1 : end], nx1)
                moved = (reg1 != m1) | (reg2 != m2)
                if moved.any():
                    cut = int(np.argmax(moved))
                    length, next_length = cut + 1, _CHUNK_FIRST
                    m1, m2 = int(reg1[cut]), int(reg2[cut])
                    c = n + length
                    k = int(ks[c])
                    th1, th2 = divmod(k // (n1 * strides[0]), n2)
                    ob1, ob2 = k // strides[0] % n1, k // strides[1] % n2
                    if not period or c % period == 0:
                        ob1 = _pick(emit1[m1][th1], u[c - w0, 2])
                        ob2 = _pick(emit2[m2][th2], u[c - w0, 3])
                    ks[c] = k = ((((th1 * n2 + th2) * n1 + ob1) * n2 + ob2) * r1 + m1) * r2 + m2
            _check_finite(xs[n + 1 : n + length + 1], n + 1, dt)
            n += length

    return xs, ks


def _trapezoid_weights(t: np.ndarray, horizon: float | None = None) -> np.ndarray:
    """Weights w with ``w @ sq[:len(w)]`` the trapezoidal integral of the
    samples ``sq`` at times ``t``, optionally truncated at ``horizon``; see
    ``energy_functional``.  Samples past the last weight are never read."""
    k = len(t) if horizon is None else int(np.count_nonzero(t <= horizon + 1e-12))
    w = np.zeros(k)
    half_steps = np.diff(t[:k]) / 2.0
    w[:-1] += half_steps
    w[1:] += half_steps
    if horizon is not None and 0 < k < len(t) and horizon > t[k - 1] + 1e-12:
        # The tail across step k ends on the linear interpolant of sq, at
        # fraction f of the step: 0.5 span ((2 - f) sq[k-1] + f sq[k]).
        span = horizon - t[k - 1]
        f = span / (t[k] - t[k - 1])
        w[k - 1] += 0.5 * span * (2.0 - f)
        w = np.append(w, 0.5 * span * f)
    return w


def _functionals(x: np.ndarray, nx1: int, t: np.ndarray, weights, what: str) -> list[float]:
    """The integrals of |x1|^2 + |x2|^2 sampled at ``t`` under each of
    ``weights``, from ``_trapezoid_weights``, for joint states ``x`` whose
    first ``nx1`` columns are x1.

    A finite state can still have a square or an integral beyond the float
    range (|x| above about 1e154); that raises NonFinite naming ``what`` and
    the largest state entry, without numpy's overflow warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = (x * x).T
        sq = _squared_norms(squares[:nx1]) + _squared_norms(squares[nx1:])
        values = [float(w @ sq[: len(w)]) for w in weights]
    if not all(map(math.isfinite, values)):
        peak = np.abs(x).max(axis=1, initial=0.0)
        row = int(np.argmax(peak))
        raise NonFinite(
            f"the energy functional of {what} exceeds the float range "
            f"(a state entry reaches {peak[row]:.3e} at t = {t[row]:g})"
        )
    return values


def energy_functional(trace: Trace, horizon: float | None = None) -> float:
    """Trapezoidal integral of |x(t)|^2, optionally truncated at ``horizon``.

    A horizon inside a step ends the integral on the linear interpolant of
    |x|^2 across that step, so half of an odd number of steps is met exactly.
    A value beyond the float range raises NonFinite; it is never returned
    as inf.  A horizon past the last sample (by more than the 1e-12 within
    which a horizon meets a sample), negative or not finite raises
    ValueError.
    """
    if horizon is not None and not 0.0 <= horizon <= trace.t[-1] + 1e-12:
        raise ValueError(f"energy functional horizon must lie in [0, {trace.t[-1]:g}], got {horizon}")
    x = np.hstack([trace.x1, trace.x2])
    return _functionals(x, trace.x1.shape[1], trace.t, (_trapezoid_weights(trace.t, horizon),), "the trace")[0]


def estimate_stability(
    model: InterdependentModel, bank: ControllerBank, config: SimConfig, n_runs: int, x1_0, x2_0
) -> MonteCarloReport:
    """Monte Carlo estimate of the truncated energy functional.

    Run r gets its own generator, seeded with the master seed's entropy
    words with r appended: (seed, r) for an integer seed, (*seed, r) for a
    tuple.  So the report is reproducible and order-independent.  numpy's
    ``SeedSequence`` ignores trailing zero words, so run 0 draws as the
    master seed itself: (3, 4, 0) draws as (3, 4).  The bank is checked and
    the closed loops tabulated once, before the first run.  Run r's values
    are those of ``simulate`` under that seed, read from the kernel's states
    without building a ``Trace``.  A run whose functional exceeds the float
    range raises NonFinite naming the run; no report then holds inf.  An
    ``n_runs`` that is not an integer of at least 1, a bool included,
    raises ValueError before any work.
    """
    if not _is_int_at_least(n_runs, 1):
        raise ValueError(f"n_runs must be an integer of at least 1, got {n_runs!r}")
    tables = _prepare(model, bank, config, x1_0, x2_0)
    nx1 = tables.split[0]
    t = np.arange(tables.n_steps + 1) * config.dt
    weights = (_trapezoid_weights(t), _trapezoid_weights(t, config.horizon / 2.0))
    functionals = []
    halves = []
    terminals = []
    for run in range(n_runs):
        x_arr, _ = _run(tables, config, (*_entropy(config.seed), run))
        full, at_half = _functionals(x_arr, nx1, t, weights, f"run {run}")
        x1, x2 = x_arr[-1, :nx1], x_arr[-1, nx1:]
        functionals.append(full)
        halves.append(at_half)
        terminals.append(float(np.sqrt(x1 @ x1 + x2 @ x2)))
    return MonteCarloReport(
        runs=n_runs,
        horizon=config.horizon,
        functional_per_run=tuple(functionals),
        half_functional_per_run=tuple(halves),
        terminal_norms=tuple(terminals),
    )
