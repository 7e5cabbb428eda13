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
turns every rate and emission row into a cumulative draw table.  ``_run``
holds the regions across a chunk of steps and finds them for the whole
chunk at once.  Jumps are rare, so between the steps on which a chain may
jump numpy finds the loop index of every step from the draw tables, and the
Python loop is one matrix-vector product per step.  ``simulate`` builds a
``Trace`` from its states and loop indices; ``estimate_stability`` reads
the functional off the states alone.

``estimate_stability`` runs independent seeded simulations and reports the
sample mean and standard error of the truncated energy functional
integral of |x(t)|^2, whose saturation across horizons is the practical
stand-in for the infinite-horizon stochastic stability criterion.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InvalidModel, NonFinite
from .model import InterdependentModel, joint_system, region_pairs, validate
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
    seed: int = 0
    obs_policy: OnChange | Periodic = OnChange()
    disturbance: Zero | DecayingSine = Zero()
    init_modes: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if isinstance(self.seed, int) and self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
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
    """What ``_run`` reads, built once by ``_prepare``.

    Closed loop k is the one in force at the 0-based (mode1, mode2, obs1,
    obs2, region1, region2) whose flat position in an array of ``shape`` is k.
    """

    shape: tuple[int, int, int, int, int, int]
    gains: np.ndarray  # (loops, inputs, states): G of each loop
    steps: list[np.ndarray]  # T4(dt A_cl) of each loop
    pushes: list[np.ndarray] | None  # dt S3(dt A_cl) D amplitude of each loop; None without disturbance
    jumps: tuple[list, list]  # system k's jump tables, [partner region][mode]
    leave: tuple[float, float]  # system k's largest leave probability over its jump tables
    emissions: tuple[list, list]  # system k's emission tables, [own region][mode]
    thresholds: tuple[np.ndarray, np.ndarray]
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
    joint = check_bank(model, bank).gains
    cells = region_pairs(model)
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
        leave=tuple(max((cums[-1] for per_region in j for cums, _ in per_region if cums), default=0.0) for j in jumps),
        emissions=emissions,
        thresholds=(np.array(model.part1.thresholds, dtype=float), np.array(model.part2.thresholds, dtype=float)),
        x0=np.concatenate([x1, x2]),
        split=(s1.state_dim, s1.input_dim),
    )


# Chunk lengths of the region check, in steps (see ``_run``).  A chunk
# starts at _CHUNK_FIRST steps, doubles after each chunk that kept its
# regions, up to _CHUNK_MAX, and starts over at _CHUNK_FIRST after a cut.
# One check costs about as much as eighteen steps, and a cut redoes the
# steps past it.  Region changes come in bursts, so short chunks after a cut
# and long ones between bursts keep both costs low.  On demo runs from the
# outer shells, regions change every 40 steps or so in the first second:
# there 45 % of steps are redone and a check falls every 20 steps (57 % and
# 24 with a first chunk of 16).  Over 10 s, 7 % are redone and a check
# falls every 120 steps.  At eighteen steps a check, first chunks of 8 and
# 16 cost within 2 % of each other on both.
_CHUNK_FIRST = 8
_CHUNK_MAX = 1024

# Steps of uniforms drawn, and of draw tables made, at once (see ``_run``).
# From 256 to 16 384 steps, 10 s demo runs cost the same within noise.
_WINDOW = 4096


def simulate(model: InterdependentModel, bank: ControllerBank, config: SimConfig, x1_0, x2_0) -> Trace:
    """Run one seeded closed-loop trajectory and record every step.

    Each iteration freezes the rates, gains and disturbance at the current
    step's values, advances the joint state one RK4 step, then samples the
    mode jumps (using the regions the step started from) and refreshes the
    observations per policy.  Bit-identical for identical inputs.  The
    model is validated, and the bank checked against it, before the first
    step.
    A state that overflows raises NonFinite naming the time of the first
    non-finite row.
    """
    tables = _prepare(model, bank, config, x1_0, x2_0)
    x_arr, ks = _run(tables, config)
    index = np.array(ks)
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


def _regions(tables: _Tables, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based regions of each row of a (rows, n) block of joint states:
    the count of thresholds at or below |x_k|^2, so 0 for a partition without
    thresholds.  The squares are summed in index order, as a Python ``sum``
    would, so a norm on a threshold lands where ``bisect_right`` puts it.  A
    square that overflows is inf, in the outermost region."""
    squares = (block * block).T
    nx1 = tables.split[0]
    regions = []
    for t, part in zip(tables.thresholds, (squares[:nx1], squares[nx1:])):
        if len(t) == 0:
            regions.append(np.zeros(len(block), dtype=int))
            continue
        sq = part[0]
        for column in part[1:]:
            sq = sq + column
        regions.append(t.searchsorted(sq, side="right"))
    return regions[0], regions[1]


def _check_finite(block: np.ndarray, first_step: int, dt: float) -> None:
    """Raise NonFinite naming the time of the block's first non-finite row."""
    finite = np.isfinite(block)
    if not finite.all():
        step = first_step + int(np.argmin(finite.all(axis=1)))
        raise NonFinite(f"state diverged to non-finite values at t = {step * dt:g} (step {step})")


def _run(tables: _Tables, config: SimConfig) -> tuple[np.ndarray, list[int]]:
    """One trajectory of the closed loops ``_prepare`` tabulated: the joint
    state and the loop index of every step, from which modes, observations,
    regions and u = G x are read.

    Within a step the loop is x' = A x + c with A = A_cl and c = D w frozen,
    and RK4's four stages on it collapse exactly to
    x <- T4(hA) x + h S3(hA) c, with T4(M) = I + M + M^2/2 + M^3/6 + M^4/24
    and S3(M) = I + M/2 + M^2/6 + M^3/24 (expand k1..k4 and collect powers
    of hA).  So a step is one product with the loop's step matrix, plus the
    disturbance envelope times the loop's push; only the rounding differs
    from evaluating the stages.

    The uniforms form one stream, read in order: two jump draws per step,
    then one per observation refreshed.  A chain jumps only when its draw
    lies below its table's leave probability, so a step whose draws both
    lie at or above the largest leave probability of their chain is no
    event: modes hold, and so do the observations under ``OnChange``, and
    under ``Periodic`` the draws sit at fixed positions in the stream.
    Between events, numpy finds the loop indices of a run of steps from
    tables made once per window of the stream (``_WINDOW``), and the Python
    loop only takes the products.  An event step keeps the scalar rules.

    Regions are found a chunk of steps at a time.  A chunk runs with both
    regions held at their values at its start, then finds the regions of
    all its rows at once; the first row whose regions differ from the held
    ones cuts it.  Holding is exact up to and including that row: its state
    came from the previous row's loop, whose regions were the held ones,
    and its jumps were drawn against the regions the step started from,
    which are the held ones too.  Only its observation refresh read the
    held regions, so it is redrawn from the same uniforms under the new
    regions; an ``OnChange`` policy now refreshes both observations, since
    the regions changed.  The rows past the cut are dropped, and the next
    chunk starts from the cut row, so the uniforms are consumed exactly as
    a per-step region check would consume them.  Row 0 is the cut row of a
    first chunk of one row, with no regions held, so its observations are
    drawn there as the refresh of step 0.

    A chunk that holds a non-finite state raises NonFinite; numpy's overflow
    and invalid-value warnings are silenced, since that error reports them.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    dt = config.dt
    n_steps = _steps(config.horizon, dt)
    n1, n2, _, _, r1, r2 = tables.shape
    strides = (n2 * r1 * r2, r1 * r2)  # of obs1 and obs2 in a loop index
    steps, pushes = tables.steps, tables.pushes
    jumps1, jumps2 = tables.jumps
    emit1, emit2 = tables.emissions
    leave1, leave2 = tables.leave
    if pushes is not None:
        dist = config.disturbance
        t = np.arange(n_steps) * dt
        envelope = (np.exp(-dist.decay * t) * np.sin(dist.frequency * t)).tolist()
    period = _steps(config.obs_policy.period, dt) if isinstance(config.obs_policy, Periodic) else 0

    def pos(s):
        """Stream position of the first draw of step(s) s >= 1, counting
        two draws per step plus two per refresh under ``Periodic``; the
        offset ``off`` adds the refreshes ``OnChange`` draws at events."""
        return 2 * s + 2 * ((s - 1) // period) if period else 2 * s

    def observed(system, th, m):
        """The observation in force at each step of the window, times its
        stride, as drawn at the step's last refresh in mode ``th`` and
        region ``m``; steps before the window's first refresh hold junk."""
        key = (system, th, m)
        if key not in cache:
            cums, outcomes = tables.emissions[system][m][th]
            picks = np.searchsorted(cums, seen[system], side="right")
            cache[key] = strides[system] * np.array(outcomes)[picks]
        return cache[key]

    th1, th2 = config.init_modes[0] - 1, config.init_modes[1] - 1
    k = (th1 * n2 + th2) * n1 * strides[0]
    rows, chunk_ks = [tables.x0], [k]
    # (first step, offset) of each draw offset in force in the chunk, the
    # offset being the stream position less ``pos``; the stream opens with
    # row 0's two refresh draws.
    offs = [(0, -2 - pos(0))]
    u, base = rng.random(2), 0  # the window of uniforms, and its first's stream position
    m1 = m2 = -1
    blocks, ks = [], []
    n, length = -1, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            block = np.array(rows)
            reg1, reg2 = _regions(tables, block)
            moved = (reg1 != m1) | (reg2 != m2)
            if moved.any():
                cut = int(np.argmax(moved))
                length = cut + 1
                block, x, k = block[:length], rows[cut], chunk_ks[cut]
                m1, m2 = int(reg1[cut]), int(reg2[cut])
                c = n + length
                th1, th2 = divmod(k // (n1 * strides[0]), n2)
                ob1, ob2 = k // strides[0] % n1, k // strides[1] % n2
                # The cut row's draws rewind to the end of its jump draws; a
                # refresh there is redrawn under the new regions.
                q = next(o for first, o in reversed(offs) if first <= c) + pos(c) + 2 - base
                if not period or c % period == 0:
                    ob1 = _pick(emit1[m1][th1], u[q])
                    ob2 = _pick(emit2[m2][th2], u[q + 1])
                    q += 2
                off = q + base - pos(c + 1)
                k = ((((th1 * n2 + th2) * n1 + ob1) * n2 + ob2) * r1 + m1) * r2 + m2
                chunk_ks[cut] = k
                del chunk_ks[length:]
                # Without thresholds, row 0 makes the only cut.
                next_length = _CHUNK_FIRST if any(map(len, tables.thresholds)) else _CHUNK_MAX
            else:
                next_length = min(2 * length, _CHUNK_MAX)
            _check_finite(block, n + 1, dt)
            blocks.append(block)
            ks.extend(chunk_ks)
            n += length
            if n == n_steps:
                break
            length = min(next_length, n_steps - n)
            s, end = n + 1, n + length + 1
            if off + pos(s) + 4 * length > base + len(u):  # at most four draws per step
                keep = off + pos(s) - base
                u = np.concatenate([u[keep:], rng.random(4 * max(length, min(_WINDOW, n_steps - n)))])
                base += keep
                if period:
                    # The steps whose draws the window holds, their jump
                    # draws, and the draws of their last refresh.
                    window = np.arange(s, min(n_steps, s + len(u) // 2) + 1)
                    at = pos(window) - base
                    held = np.searchsorted(at, len(u) - 4, side="right")
                    window, at = window[:held], at[:held]
                    events = window[(u[at] < leave1) | (u[at + 1] < leave2)].tolist()
                    last = np.maximum(pos(window // period * period) + 2 - base, 0)
                    seen, cache, w0 = (u[last], u[last + 1]), {}, s
                else:
                    # Pair j of parity b is the draws at b + 2j and b + 2j + 1.
                    pairs = [
                        np.flatnonzero((u[b : len(u) - 1 : 2] < leave1) | (u[b + 1 :: 2] < leave2)).tolist()
                        for b in (0, 1)
                    ]
            # Regions held: each chain jumps by its partner's region, and
            # each observation is drawn in its own system's region.
            jump1, jump2, held1, held2 = jumps1[m2], jumps2[m1], emit1[m1], emit2[m2]
            cell = m1 * r2 + m2
            rows, chunk_ks, offs = [], [], [(s, off)]
            while s < end:
                # e: the chunk's end, or the next step whose draws may jump.
                if period:
                    key, found = s, events
                else:
                    key, found = (off + pos(s) - base) // 2, pairs[(off - base) % 2]
                i = bisect_left(found, key)
                e = min(end, s + found[i] - key) if i < len(found) else end
                if period:
                    # Observations hold until the run's first refresh step a.
                    a = min(s + -s % period, e)
                    seg = [k] * (a - s) + (
                        observed(0, th1, m1)[a - w0 : e - w0]
                        + observed(1, th2, m2)[a - w0 : e - w0]
                        + (th1 * n2 + th2) * n1 * strides[0]
                        + cell
                    ).tolist()
                else:
                    seg = [k] * (e - s)
                # Each row's product is with the loop of the row before it.
                loops = [k, *seg] if e < end else [k, *seg[:-1]]
                for step, k in enumerate(loops, s):
                    x = steps[k].dot(x)
                    if pushes is not None:
                        x += envelope[step - 1] * pushes[k]
                    rows.append(x)
                chunk_ks += seg
                if e == end:
                    k = seg[-1]
                    break
                q = off + pos(e) - base
                new1, new2 = _pick(jump1[th1], u[q]), _pick(jump2[th2], u[q + 1])
                q += 2
                ob1, ob2 = k // strides[0] % n1, k // strides[1] % n2
                if period:
                    refresh1 = refresh2 = e % period == 0
                else:
                    refresh1, refresh2 = new1 != th1, new2 != th2
                th1, th2 = new1, new2
                if refresh1:
                    ob1 = _pick(held1[th1], u[q])
                    q += 1
                if refresh2:
                    ob2 = _pick(held2[th2], u[q])
                    q += 1
                k = (((th1 * n2 + th2) * n1 + ob1) * n2 + ob2) * r1 * r2 + cell
                chunk_ks.append(k)
                off = q + base - pos(e + 1)
                offs.append((e + 1, off))
                s = e + 1

    return np.concatenate(blocks), ks


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


def _functionals(x1: np.ndarray, x2: np.ndarray, t: np.ndarray, weights, what: str) -> list[float]:
    """The integrals of |x1|^2 + |x2|^2 sampled at ``t`` under each of
    ``weights``, from ``_trapezoid_weights``.

    A finite state can still have a square or an integral beyond the float
    range (|x| above about 1e154); that raises NonFinite naming ``what`` and
    the largest state entry, without numpy's overflow warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.sum(x1 * x1, axis=1) + np.sum(x2 * x2, axis=1)
        values = [float(w @ sq[: len(w)]) for w in weights]
    if not all(map(math.isfinite, values)):
        peak = np.maximum(np.abs(x1).max(axis=1, initial=0.0), np.abs(x2).max(axis=1, initial=0.0))
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
    return _functionals(trace.x1, trace.x2, trace.t, (_trapezoid_weights(trace.t, horizon),), "the trace")[0]


def estimate_stability(
    model: InterdependentModel, bank: ControllerBank, config: SimConfig, n_runs: int, x1_0, x2_0
) -> MonteCarloReport:
    """Monte Carlo estimate of the truncated energy functional.

    Each run gets its own generator seeded from (config.seed, run index),
    so the report is reproducible and order-independent.  The bank is
    checked and the closed loops tabulated once, before the first run.
    Run r's values are those of ``simulate`` under seed (config.seed, r),
    read from the kernel's states without building a ``Trace``.  A run
    whose functional exceeds the float range raises NonFinite naming the
    run; no report then holds inf.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    tables = _prepare(model, bank, config, x1_0, x2_0)
    nx1 = tables.split[0]
    t = np.arange(_steps(config.horizon, config.dt) + 1) * config.dt
    weights = (_trapezoid_weights(t), _trapezoid_weights(t, config.horizon / 2.0))
    functionals = []
    halves = []
    terminals = []
    for run in range(n_runs):
        # Composite entropy (master seed, run index) gives independent,
        # reproducible streams; SeedSequence accepts the tuple directly.
        x_arr, _ = _run(tables, replace(config, seed=(config.seed, run)))
        x1, x2 = x_arr[:, :nx1], x_arr[:, nx1:]
        full, at_half = _functionals(x1, x2, t, weights, f"run {run}")
        functionals.append(full)
        halves.append(at_half)
        terminals.append(float(np.sqrt(x1[-1] @ x1[-1] + x2[-1] @ x2[-1])))
    return MonteCarloReport(
        runs=n_runs,
        horizon=config.horizon,
        functional_per_run=tuple(functionals),
        half_functional_per_run=tuple(halves),
        terminal_norms=tuple(terminals),
    )
