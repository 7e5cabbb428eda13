"""Model types for two coupled jump linear systems and their integration.

A :class:`JumpLinearSystem` holds one (A, B, D) triple per mode.  The two
systems are coupled through state-dependent transition rates: the rate
matrix governing system 1's mode is selected by which squared-norm shell
the *partner* state x2 currently occupies, and vice versa.  Modes are
hidden; each system emits an observation through a row-stochastic matrix
selected by its *own* state's shell.

:func:`compose_integrated` assembles the equivalent single jump system
over the product mode set, with block-diagonal dynamics, Kronecker-sum
joint rate matrices and Kronecker-product joint observation matrices.
The dynamics alone come from :func:`joint_system`, which the simulator
runs as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidModel, NotStochastic

__all__ = [
    "ModeDynamics",
    "JumpLinearSystem",
    "RegionPartition",
    "RateFamily",
    "ObservationModel",
    "InterdependentModel",
    "ProductPartition",
    "IntegratedModel",
    "Violation",
    "validate",
    "region_index",
    "build_beta",
    "block_diag",
    "compose_integrated",
    "joint_system",
    "mode_pairs",
    "region_pairs",
]

_GEN_TOL = 1e-12
_STOCH_TOL = 1e-12
_PINV_RCOND = 1e-12


@dataclass(frozen=True)
class ModeDynamics:
    """System matrices (A, B, D) active while one mode is in force."""

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))


@dataclass(frozen=True)
class JumpLinearSystem:
    """Mode-indexed linear dynamics x' = A x + B u + D w."""

    state_dim: int
    input_dim: int
    disturbance_dim: int
    modes: tuple[ModeDynamics, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    def dynamics(self, mode: int) -> ModeDynamics:
        """Matrices for a 1-based mode index."""
        return self.modes[mode - 1]


@dataclass(frozen=True)
class RegionPartition:
    """Squared-norm shells t_{m-1} <= |x|^2 < t_m covering the state space.

    ``thresholds`` are the interior boundaries t_1 < ... < t_{M-1}; the
    outermost shell is unbounded.  Regions are 1-based.
    """

    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))

    @property
    def region_count(self) -> int:
        return len(self.thresholds) + 1


@dataclass(frozen=True)
class RateFamily:
    """One transition-rate (generator) matrix per partner-state region."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(np.asarray(m, dtype=float) for m in self.matrices))

    def matrix(self, region: int) -> np.ndarray:
        return self.matrices[region - 1]


@dataclass(frozen=True)
class ObservationModel:
    """Per-region emission matrices; row i gives P(observation | mode i)."""

    alphas: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(np.asarray(a, dtype=float) for a in self.alphas))

    def alpha(self, region: int) -> np.ndarray:
        return self.alphas[region - 1]


@dataclass(frozen=True)
class InterdependentModel:
    """Two jump systems whose mode transitions depend on each other's state."""

    sys1: JumpLinearSystem
    sys2: JumpLinearSystem
    part1: RegionPartition
    part2: RegionPartition
    rates1: RateFamily  # system 1's rates, one matrix per region of part2
    rates2: RateFamily  # system 2's rates, one matrix per region of part1
    obs1: ObservationModel  # system 1's emissions, one matrix per region of part1
    obs2: ObservationModel  # system 2's emissions, one matrix per region of part2


@dataclass(frozen=True)
class ProductPartition:
    """Pairs of shells from the two subsystem partitions, flattened 1-based."""

    part1: RegionPartition
    part2: RegionPartition

    @property
    def cell_count(self) -> int:
        return self.part1.region_count * self.part2.region_count

    def cell_pair(self, m: int) -> tuple[int, int]:
        return region_pairs(self)[m - 1]


@dataclass(frozen=True)
class IntegratedModel:
    """Product-mode jump system equivalent to an interdependent pair."""

    system: JumpLinearSystem
    partition: ProductPartition
    rates: RateFamily  # one joint generator per product cell
    obs: ObservationModel  # one joint emission matrix per product cell
    mode_counts: tuple[int, int]
    # True only when compose_integrated built the model and its read-only
    # rate and emission stacks passed the clean-stack tests of
    # check_generators and check_stochastics.
    _clean: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def mode_count(self) -> int:
        return self.mode_counts[0] * self.mode_counts[1]

    @property
    def cell_count(self) -> int:
        return self.partition.cell_count


@dataclass(frozen=True)
class Violation:
    """One failed invariant: which field, and what was out of tolerance."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def stack_matrices(matrices, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The matrices stacked along a new first axis, each missing (None) or
    misshapen one replaced by zeros, and the mask of those of ``shape``."""
    shaped = [m is not None and m.shape == shape for m in matrices]
    stack = np.array([m if ok else np.zeros(shape) for m, ok in zip(matrices, shaped)], dtype=float)
    return stack.reshape(len(matrices), *shape), np.array(shaped, dtype=bool)


@functools.cache
def _rate_signs(n: int) -> np.ndarray:
    """+1 off the diagonal and -1 on it: a generator's rates times these
    are never negative."""
    return 1.0 - 2.0 * np.eye(n)


def _check_system(sys: JumpLinearSystem, path: str, out: list[Violation]) -> None:
    """Shapes, then finiteness, of each mode's A, B and D, mode by mode;
    a system whose A, B and D stacks have finite sums is clean."""
    if sys.mode_count < 1:
        out.append(Violation(path, "system must declare at least one mode"))
    nx, nu, nw = sys.state_dim, sys.input_dim, sys.disturbance_dim
    names, shapes = ("A", "B", "D"), ((nx, nx), (nx, nu), (nx, nw))
    matrices = [m for mode in sys.modes for m in (mode.a, mode.b, mode.d)]
    misshapen = [m.shape != shapes[k % 3] for k, m in enumerate(matrices)]
    # A non-finite entry makes the sum of its stack non-finite.
    if not any(misshapen) and math.isfinite(sum(np.sum(matrices[k::3]) for k in range(3))):
        return
    non_finite = [not np.isfinite(m).all() for m in matrices]
    # Columns per mode: A, B, D misshapen, then A, B, D non-finite.
    faults = np.concatenate((np.reshape(misshapen, (-1, 3)), np.reshape(non_finite, (-1, 3))), axis=1)
    for f in np.flatnonzero(faults):
        mode, col = divmod(int(f), 6)
        m, where = matrices[3 * mode + col % 3], f"{path}.modes[{mode + 1}].{names[col % 3]}"
        if col < 3:
            out.append(Violation(where, f"expected shape {shapes[col]}, got {m.shape}"))
        else:
            out.append(Violation(where, "non-finite entries"))


def _check_partition(part: RegionPartition, path: str, out: list[Violation]) -> None:
    prev = 0.0
    for idx, t in enumerate(part.thresholds, start=1):
        if not math.isfinite(t):
            out.append(Violation(f"{path}.thresholds[{idx}]", "non-finite threshold"))
        elif t < 0.0:
            out.append(Violation(f"{path}.thresholds[{idx}]", f"threshold {t} is negative"))
        elif idx > 1 and t <= prev:
            out.append(
                Violation(f"{path}.thresholds[{idx}]", f"thresholds must be strictly increasing ({prev} -> {t})")
            )
        prev = t


def _generators_clean(g: np.ndarray) -> bool:
    """Every row of the stack ``g`` sums to 0 within the least tolerance and
    no rate has the wrong sign.  A non-finite entry makes its row sum
    non-finite."""
    return bool(
        np.abs(g.sum(axis=2)).max(initial=0.0) <= _GEN_TOL
        and (g * _rate_signs(g.shape[-1])).min(initial=0.0) >= 0.0
    )


def _stochastics_clean(a: np.ndarray) -> bool:
    """Every entry of the stack ``a`` lies in [0, 1] and every row sums to 1
    within tolerance.  A NaN fails each comparison."""
    return bool(
        a.min(initial=0.0) >= 0.0
        and a.max(initial=1.0) <= 1.0
        and np.abs(a.sum(axis=2) - 1.0).max(initial=0.0) <= _STOCH_TOL
    )


def check_generators(matrices, paths: list[str], out: list[Violation], n_modes: int) -> None:
    """``check_generator`` of each matrix at its path, in order, all of them
    checked as one stack."""
    g, shaped = stack_matrices(matrices, (n_modes, n_modes))
    if shaped.all() and _generators_clean(g):
        return
    row_sums = g.sum(axis=2)
    finite = np.isfinite(g).all(axis=(1, 2))
    g[~finite] = row_sums[~finite] = 0.0  # a zero matrix has no fault
    # Rounding in a row sum grows with the row's rates.
    tols = _GEN_TOL * np.abs(g).max(axis=2, initial=1.0)
    # Columns per row: its sum, each off-diagonal rate, its diagonal rate.
    faults = np.concatenate(
        (
            (np.abs(row_sums) > tols)[..., None],
            (g < 0.0) & ~np.eye(n_modes, dtype=bool),
            (np.diagonal(g, axis1=1, axis2=2) > 0.0)[..., None],
        ),
        axis=2,
    )
    for k in np.flatnonzero(~(shaped & finite) | faults.any(axis=(1, 2))):
        path = paths[k]
        if not shaped[k]:
            out.append(Violation(path, f"expected shape {(n_modes, n_modes)}, got {matrices[k].shape}"))
        elif not finite[k]:
            out.append(Violation(path, "non-finite entries"))
        for f in np.flatnonzero(faults[k]):
            i, col = divmod(int(f), n_modes + 2)
            if col == 0:
                out.append(
                    Violation(
                        f"{path}[row {i + 1}]",
                        f"row sums to {row_sums[k, i]:.6g}, must be 0 within {tols[k, i]:g}",
                    )
                )
            elif col <= n_modes:
                out.append(Violation(f"{path}[{i + 1},{col}]", f"negative off-diagonal rate {g[k, i, col - 1]:.6g}"))
            else:
                out.append(Violation(f"{path}[{i + 1},{i + 1}]", f"positive diagonal rate {g[k, i, i]:.6g}"))


def check_generator(g: np.ndarray, path: str, out: list[Violation], n_modes: int) -> None:
    """Append to ``out`` each way ``g`` fails to be an n_modes x n_modes
    generator: a wrong shape, or else non-finite entries, alone; else, row
    by row, a row sum off 0, each negative off-diagonal rate and a positive
    diagonal rate."""
    check_generators([g], [path], out, n_modes)


def check_stochastics(matrices, paths: list[str], out: list[Violation], n_modes: int) -> None:
    """``check_stochastic`` of each matrix at its path, in order, all of them
    checked as one stack."""
    a, shaped = stack_matrices(matrices, (n_modes, n_modes))
    if shaped.all() and _stochastics_clean(a):
        return
    row_sums = a.sum(axis=2)
    finite = np.isfinite(a).all(axis=(1, 2))
    read = shaped & finite
    a[~finite] = row_sums[~finite] = 0.0
    # Columns: any entry outside [0, 1], then each row's sum.
    faults = np.concatenate(
        (((a < 0.0) | (a > 1.0)).any(axis=(1, 2))[:, None], np.abs(row_sums - 1.0) > _STOCH_TOL), axis=1
    )
    faults &= read[:, None]
    for k in np.flatnonzero(~read | faults.any(axis=1)):
        path = paths[k]
        if not shaped[k]:
            out.append(Violation(path, f"expected shape {(n_modes, n_modes)}, got {matrices[k].shape}"))
        elif not finite[k]:
            out.append(Violation(path, "non-finite entries"))
        for f in np.flatnonzero(faults[k]):
            if f == 0:
                out.append(Violation(path, "entries must lie in [0, 1]"))
            else:
                out.append(
                    Violation(
                        f"{path}[row {f}]",
                        f"row sums to {row_sums[k, f - 1]:.12g}, must be 1 within {_STOCH_TOL:g}",
                    )
                )


def check_stochastic(a: np.ndarray, path: str, out: list[Violation], n_modes: int) -> None:
    """Append to ``out`` each way ``a`` fails to be a row-stochastic
    n_modes x n_modes matrix: a wrong shape, or else non-finite entries,
    alone; else entries outside [0, 1], then each row sum off 1."""
    check_stochastics([a], [path], out, n_modes)


def validate(model: InterdependentModel) -> list[Violation]:
    """Collect every type-invariant violation; empty means the model is valid.

    Each system's mode matrices, and each family of rate or emission
    matrices, is checked as one stack."""
    out: list[Violation] = []
    _check_system(model.sys1, "system1", out)
    _check_system(model.sys2, "system2", out)
    _check_partition(model.part1, "partition1", out)
    _check_partition(model.part2, "partition2", out)

    for check, matrices, part, sys, path, whose in (
        (check_generators, model.rates1.matrices, model.part2, model.sys1, "rates1", "partner"),
        (check_generators, model.rates2.matrices, model.part1, model.sys2, "rates2", "partner"),
        (check_stochastics, model.obs1.alphas, model.part1, model.sys1, "obs1", "own"),
        (check_stochastics, model.obs2.alphas, model.part2, model.sys2, "obs2", "own"),
    ):
        if len(matrices) != part.region_count:
            out.append(
                Violation(
                    path, f"expected {part.region_count} matrices (one per {whose} region), got {len(matrices)}"
                )
            )
        check(matrices, [f"{path}[{m}]" for m in range(1, len(matrices) + 1)], out, sys.mode_count)
    return out


def region_index(partition: RegionPartition, x) -> int:
    """1-based shell index of |x|^2; shells are half-open on the right."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"state must be a vector, got shape {v.shape}")
    sq = float(v @ v)
    for idx, t in enumerate(partition.thresholds, start=1):
        if sq < t:
            return idx
    return partition.region_count


def build_beta(alpha) -> np.ndarray:
    """Inverse of a row-stochastic matrix, or its pseudo-inverse when singular.

    Singular values at or below ``_PINV_RCOND`` times the largest drop, so
    the kept ones lie within a factor 1e12 of the largest.  A matrix that
    ``check_stochastic`` rejects raises NotStochastic.
    """
    a = np.asarray(alpha, dtype=float)
    violations: list[Violation] = []
    check_stochastic(a, "emission matrix", violations, a.shape[0] if a.ndim else 1)
    if violations:
        raise NotStochastic("; ".join(str(v) for v in violations))
    return np.linalg.pinv(a, rcond=_PINV_RCOND)


def compose_integrated(model: InterdependentModel) -> IntegratedModel:
    """Assemble the product-mode system equivalent to the coupled pair.

    Joint rates are Kronecker sums (the two chains jump independently given
    the region pair) and joint emissions are Kronecker products
    (conditionally independent observations), every cell's built at once.
    Both stacks are read-only and get the integrated model's clean-stack
    tests here, so that its check in ``certify_gains`` and
    ``build_centralized`` has nothing left to do on a clean model.
    """
    violations = validate(model)
    if violations:
        raise InvalidModel(violations)

    n1, n2 = model.sys1.mode_count, model.sys2.mode_count
    r1, r2 = model.part1.region_count, model.part2.region_count
    g1, g2 = np.array(model.rates1.matrices), np.array(model.rates2.matrices)  # by region2, by region1
    e1, e2 = np.eye(n1), np.eye(n2)
    # Axes (region1, region2, mode1, mode2, mode1', mode2'): each term is the
    # entrywise product np.kron forms, so every cell matches it bit for bit.
    rates = g1[None, :, :, None, :, None] * e2[:, None, :] + e1[:, None, :, None] * g2[:, None, None, :, None, :]
    alphas = (
        np.array(model.obs1.alphas)[:, None, :, None, :, None] * np.array(model.obs2.alphas)[None, :, None, :, None, :]
    )
    n = n1 * n2
    rates, alphas = rates.reshape(r1 * r2, n, n), alphas.reshape(r1 * r2, n, n)
    rates.flags.writeable = alphas.flags.writeable = False
    integrated = IntegratedModel(
        system=joint_system(model),
        partition=ProductPartition(model.part1, model.part2),
        rates=RateFamily(tuple(rates)),
        obs=ObservationModel(tuple(alphas)),
        mode_counts=(n1, n2),
    )
    object.__setattr__(integrated, "_clean", _generators_clean(rates) and _stochastics_clean(alphas))
    return integrated


def mode_pairs(model: InterdependentModel) -> list[tuple[int, int]]:
    """The (mode1, mode2) pair of each joint mode, in row-major order: joint
    mode i is entry i - 1, so (i1, i2) is joint mode (i1 - 1) * n2 + i2 with
    n2 the mode count of system 2."""
    return [
        (i1, i2)
        for i1 in range(1, model.sys1.mode_count + 1)
        for i2 in range(1, model.sys2.mode_count + 1)
    ]


def region_pairs(model: InterdependentModel | ProductPartition) -> list[tuple[int, int]]:
    """The (region1, region2) pair of each product cell, in row-major order:
    cell m is entry m - 1."""
    return [
        (m1, m2)
        for m1 in range(1, model.part1.region_count + 1)
        for m2 in range(1, model.part2.region_count + 1)
    ]


def joint_system(model: InterdependentModel) -> JumpLinearSystem:
    """The pair as one jump system over the joint modes of ``mode_pairs``,
    with block-diagonal (A, B, D) and the joint state x = [x1; x2].  The
    model is one that ``validate`` accepts."""
    s1, s2 = model.sys1, model.sys2
    a, b, d = (
        joint_blocks(*(np.array([getattr(dyn, name) for dyn in sys.modes]) for sys in (s1, s2)))
        for name in ("a", "b", "d")
    )
    return JumpLinearSystem(
        state_dim=s1.state_dim + s2.state_dim,
        input_dim=s1.input_dim + s2.input_dim,
        disturbance_dim=s1.disturbance_dim + s2.disturbance_dim,
        modes=tuple(map(ModeDynamics, a, b, d)),
    )


def joint_blocks(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """blkdiag(m1[..., i1, :, :], m2[..., i2, :, :]) of every joint mode
    (i1, i2), in ``mode_pairs`` order, placed into one zeroed stack of shape
    (..., n1 * n2, rows1 + rows2, cols1 + cols2)."""
    *lead, n1, r1, c1 = m1.shape
    n2, r2, c2 = m2.shape[-3:]
    out = np.zeros((*lead, n1, n2, r1 + r2, c1 + c2))
    out[..., :r1, :c1] = m1[..., :, None, :, :]
    out[..., r1:, c1:] = m2[..., None, :, :, :]
    return out.reshape(*lead, n1 * n2, r1 + r2, c1 + c2)


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix with ``a`` above-left and ``b`` below-right."""
    return joint_blocks(a[None], b[None])[0]
