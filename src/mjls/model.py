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

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidModel, NotStochastic
from .linalg import as_matrix, cond, kron_sum, pinv

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
]

_GEN_TOL = 1e-12
_STOCH_TOL = 1e-12
_BETA_TOL = 1e-8
_COND_LIMIT = 1e6  # below it, build_beta inverts exactly and validate checks beta alpha = I


@dataclass(frozen=True)
class ModeDynamics:
    """System matrices (A, B, D) active while one mode is in force."""

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_matrix(self.a))
        object.__setattr__(self, "b", as_matrix(self.b))
        object.__setattr__(self, "d", as_matrix(self.d))


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
        object.__setattr__(self, "matrices", tuple(as_matrix(m) for m in self.matrices))

    def matrix(self, region: int) -> np.ndarray:
        return self.matrices[region - 1]


@dataclass(frozen=True)
class ObservationModel:
    """Per-region emission matrices; row i gives P(observation | mode i)."""

    alphas: tuple[np.ndarray, ...]
    _beta_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(as_matrix(a) for a in self.alphas))

    def alpha(self, region: int) -> np.ndarray:
        return self.alphas[region - 1]

    def beta(self, region: int) -> np.ndarray:
        """Inverse (or pseudo-inverse) of the region's emission matrix."""
        if region not in self._beta_cache:
            self._beta_cache[region] = build_beta(self.alpha(region))
        return self._beta_cache[region]


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
        m2 = (m - 1) % self.part2.region_count + 1
        m1 = (m - 1) // self.part2.region_count + 1
        return m1, m2


@dataclass(frozen=True)
class IntegratedModel:
    """Product-mode jump system equivalent to an interdependent pair."""

    system: JumpLinearSystem
    partition: ProductPartition
    rates: RateFamily  # one joint generator per product cell
    obs: ObservationModel  # one joint emission matrix per product cell
    mode_counts: tuple[int, int]

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


def _check_system(sys: JumpLinearSystem, path: str, out: list[Violation]) -> None:
    if sys.mode_count < 1:
        out.append(Violation(path, "system must declare at least one mode"))
    for idx, mode in enumerate(sys.modes, start=1):
        nx, nu, nw = sys.state_dim, sys.input_dim, sys.disturbance_dim
        if mode.a.shape != (nx, nx):
            out.append(Violation(f"{path}.modes[{idx}].A", f"expected shape {(nx, nx)}, got {mode.a.shape}"))
        if mode.b.shape != (nx, nu):
            out.append(Violation(f"{path}.modes[{idx}].B", f"expected shape {(nx, nu)}, got {mode.b.shape}"))
        if mode.d.shape != (nx, nw):
            out.append(Violation(f"{path}.modes[{idx}].D", f"expected shape {(nx, nw)}, got {mode.d.shape}"))
        for name, m in (("A", mode.a), ("B", mode.b), ("D", mode.d)):
            if not np.all(np.isfinite(m)):
                out.append(Violation(f"{path}.modes[{idx}].{name}", "non-finite entries"))


def _check_partition(part: RegionPartition, path: str, out: list[Violation]) -> None:
    prev = 0.0
    for idx, t in enumerate(part.thresholds, start=1):
        if not np.isfinite(t):
            out.append(Violation(f"{path}.thresholds[{idx}]", "non-finite threshold"))
        elif t < 0.0:
            out.append(Violation(f"{path}.thresholds[{idx}]", f"threshold {t} is negative"))
        elif idx > 1 and t <= prev:
            out.append(
                Violation(f"{path}.thresholds[{idx}]", f"thresholds must be strictly increasing ({prev} -> {t})")
            )
        prev = t


def check_generator(g: np.ndarray, path: str, out: list[Violation], n_modes: int) -> None:
    if g.shape != (n_modes, n_modes):
        out.append(Violation(path, f"expected shape {(n_modes, n_modes)}, got {g.shape}"))
        return
    if not np.all(np.isfinite(g)):
        out.append(Violation(path, "non-finite entries"))
        return
    row_sums = g.sum(axis=1)
    # Rounding in a row sum grows with the row's rates.
    tols = _GEN_TOL * np.abs(g).max(axis=1, initial=1.0)
    for i in range(n_modes):
        if abs(row_sums[i]) > tols[i]:
            out.append(
                Violation(f"{path}[row {i + 1}]", f"row sums to {row_sums[i]:.6g}, must be 0 within {tols[i]:g}")
            )
        for j in range(n_modes):
            if i != j and g[i, j] < 0.0:
                out.append(
                    Violation(f"{path}[{i + 1},{j + 1}]", f"negative off-diagonal rate {g[i, j]:.6g}")
                )
        if g[i, i] > 0.0:
            out.append(Violation(f"{path}[{i + 1},{i + 1}]", f"positive diagonal rate {g[i, i]:.6g}"))


def check_stochastic(a: np.ndarray, path: str, out: list[Violation], n_modes: int) -> bool:
    """Append to ``out`` each way ``a`` fails to be a row-stochastic
    n_modes x n_modes matrix; True when it is one."""
    ok = True
    if a.shape != (n_modes, n_modes):
        out.append(Violation(path, f"expected shape {(n_modes, n_modes)}, got {a.shape}"))
        return False
    if not np.all(np.isfinite(a)):
        out.append(Violation(path, "non-finite entries"))
        return False
    if np.any(a < 0.0) or np.any(a > 1.0):
        out.append(Violation(path, "entries must lie in [0, 1]"))
        ok = False
    row_sums = a.sum(axis=1)
    for i in range(n_modes):
        if abs(row_sums[i] - 1.0) > _STOCH_TOL:
            out.append(
                Violation(f"{path}[row {i + 1}]", f"row sums to {row_sums[i]:.12g}, must be 1 within {_STOCH_TOL:g}")
            )
            ok = False
    return ok


def validate(model: InterdependentModel) -> list[Violation]:
    """Collect every type-invariant violation; empty means the model is valid."""
    out: list[Violation] = []
    _check_system(model.sys1, "system1", out)
    _check_system(model.sys2, "system2", out)
    _check_partition(model.part1, "partition1", out)
    _check_partition(model.part2, "partition2", out)

    for rates, part, sys, path in (
        (model.rates1, model.part2, model.sys1, "rates1"),
        (model.rates2, model.part1, model.sys2, "rates2"),
    ):
        if len(rates.matrices) != part.region_count:
            out.append(
                Violation(path, f"expected {part.region_count} matrices (one per partner region), got {len(rates.matrices)}")
            )
        for m_idx, g in enumerate(rates.matrices, start=1):
            check_generator(g, f"{path}[{m_idx}]", out, sys.mode_count)

    for obs, part, sys, path in (
        (model.obs1, model.part1, model.sys1, "obs1"),
        (model.obs2, model.part2, model.sys2, "obs2"),
    ):
        if len(obs.alphas) != part.region_count:
            out.append(
                Violation(path, f"expected {part.region_count} matrices (one per own region), got {len(obs.alphas)}")
            )
        for m_idx, a in enumerate(obs.alphas, start=1):
            if check_stochastic(a, f"{path}[{m_idx}]", out, sys.mode_count):
                beta = obs.beta(m_idx)
                resid = np.max(np.abs(a @ beta @ a - a))
                if resid > _BETA_TOL:
                    out.append(
                        Violation(f"{path}[{m_idx}].beta", f"alpha*beta*alpha deviates from alpha by {resid:.3e} (> {_BETA_TOL:g})")
                    )
                if cond(a) < _COND_LIMIT:
                    left = np.max(np.abs(beta @ a - np.eye(sys.mode_count)))
                    if left > _BETA_TOL:
                        out.append(
                            Violation(f"{path}[{m_idx}].beta", f"beta*alpha deviates from identity by {left:.3e} (> {_BETA_TOL:g})")
                        )
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

    The exact inverse is used whenever the condition number stays below
    ``_COND_LIMIT``; beyond that the SVD pseudo-inverse takes over so that
    nearly singular emissions degrade gracefully instead of blowing up gains.
    A matrix that ``check_stochastic`` rejects raises NotStochastic.
    """
    a = as_matrix(alpha)
    violations: list[Violation] = []
    if not check_stochastic(a, "emission matrix", violations, a.shape[0]):
        raise NotStochastic("; ".join(str(v) for v in violations))
    if cond(a) < _COND_LIMIT:
        # Well-conditioned: exact inverse via the pseudo-inverse with no
        # cutoff active (all singular values retained).
        return pinv(a, tol=0.0)
    return pinv(a)


def compose_integrated(model: InterdependentModel) -> IntegratedModel:
    """Assemble the product-mode system equivalent to the coupled pair.

    Joint rates are Kronecker sums (the two chains jump independently given
    the region pair) and joint emissions are Kronecker products
    (conditionally independent observations).
    """
    violations = validate(model)
    if violations:
        raise InvalidModel(violations)

    partition = ProductPartition(model.part1, model.part2)
    joint_rates = []
    joint_alphas = []
    for m1 in range(1, model.part1.region_count + 1):
        for m2 in range(1, model.part2.region_count + 1):
            joint_rates.append(kron_sum(model.rates1.matrix(m2), model.rates2.matrix(m1)))
            joint_alphas.append(np.kron(model.obs1.alpha(m1), model.obs2.alpha(m2)))

    return IntegratedModel(
        system=joint_system(model),
        partition=partition,
        rates=RateFamily(tuple(joint_rates)),
        obs=ObservationModel(tuple(joint_alphas)),
        mode_counts=(model.sys1.mode_count, model.sys2.mode_count),
    )


def mode_pairs(model: InterdependentModel) -> list[tuple[int, int]]:
    """The (mode1, mode2) pair of each joint mode, in row-major order: joint
    mode i is entry i - 1, so (i1, i2) is joint mode (i1 - 1) * n2 + i2 with
    n2 the mode count of system 2."""
    return [
        (i1, i2)
        for i1 in range(1, model.sys1.mode_count + 1)
        for i2 in range(1, model.sys2.mode_count + 1)
    ]


def joint_system(model: InterdependentModel) -> JumpLinearSystem:
    """The pair as one jump system over the joint modes of ``mode_pairs``,
    with block-diagonal (A, B, D) and the joint state x = [x1; x2]."""
    s1, s2 = model.sys1, model.sys2
    modes = []
    for i1, i2 in mode_pairs(model):
        d1, d2 = s1.dynamics(i1), s2.dynamics(i2)
        modes.append(ModeDynamics(a=block_diag(d1.a, d2.a), b=block_diag(d1.b, d2.b), d=block_diag(d1.d, d2.d)))
    return JumpLinearSystem(
        state_dim=s1.state_dim + s2.state_dim,
        input_dim=s1.input_dim + s2.input_dim,
        disturbance_dim=s1.disturbance_dim + s2.disturbance_dim,
        modes=tuple(modes),
    )


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix with ``a`` above-left and ``b`` below-right."""
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out
