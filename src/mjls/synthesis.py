"""Gain synthesis, recovery, and Lyapunov certification for jump systems.

Every scheme reduces to one synthesis target: a jump system plus a grid of
cells, each cell fixing the rate matrix and the emission matrix in force
there.  One problem builder, one observation-averaged closed loop, one
certificate assembler and one gain recovery work on any target:

* ``build_centralized``: one target, the integrated product-mode system
  over its product cells; gains are recovered per joint observation by
  unmixing with the emission matrix's (pseudo-)inverse.
* ``build_fullinfo``: the same problem; the target's emissions are the
  identity, since the controller reads the true mode.
* ``build_distributed``: one target per subsystem, over the (region1,
  region2) grid: system 1 under ``rates1[region2]`` and ``obs1[region1]``,
  system 2 under ``rates2[region1]`` and ``obs2[region2]``.

Certification is separate from synthesis: ``build_psi`` evaluates the
closed-loop generator quadratic form for fixed gains and Lyapunov
matrices, ``certify_gains`` searches for Lyapunov matrices proving a
fixed bank stable, and ``check_corollary`` verifies that a distributed
bank stabilizes the integrated system via a block-diagonal candidate.
``check_bank`` rejects a bank that does not fit a model and returns its
joint gains, the ones both the certifier and the simulator run.
The forms are the coupled-Lyapunov forms of Costa, Fragoso and Todorov,
*Continuous-Time Markov Jump Linear Systems* (2013).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidModel,
    MissingGain,
    NonFinite,
    NonSymmetric,
    NotFeasible,
    SingularX,
)
from .lmi import (
    AffineMatrixMap,
    LmiProblem,
    LmiSolution,
    MapBuilder,
    SolveStatus,
    VariableLayout,
    solve_feasibility,
)
from .model import (
    IntegratedModel,
    InterdependentModel,
    JumpLinearSystem,
    ObservationModel,
    Violation,
    block_diag,
    check_generator,
    check_stochastic,
    compose_integrated,
    mode_pairs,
    validate,
)

__all__ = [
    "Scheme",
    "ControllerBank",
    "Certificate",
    "build_psi",
    "build_centralized",
    "build_fullinfo",
    "build_distributed",
    "recover_gains",
    "certify_gains",
    "check_corollary",
    "check_bank",
    "synthesize",
    "SynthesisOutcome",
    "PSI_MARGIN",
]

# Margin (on the Lyapunov quadratic form scale) below which a closed loop
# counts as certified.  Synthesis margins live on the X = P^{-1} scale and
# shrink quadratically with ||X|| when mapped back, hence the small value.
PSI_MARGIN = 1e-8

_SINGULAR_EIG = 1e-12
_CERT_SLACK = 1e-9
_SYM_TOL = 1e-12


class Scheme(str, enum.Enum):
    CENTRALIZED = "centralized"
    FULL_INFORMATION = "fullinfo"
    DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class Certificate:
    """Lyapunov matrices plus the closed-loop forms they certify.

    ``psi_max`` maps (mode, region-key) to the largest eigenvalue of the
    evaluated quadratic form; ``certified`` means every one of those
    eigenvalues sits below ``-delta`` (within solver slack).
    """

    p_matrices: tuple[np.ndarray, ...]
    psi_max: dict
    delta: float
    certified: bool
    s_values: tuple[float, ...]

    @property
    def worst(self) -> float:
        return max(self.psi_max.values())


@dataclass(frozen=True)
class ControllerBank:
    """Gain table keyed (system, observation, (region1, region2)).

    System id 0 carries gains for the integrated system (centralized and
    full-information schemes); ids 1 and 2 carry per-subsystem gains
    (distributed scheme).  ``certificates`` holds one Certificate per
    system id present.
    """

    scheme: Scheme
    gains: dict
    certificates: dict

    def gain(self, system: int, observation: int, cell: tuple[int, int]) -> np.ndarray:
        key = (system, observation, tuple(cell))
        if key not in self.gains:
            raise MissingGain(f"no gain for system {system}, observation {observation}, regions {cell}")
        return self.gains[key]

    @property
    def size(self) -> int:
        return len(self.gains)


def _with_identity_obs(model: IntegratedModel) -> IntegratedModel:
    """Copy of an integrated model whose emissions reveal the mode exactly."""
    eye = np.eye(model.mode_count)
    return IntegratedModel(
        system=model.system,
        partition=model.partition,
        rates=model.rates,
        obs=ObservationModel(tuple(eye.copy() for _ in model.obs.alphas)),
        mode_counts=model.mode_counts,
    )


def _validate_integrated(model: IntegratedModel) -> None:
    violations: list[Violation] = []
    n = model.mode_count
    for path, matrices in (("rates", model.rates.matrices), ("obs", model.obs.alphas)):
        if len(matrices) != model.cell_count:
            violations.append(
                Violation(path, f"expected {model.cell_count} matrices (one per product cell), got {len(matrices)}")
            )
    for m_idx, g in enumerate(model.rates.matrices, start=1):
        check_generator(g, f"rates[{m_idx}]", violations, n)
    for m_idx, a in enumerate(model.obs.alphas, start=1):
        check_stochastic(a, f"obs[{m_idx}]", violations, n)
    if len(model.system.modes) != n:
        violations.append(Violation("system", f"expected {n} joint modes, got {len(model.system.modes)}"))
    if violations:
        raise InvalidModel(violations)


@dataclass(frozen=True)
class _Cell:
    """One cell of a synthesis target's grid.

    ``key`` names the cell in certificates and layout keys: the product-cell
    index for the integrated system, the region pair for a subsystem.
    ``regions`` is the region pair the bank indexes gains by.  The rate
    matrix and the emission matrix ``obs.alpha(own_region)`` are in force
    throughout the cell.
    """

    key: int | tuple[int, int]
    label: str
    regions: tuple[int, int]
    rates: np.ndarray
    obs: ObservationModel
    own_region: int

    @property
    def alpha(self) -> np.ndarray:
        return self.obs.alpha(self.own_region)

    @property
    def beta(self) -> np.ndarray:
        return self.obs.beta(self.own_region)

    def y_key(self, i: int) -> tuple:
        return ("Y", i, *self.key) if isinstance(self.key, tuple) else ("Y", i, self.key)


@dataclass(frozen=True)
class _Target:
    """A jump system plus the cell grid it is synthesized and certified over.

    ``system_id`` is the bank's system key: 0 for the integrated system,
    1 or 2 for a subsystem.
    """

    system_id: int
    system: JumpLinearSystem
    cells: tuple[_Cell, ...]

    @property
    def modes(self) -> range:
        return range(1, self.system.mode_count + 1)

    @property
    def disturbed_modes(self) -> list[int]:
        return [i for i in self.modes if np.any(self.system.dynamics(i).d)]


def _integrated_cell(model: IntegratedModel, m: int) -> _Cell:
    return _Cell(m, f"cell {m}", model.partition.cell_pair(m), model.rates.matrix(m), model.obs, m)


def _integrated_target(model: IntegratedModel) -> _Target:
    cells = tuple(_integrated_cell(model, m) for m in range(1, model.cell_count + 1))
    return _Target(0, model.system, cells)


def _subsystem_target(model: InterdependentModel, k: int) -> _Target:
    """Subsystem k over the (region1, region2) grid: its rates follow the
    partner's region and its emissions its own region."""
    if k == 1:
        sys, rates, obs = model.sys1, model.rates1, model.obs1
    else:
        sys, rates, obs = model.sys2, model.rates2, model.obs2
    cells = []
    for m1 in range(1, model.part1.region_count + 1):
        for m2 in range(1, model.part2.region_count + 1):
            own, partner = (m1, m2) if k == 1 else (m2, m1)
            cells.append(_Cell((m1, m2), f"regions ({m1},{m2})", (m1, m2), rates.matrix(partner), obs, own))
    return _Target(k, sys, tuple(cells))


def _cell_gains(bank: ControllerBank, target: _Target, cell: _Cell) -> dict[int, np.ndarray]:
    return {i_hat: bank.gain(target.system_id, i_hat, cell.regions) for i_hat in target.modes}


def _closed_loop(
    sys: JumpLinearSystem, i: int, alpha: np.ndarray, gains: Mapping[int, np.ndarray]
) -> np.ndarray:
    """Observation-averaged closed loop sum_ihat alpha[i, ihat] (A_i + B_i G_ihat)."""
    nx, nu = sys.state_dim, sys.input_dim
    dyn = sys.dynamics(i)
    a_bar = np.zeros((nx, nx))
    for i_hat in range(1, sys.mode_count + 1):
        if i_hat not in gains:
            raise MissingGain(f"no gain for observation {i_hat}")
        g = np.asarray(gains[i_hat], dtype=float)
        if g.shape != (nu, nx):
            raise DimensionMismatch(f"gain for observation {i_hat} must be {(nu, nx)}, got {g.shape}")
        a_bar += alpha[i - 1, i_hat - 1] * (dyn.a + dyn.b @ g)
    return a_bar


def _form(
    sys: JumpLinearSystem,
    cell: _Cell,
    gains: Mapping[int, np.ndarray],
    p_matrices: Sequence[np.ndarray],
    i: int,
    s: float,
) -> np.ndarray:
    """P_i Abar + Abar' P_i + sum_j rate_ij P_j + s P_i D D' P_i for mode i
    in one cell, exactly symmetric."""
    nx = sys.state_dim
    n_modes = sys.mode_count
    if len(p_matrices) != n_modes:
        raise DimensionMismatch(f"expected {n_modes} Lyapunov matrices, got {len(p_matrices)}")
    p_i = np.asarray(p_matrices[i - 1], dtype=float)
    if p_i.shape != (nx, nx):
        raise DimensionMismatch(f"P_{i} must be {nx}x{nx}, got {p_i.shape}")
    a_bar = _closed_loop(sys, i, cell.alpha, gains)
    psi = p_i @ a_bar + a_bar.T @ p_i
    for j in range(1, n_modes + 1):
        psi += cell.rates[i - 1, j - 1] * np.asarray(p_matrices[j - 1], dtype=float)
    dyn = sys.dynamics(i)
    if np.any(dyn.d):
        if s <= 0.0:
            raise ValueError("disturbance scaling s must be positive when D is nonzero")
        pd = p_i @ dyn.d
        psi += s * (pd @ pd.T)
    return 0.5 * (psi + psi.T)


def build_psi(
    p_matrices: Sequence[np.ndarray],
    gains: Mapping[int, np.ndarray],
    model: IntegratedModel,
    i: int,
    m: int,
    s: float = 1.0,
) -> np.ndarray:
    """Closed-loop generator quadratic form for mode i in region cell m.

    Returns P_i Abar + Abar' P_i + sum_j rate_ij P_j + s P_i D D' P_i with
    Abar the observation-averaged closed loop; exactly symmetric output.
    """
    return _form(model.system, _integrated_cell(model, m), gains, p_matrices, i, s)


def _certificate(
    target: _Target,
    bank: ControllerBank,
    p_matrices: tuple[np.ndarray, ...],
    s_values: tuple[float, ...],
    delta: float,
) -> Certificate:
    """Evaluate every closed-loop form of a target's bank gains under P; a
    form that overflows has largest eigenvalue +inf, so it fails."""
    cell_gains = [_cell_gains(bank, target, cell) for cell in target.cells]
    keys = [(i, cell.key) for i in target.modes for cell in target.cells]
    with np.errstate(all="ignore"):
        forms = np.stack([
            _form(target.system, cell, gains, p_matrices, i, s_values[i - 1])
            for i in target.modes
            for cell, gains in zip(target.cells, cell_gains)
        ])
    finite = np.isfinite(forms).all(axis=(1, 2))
    tops = np.full(len(forms), np.inf)
    tops[finite] = np.linalg.eigh(forms[finite])[0][:, -1]
    psi_max = {key: float(top) for key, top in zip(keys, tops)}
    certified = all(v <= -delta + _CERT_SLACK for v in psi_max.values()) and all(
        np.linalg.eigh(p)[0][0] > 0.0 for p in p_matrices
    )
    return Certificate(
        p_matrices=p_matrices,
        psi_max=psi_max,
        delta=delta,
        certified=certified,
        s_values=s_values,
    )


def _jump_system_blocks(
    layout: VariableLayout,
    sys: JumpLinearSystem,
    rates: np.ndarray,
    i: int,
    y_key,
    s_key,
    decay: float = 0.0,
) -> AffineMatrixMap:
    """One synthesis block for mode i under one rate matrix.

    The leading nx x nx block carries A X_i + X_i A' + B Y + Y' B' +
    rate_ii X_i (+ s D D' when disturbances exist).  Each other mode j adds
    a row and column of blocks: sqrt(rate_ij) X_i beside the leading block
    and -X_j on the diagonal.  With every X_j > 0 the block is negative
    definite exactly when its Schur complement, the leading block plus
    sum_j rate_ij X_i X_j^{-1} X_i, is; under a zero rate_ij, -X_j is a
    piece of its own for the solver.  A positive ``decay`` shifts A by
    decay*I, which forces the certified closed loop to contract at least
    that fast.
    """
    nx = sys.state_dim
    dyn = sys.dynamics(i)
    a_shifted = dyn.a + decay * np.eye(nx) if decay else dyn.a
    b = MapBuilder(nx * sys.mode_count, layout)
    b.linear(("X", i), left=a_shifted, mirror=True)
    b.linear(y_key, left=dyn.b, mirror=True)
    diag_rate = float(rates[i - 1, i - 1])
    if diag_rate != 0.0:
        b.linear(("X", i), coeff=diag_rate)
    if s_key is not None:
        b.scalar(s_key, dyn.d @ dyn.d.T)
    others = (j for j in range(1, sys.mode_count + 1) if j != i)
    for n, j in enumerate(others, start=1):
        rate = float(rates[i - 1, j - 1])
        if rate > 0.0:
            b.linear(("X", i), coeff=math.sqrt(rate), at=(0, n * nx), mirror=True)
        b.linear(("X", j), coeff=-1.0, at=(n * nx, n * nx))
    return b.build()


def _close_problem(
    target: _Target, layout: VariableLayout, neg, neg_labels, delta: float, name: str, s_name: str
) -> LmiProblem:
    """Finish a problem over per-mode matrices ``name`` and per-disturbed-mode
    scalars ``s_name``: all must be positive, starting from I and 1."""
    nx = target.system.state_dim
    s_modes = target.disturbed_modes
    pos = []
    pos_labels = []
    for i in target.modes:
        pos.append(MapBuilder(nx, layout).linear((name, i)).build())
        pos_labels.append(f"{name}{i} > 0")
    for i in s_modes:
        pos.append(MapBuilder(1, layout).scalar((s_name, i), [[1.0]]).build())
        pos_labels.append(f"{s_name}{i} > 0")

    z0 = np.zeros(layout.size)
    for i in target.modes:
        layout.pack_into(z0, (name, i), np.eye(nx))
    for i in s_modes:
        layout.pack_into(z0, (s_name, i), 1.0)
    return LmiProblem(layout, neg, pos, delta, z0, neg_labels, pos_labels)


def _build_problem(target: _Target, delta: float, decay: float) -> LmiProblem:
    """Synthesis feasibility problem for one target.

    One Schur-complement block per (mode, cell), plus positivity of every X_i
    and of the disturbance scalings when disturbances exist.
    """
    sys = target.system
    nx, nu = sys.state_dim, sys.input_dim
    s_modes = target.disturbed_modes

    layout = VariableLayout()
    for i in target.modes:
        layout.add_sym(("X", i), nx)
    for i in target.modes:
        for cell in target.cells:
            layout.add_rect(cell.y_key(i), nu, nx)
    for i in s_modes:
        layout.add_scalar(("s", i))

    neg = []
    neg_labels = []
    for i in target.modes:
        for cell in target.cells:
            s_key = ("s", i) if i in s_modes else None
            neg.append(_jump_system_blocks(layout, sys, cell.rates, i, cell.y_key(i), s_key, decay))
            neg_labels.append(f"mode {i}, {cell.label}")

    return _close_problem(target, layout, neg, neg_labels, delta, "X", "s")


def build_centralized(
    model: IntegratedModel, delta: float = 1e-6, decay: float = 0.0
) -> LmiProblem:
    """Synthesis feasibility problem for the integrated system, one block
    per (joint mode, product cell)."""
    _validate_integrated(model)
    return _build_problem(_integrated_target(model), delta, decay)


def build_fullinfo(
    model: IntegratedModel, delta: float = 1e-6, decay: float = 0.0
) -> LmiProblem:
    """Full-information variant: identical blocks, since the constraints
    never reference the emission matrices; only gain recovery differs."""
    return build_centralized(model, delta, decay)


def build_distributed(
    model: InterdependentModel, delta: float = 1e-6, decay: float = 0.0
) -> tuple[LmiProblem, LmiProblem]:
    """Independent per-subsystem synthesis problems.

    System 1 gets one block per (own mode, region1, region2) under the rate
    matrix selected by region2; system 2 symmetrically under region1's.
    Gains carry both region indices; the two problems share no variables.
    """
    violations = validate(model)
    if violations:
        raise InvalidModel(violations)
    prob1, prob2 = (_build_problem(_subsystem_target(model, k), delta, decay) for k in (1, 2))
    return prob1, prob2


def _invert_x(x: np.ndarray, label: str) -> np.ndarray:
    w, v = np.linalg.eigh(x)
    if w[0] < _SINGULAR_EIG:
        raise SingularX(f"{label} has minimum eigenvalue {w[0]:.3e} < {_SINGULAR_EIG:g}")
    return (v / w) @ v.T


def _require_feasible(solution: LmiSolution) -> None:
    if solution.status is not SolveStatus.FEASIBLE:
        raise NotFeasible(f"solver status is {solution.status.value}, cannot recover gains")


def _recover(
    target: _Target, solution: LmiSolution
) -> tuple[dict, tuple[np.ndarray, ...], tuple[float, ...]]:
    """Gains G_ihat = sum_i beta[ihat, i] Y_i X_i^{-1} per cell, plus the
    Lyapunov matrices P_i = X_i^{-1} and the disturbance scalings."""
    sys = target.system
    prefix = f"system {target.system_id} " if target.system_id else ""
    x_inv = [_invert_x(solution.variable(("X", i)), f"{prefix}X{i}") for i in target.modes]
    s_values = tuple(
        solution.variable(("s", i)) if ("s", i) in solution.layout.keys else 1.0
        for i in target.modes
    )
    gains = {}
    for cell in target.cells:
        beta = cell.beta
        for i_hat in target.modes:
            g = np.zeros((sys.input_dim, sys.state_dim))
            for i in target.modes:
                weight = beta[i_hat - 1, i - 1]
                if weight != 0.0:
                    g = g + weight * (solution.variable(cell.y_key(i)) @ x_inv[i - 1])
            gains[(target.system_id, i_hat, cell.regions)] = g
    return gains, tuple(x_inv), s_values


def recover_gains(solution, model, scheme: Scheme) -> ControllerBank:
    """Turn a feasible solver result into an observation-indexed gain bank.

    Centralized recovery unmixes through the joint emission inverse; full
    information uses the solver variables directly; distributed recovery
    (``solution`` is the pair of per-system results) unmixes through each
    subsystem's own-region emission inverse.  The returned bank carries the
    Lyapunov matrices P = X^{-1} and the largest eigenvalue of each freshly
    evaluated closed-loop form.
    """
    solutions = tuple(solution) if scheme is Scheme.DISTRIBUTED else (solution,)
    for sol in solutions:
        _require_feasible(sol)
    if scheme is Scheme.DISTRIBUTED:
        targets = (_subsystem_target(model, 1), _subsystem_target(model, 2))
    else:
        # A full-information controller reads the true mode, so its target
        # averages over identity emissions.
        full_info = scheme is Scheme.FULL_INFORMATION
        targets = (_integrated_target(_with_identity_obs(model) if full_info else model),)
    gains = {}
    lyapunov = []
    for target, sol in zip(targets, solutions):
        target_gains, p_matrices, s_values = _recover(target, sol)
        gains.update(target_gains)
        lyapunov.append((p_matrices, s_values))
    bank = ControllerBank(scheme=scheme, gains=gains, certificates={})
    certificates = {
        target.system_id: _certificate(target, bank, p_matrices, s_values, PSI_MARGIN)
        for target, (p_matrices, s_values) in zip(targets, lyapunov)
    }
    return ControllerBank(scheme=scheme, gains=gains, certificates=certificates)


def check_bank(model: InterdependentModel, bank: ControllerBank) -> ControllerBank:
    """Reject a bank unless it holds exactly the gains its scheme reads on
    this model, one finite gain of the right shape per (system, observation,
    regions), and return them as joint gains keyed (0, joint observation,
    regions).

    A distributed bank's joint gain for the observation pair
    ``mode_pairs(model)[i - 1]`` is blkdiag(G1, G2); a centralized or
    full-information bank holds joint gains already and is returned as is.

    Raises MissingGain for an absent entry, DimensionMismatch for a gain of
    the wrong shape or an entry the model has no use for, and NonFinite for
    a gain with NaN or infinite entries.
    """
    s1, s2 = model.sys1, model.sys2
    distributed = bank.scheme is Scheme.DISTRIBUTED
    read = set()

    def fetch(k: int, i_hat: int, cell: tuple[int, int], shape: tuple[int, int]) -> np.ndarray:
        g = bank.gain(k, i_hat, cell)
        if g.shape != shape:
            raise DimensionMismatch(
                f"gain for system {k}, observation {i_hat}, regions {cell} has shape {g.shape}, expected {shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NonFinite(f"gain for system {k}, observation {i_hat}, regions {cell} has non-finite entries")
        read.add((k, i_hat, cell))
        return g

    joint = {}
    pairs = mode_pairs(model)
    for cell in itertools.product(range(1, model.part1.region_count + 1), range(1, model.part2.region_count + 1)):
        for i_hat, (o1, o2) in enumerate(pairs, start=1):
            if distributed:
                g1 = fetch(1, o1, cell, (s1.input_dim, s1.state_dim))
                g2 = fetch(2, o2, cell, (s2.input_dim, s2.state_dim))
                joint[(0, i_hat, cell)] = block_diag(g1, g2)
            else:
                fetch(0, i_hat, cell, (s1.input_dim + s2.input_dim, s1.state_dim + s2.state_dim))
    extra = sorted(set(bank.gains) - read)
    if extra:
        k, i_hat, cell = extra[0]
        raise DimensionMismatch(
            f"gain for system {k}, observation {i_hat}, regions {cell} does not fit a "
            f"{bank.scheme.value} bank for this model"
        )
    return ControllerBank(scheme=Scheme.CENTRALIZED, gains=joint, certificates={}) if distributed else bank


def certify_gains(
    model: IntegratedModel,
    bank: ControllerBank,
    delta: float = PSI_MARGIN,
    max_iter: int = 20000,
) -> Certificate:
    """Search for Lyapunov matrices proving a fixed gain bank stable.

    With the gains fixed, the closed-loop forms are affine in the P_i (the
    disturbance term enters through a Schur companion block), so this is
    itself a feasibility problem.  Infeasibility is reported through
    ``certified=False``, never raised.  Full-information banks are checked
    against identity emissions, since that controller reads the true mode.
    """
    if bank.scheme is Scheme.FULL_INFORMATION:
        model = _with_identity_obs(model)
    _validate_integrated(model)
    target = _integrated_target(model)
    sys = target.system
    nx = sys.state_dim
    cell_gains = [_cell_gains(bank, target, cell) for cell in target.cells]
    s_modes = target.disturbed_modes

    layout = VariableLayout()
    for i in target.modes:
        layout.add_sym(("P", i), nx)
    for i in s_modes:
        layout.add_scalar(("r", i))  # r = 1/s, the disturbance Schur companion

    neg, neg_labels = [], []
    for i in target.modes:
        dyn = sys.dynamics(i)
        has_d = i in s_modes
        nw = dyn.d.shape[1] if has_d else 0
        dim = nx + nw
        for cell, gains in zip(target.cells, cell_gains):
            b = MapBuilder(dim, layout)
            b.linear(("P", i), right=_closed_loop(sys, i, cell.alpha, gains), mirror=True, at=(0, 0))
            for j in target.modes:
                rate = float(cell.rates[i - 1, j - 1])
                if rate != 0.0:
                    b.linear(("P", j), coeff=rate, at=(0, 0))
            if has_d:
                b.linear(("P", i), right=dyn.d, at=(0, nx), mirror=True)
                b.scalar(("r", i), -np.eye(nw), at=(nx, nx))
            neg.append(b.build())
            neg_labels.append(f"mode {i}, {cell.label}")

    problem = _close_problem(target, layout, neg, neg_labels, delta, "P", "r")
    solution = solve_feasibility(problem, max_iter)

    p_matrices = tuple(solution.layout.unpack(solution.z, ("P", i)) for i in target.modes)
    s_values = tuple(
        1.0 / solution.layout.unpack(solution.z, ("r", i)) if i in s_modes else 1.0
        for i in target.modes
    )
    # The direct evaluation of the closed-loop forms is authoritative for
    # the certified flag, whatever the solver claimed.
    return _certificate(target, bank, p_matrices, s_values, delta)


def _check_lyapunov(k: int, sys: JumpLinearSystem, p_matrices: Sequence[np.ndarray]) -> None:
    if len(p_matrices) != sys.mode_count:
        raise DimensionMismatch(f"certificate of system {k} has {len(p_matrices)} P matrices, expected {sys.mode_count}")
    shape = (sys.state_dim, sys.state_dim)
    for i, p in enumerate(p_matrices, start=1):
        where = f"certificate of system {k}, P of mode {i}"
        if p.shape != shape:
            raise DimensionMismatch(f"{where} has shape {p.shape}, expected {shape}")
        if not np.all(np.isfinite(p)):
            raise NonFinite(f"{where} has non-finite entries")
        deviation, tol = np.abs(p - p.T).max(), _SYM_TOL * max(1.0, np.abs(p).max())
        if deviation > tol:
            raise NonSymmetric(f"{where} is not symmetric within {tol:g} (deviation {deviation:.3e})")


def check_corollary(
    model: InterdependentModel,
    bank: ControllerBank,
    delta: float = PSI_MARGIN,
    max_iter: int = 20000,
) -> Certificate:
    """Verify that a distributed bank stabilizes the integrated system.

    ``check_bank`` rejects the bank unless it fits the model as a
    distributed bank.  Builds the block-diagonal Lyapunov candidate from
    the two subsystem certificates and evaluates every joint closed-loop
    form; falls back to a fresh ``certify_gains`` search when the candidate
    misses the margin or either certificate is absent.  A certificate that
    is not one finite nx x nx P per mode, symmetric within 1e-12 times
    max(1, max |P|), raises an error naming the system and the mode.
    """
    if not delta > 0.0:
        raise ValueError("margin delta must be positive")
    integ = compose_integrated(model)
    # Read as distributed whatever its scheme, so a joint bank is refused.
    joint_bank = check_bank(model, ControllerBank(scheme=Scheme.DISTRIBUTED, gains=bank.gains, certificates={}))

    cert1 = bank.certificates.get(1)
    cert2 = bank.certificates.get(2)
    if cert1 is not None and cert2 is not None:
        for k, sys, cert in ((1, model.sys1, cert1), (2, model.sys2, cert2)):
            _check_lyapunov(k, sys, cert.p_matrices)
        p_joint = []
        s_joint = []
        for i1, i2 in mode_pairs(model):
            p_joint.append(block_diag(cert1.p_matrices[i1 - 1], cert2.p_matrices[i2 - 1]))
            s_joint.append(min(cert1.s_values[i1 - 1], cert2.s_values[i2 - 1]))
        candidate = _certificate(
            _integrated_target(integ), joint_bank, tuple(p_joint), tuple(s_joint), delta
        )
        if candidate.certified:
            return candidate

    return certify_gains(integ, joint_bank, delta, max_iter)


@dataclass(frozen=True)
class SynthesisOutcome:
    """Bundle of everything a synthesis run produced."""

    bank: ControllerBank | None
    solutions: tuple[LmiSolution, ...]
    problems: tuple[LmiProblem, ...]

    @property
    def feasible(self) -> bool:
        return all(s.status is SolveStatus.FEASIBLE for s in self.solutions)

    @property
    def worst_status(self) -> SolveStatus:
        for status in (SolveStatus.ITERATION_LIMIT, SolveStatus.INFEASIBLE):
            if any(s.status is status for s in self.solutions):
                return status
        return SolveStatus.FEASIBLE


def synthesize(
    model: InterdependentModel,
    scheme: Scheme,
    delta: float = 1e-6,
    max_iter: int = 20000,
    decay: float = 0.0,
) -> SynthesisOutcome:
    """End-to-end synthesis: build, solve, and recover for any scheme.

    ``decay`` > 0 synthesizes against rate-shifted dynamics A + decay*I, a
    standard way to demand a guaranteed contraction rate; the recovered
    bank's certificate is always evaluated against the unshifted model.
    """
    if scheme is Scheme.DISTRIBUTED:
        problems = build_distributed(model, delta, decay)
    else:
        model = compose_integrated(model)
        builder = build_fullinfo if scheme is Scheme.FULL_INFORMATION else build_centralized
        problems = (builder(model, delta, decay),)
    solutions = tuple(solve_feasibility(problem, max_iter) for problem in problems)
    bank = None
    if all(sol.status is SolveStatus.FEASIBLE for sol in solutions):
        bank = recover_gains(solutions if scheme is Scheme.DISTRIBUTED else solutions[0], model, scheme)
    return SynthesisOutcome(bank, solutions, problems)
