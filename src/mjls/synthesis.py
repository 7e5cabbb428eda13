"""Gain synthesis, recovery, and Lyapunov certification for jump systems.

Every scheme reduces to one synthesis target: a jump system plus a grid of
cells, each cell fixing the rate matrix and the emission matrix in force
there.  One problem builder, one observation-averaged closed loop, one
certificate assembler and one gain recovery work on any target:

* ``build_centralized``: one target, the integrated product-mode system
  over its product cells; gains are recovered per joint observation by
  unmixing with the emission matrix's inverse.
* ``build_fullinfo``: the same problem; the target's emissions are the
  identity, since the controller reads the true mode.
* ``build_distributed``: one target per subsystem, over the (region1,
  region2) grid: system 1 under ``rates1[region2]`` and ``obs1[region1]``,
  system 2 under ``rates2[region1]`` and ``obs2[region2]``.

A bank carries its candidate certificate, one ``Lyapunov`` (P and s) per
system id, and never a verdict.  ``check_bank`` is the one place a bank
meets a model: it rejects a bank that does not fit and returns the joint
bank, whose gains and candidate (a distributed bank's two composed
block-diagonally) both the certifier and the simulator run.
``certify_gains`` checks that candidate, searches only when it is absent
or misses, and returns the only ``Certificate``, the verdict; every verb
reaches its verdict through it.  ``build_psi`` evaluates one closed-loop
generator quadratic form for fixed gains and Lyapunov matrices.
The forms are the coupled-Lyapunov forms of Costa, Fragoso and Todorov,
*Continuous-Time Markov Jump Linear Systems* (2013).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
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
    build_beta,
    check_generators,
    check_stochastics,
    compose_integrated,
    joint_blocks,
    mode_pairs,
    region_pairs,
    stack_matrices,
    validate,
)

__all__ = [
    "Scheme",
    "ControllerBank",
    "Lyapunov",
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
    "SYNTHESIS_MARGIN",
]

# Margin (on the Lyapunov quadratic form scale) below which a closed loop
# counts as certified.  Synthesis margins live on the X = P^{-1} scale and
# shrink quadratically with ||X|| when mapped back, hence the small value.
PSI_MARGIN = 1e-8

# Margin of every synthesis problem.  The problems are homogeneous in
# (X, Y, s), so it sets only the scale of X and of P = X^{-1}, never a
# verdict or a gain.
SYNTHESIS_MARGIN = 1e-6

_SINGULAR_EIG = 1e-12
_SYM_TOL = 1e-12
_COND_LIMIT = 1e6  # emission condition numbers that gain recovery accepts lie below it


class Scheme(str, enum.Enum):
    CENTRALIZED = "centralized"
    FULL_INFORMATION = "fullinfo"
    DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class Lyapunov:
    """A candidate certificate: one Lyapunov matrix P_i and one disturbance
    scaling s_i per mode.  Only a check turns it into a verdict."""

    p_matrices: tuple[np.ndarray, ...]
    s_values: tuple[float, ...]


@dataclass(frozen=True)
class Certificate:
    """The verdict of a check: Lyapunov matrices plus the closed-loop forms
    they certify.

    ``psi_max`` maps (mode, region-key) to the largest eigenvalue of the
    evaluated quadratic form; ``certified`` means every one of those
    eigenvalues is at most ``-PSI_MARGIN`` and every P is positive definite.
    """

    p_matrices: tuple[np.ndarray, ...]
    psi_max: dict
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
    (distributed scheme).  ``lyapunov`` holds the candidate certificate of
    each system id it has one for.
    """

    scheme: Scheme
    gains: Mapping
    lyapunov: dict[int, Lyapunov] = field(default_factory=dict)
    # Set by joint_bank on the joint bank it builds: its gains stacked
    # (cell, observation), read-only, and ``gains`` a read-only mapping
    # onto views of that stack.
    _stack: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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
    if model._clean:  # its counts hold by construction, its stacks passed
        return
    violations: list[Violation] = []
    n = model.mode_count
    for path, matrices in (("rates", model.rates.matrices), ("obs", model.obs.alphas)):
        if len(matrices) != model.cell_count:
            violations.append(
                Violation(path, f"expected {model.cell_count} matrices (one per product cell), got {len(matrices)}")
            )
    for check, path, matrices in (
        (check_generators, "rates", model.rates.matrices),
        (check_stochastics, "obs", model.obs.alphas),
    ):
        check(matrices, [f"{path}[{m}]" for m in range(1, len(matrices) + 1)], violations, n)
    if len(model.system.modes) != n:
        violations.append(Violation("system", f"expected {n} joint modes, got {len(model.system.modes)}"))
    if violations:
        raise InvalidModel(violations)


def _require_invertible_emissions(model: InterdependentModel, scheme: Scheme) -> None:
    """Refuse an emission matrix whose inverse gain recovery cannot use:
    unmixing reproduces the synthesized closed loop only where beta alpha
    = I, which holds below ``_COND_LIMIT``."""
    violations = [
        Violation(
            f"{path}[{r}]",
            f"condition number {cond:.3e} is not below {_COND_LIMIT:g}, "
            f"so {scheme.value} synthesis cannot recover gains through its inverse",
        )
        for path, obs in (("obs1", model.obs1), ("obs2", model.obs2))
        for r, cond in enumerate(map(np.linalg.cond, obs.alphas), start=1)
        if cond >= _COND_LIMIT
    ]
    if violations:
        raise InvalidModel(violations)


@dataclass(frozen=True)
class _Cell:
    """One cell of a synthesis target's grid.

    ``key`` names the cell in certificates and layout keys: the product-cell
    index for the integrated system, the region pair for a subsystem.
    ``regions`` is the region pair the bank indexes gains by.  The rate
    matrix and the emission matrix ``alpha`` are in force throughout the
    cell.
    """

    key: int | tuple[int, int]
    label: str
    regions: tuple[int, int]
    rates: np.ndarray
    alpha: np.ndarray

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


def _integrated_cells(model: IntegratedModel) -> list[_Cell]:
    """The product cells, in ``region_pairs`` order."""
    grid = zip(region_pairs(model.partition), model.rates.matrices, model.obs.alphas)
    return [_Cell(m, f"cell {m}", pair, rates, alpha) for m, (pair, rates, alpha) in enumerate(grid, start=1)]


def _integrated_target(model: IntegratedModel) -> _Target:
    return _Target(0, model.system, tuple(_integrated_cells(model)))


def _subsystem_target(model: InterdependentModel, k: int) -> _Target:
    """Subsystem k over the (region1, region2) grid: its rates follow the
    partner's region and its emissions its own region."""
    if k == 1:
        sys, rates, obs = model.sys1, model.rates1, model.obs1
    else:
        sys, rates, obs = model.sys2, model.rates2, model.obs2
    cells = []
    for m1, m2 in region_pairs(model):
        own, partner = (m1, m2) if k == 1 else (m2, m1)
        cells.append(_Cell((m1, m2), f"regions ({m1},{m2})", (m1, m2), rates.matrix(partner), obs.alpha(own)))
    return _Target(k, sys, tuple(cells))


def _cell_gains(bank: ControllerBank, target: _Target) -> np.ndarray:
    """The target's gains in ``bank``, stacked (cell, observation).  The
    first missing gain in that order is refused, then the first of the
    wrong shape.  A joint bank ``joint_bank`` built with these keys already
    holds the stack."""
    sys = target.system
    shape = (sys.input_dim, sys.state_dim)
    keys = [(target.system_id, i_hat, cell.regions) for cell in target.cells for i_hat in target.modes]
    if bank._stack is not None and bank._stack.shape[2:] == shape and list(bank.gains) == keys:
        return bank._stack
    found = [bank.gains.get(key) for key in keys]
    g, shaped = stack_matrices(found, shape)
    missing = [f for f, gain in enumerate(found) if gain is None]
    if missing:
        raise _gain_fault(keys[missing[0]], None, shape)
    misshapen = np.flatnonzero(~shaped)
    if len(misshapen):
        f = misshapen[0]
        raise DimensionMismatch(f"gain for observation {keys[f][1]} must be {shape}, got {found[f].shape}")
    return g.reshape(len(target.cells), sys.mode_count, *shape)


def _closed_loops(sys: JumpLinearSystem, cells: Sequence[_Cell], gains: np.ndarray) -> np.ndarray:
    """Observation-averaged closed loops sum_ihat alpha[i, ihat] (A_i + B_i
    G_ihat) of every mode i in every cell, stacked (mode, cell), for the
    gains of ``_cell_gains``."""
    nx, n = sys.state_dim, sys.mode_count
    a = np.array([dyn.a for dyn in sys.modes])[:, None, None]
    loops = a + np.array([dyn.b for dyn in sys.modes])[:, None, None] @ gains  # (mode, cell, observation)
    terms = np.array([cell.alpha for cell in cells]).transpose(1, 0, 2)[..., None, None] * loops
    a_bar = np.zeros((n, len(cells), nx, nx))
    for i_hat in range(n):
        a_bar += terms[:, :, i_hat]
    return a_bar


def _forms(
    sys: JumpLinearSystem,
    cells: Sequence[_Cell],
    loops: np.ndarray,
    p_matrices: Sequence[np.ndarray],
    modes: Sequence[int],
    s_values: Sequence[float],
) -> np.ndarray:
    """P_i Abar + Abar' P_i + sum_j rate_ij P_j + s P_i D D' P_i for each
    mode i of ``modes`` (with s the matching entry of ``s_values``) in every
    cell, stacked mode-major and exactly symmetric; ``loops`` are the closed
    loops of ``_closed_loops`` and ``p_matrices`` passed ``_check_lyapunov``.
    Each entry is computed in the order a single form would be."""
    at = np.asarray(modes) - 1
    a_bar = loops[at]
    disturbed = [k for k, i in enumerate(modes) if np.any(sys.dynamics(i).d)]
    if any(s_values[k] <= 0.0 for k in disturbed):
        raise ValueError("disturbance scaling s must be positive when D is nonzero")
    p = np.array(p_matrices)
    p_i = p[at, None]
    psi = p_i @ a_bar + a_bar.swapaxes(-1, -2) @ p_i
    rates = np.array([cell.rates for cell in cells])[:, at].transpose(1, 0, 2)[..., None, None]
    for j in range(sys.mode_count):
        psi += rates[:, :, j] * p[j]
    if disturbed:
        pd = p[at[disturbed]] @ np.array([sys.dynamics(modes[k]).d for k in disturbed])
        s = np.array([s_values[k] for k in disturbed], dtype=float)[:, None, None, None]
        psi[disturbed] += s * (pd @ pd.transpose(0, 2, 1))[:, None]
    return (0.5 * (psi + psi.swapaxes(-1, -2))).reshape(-1, sys.state_dim, sys.state_dim)


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
    sys = model.system
    n, shape = sys.mode_count, (sys.input_dim, sys.state_dim)
    p_matrices = tuple(np.asarray(p, dtype=float) for p in p_matrices)
    _check_lyapunov(0, n, sys.state_dim, p_matrices)
    found = [np.asarray(gains[i_hat], dtype=float) if i_hat in gains else None for i_hat in range(1, n + 1)]
    g, shaped = stack_matrices(found, shape)
    bad = np.flatnonzero(~shaped)
    if len(bad):
        i_hat = bad[0] + 1
        if found[bad[0]] is None:
            raise MissingGain(f"no gain for observation {i_hat}")
        raise DimensionMismatch(f"gain for observation {i_hat} must be {shape}, got {found[bad[0]].shape}")
    cells = [_integrated_cells(model)[m - 1]]
    return _forms(sys, cells, _closed_loops(sys, cells, g[None]), p_matrices, [i], [s])[0]


def _certificate(target: _Target, loops: np.ndarray, lyapunov: Lyapunov) -> Certificate:
    """Evaluate every form of a target's closed loops ``loops`` under P; a
    form that overflows has largest eigenvalue +inf, so it fails."""
    p_matrices, s_values = lyapunov.p_matrices, lyapunov.s_values
    keys = [(i, cell.key) for i in target.modes for cell in target.cells]
    with np.errstate(all="ignore"):
        forms = _forms(target.system, target.cells, loops, p_matrices, target.modes, s_values)
    finite = np.isfinite(forms).all(axis=(1, 2))
    tops = np.full(len(forms), np.inf)
    tops[finite] = np.linalg.eigvalsh(forms[finite])[:, -1]
    psi_max = {key: float(top) for key, top in zip(keys, tops)}
    certified = all(v <= -PSI_MARGIN for v in psi_max.values()) and bool(
        (np.linalg.eigvalsh(np.array(p_matrices))[:, 0] > 0.0).all()
    )
    return Certificate(
        p_matrices=p_matrices,
        psi_max=psi_max,
        certified=certified,
        s_values=s_values,
    )


def _jump_system_blocks(
    layout: VariableLayout,
    sys: JumpLinearSystem,
    cells: Sequence[_Cell],
    i: int,
    s_key,
    decay: float = 0.0,
) -> list[AffineMatrixMap]:
    """The synthesis blocks of mode i, one per cell under its rate matrix,
    placed as one stack.

    The leading nx x nx block carries A X_i + X_i A' + B Y + Y' B' +
    rate_ii X_i (+ s D D' when disturbances exist), with the cell's Y.  Each
    other mode j adds a row and column of blocks: sqrt(rate_ij) X_i beside
    the leading block and -X_j on the diagonal.  With every X_j > 0 the
    block is negative definite exactly when its Schur complement, the
    leading block plus sum_j rate_ij X_i X_j^{-1} X_i, is; under a zero
    rate_ij, -X_j is a piece of its own for the solver.  A positive
    ``decay`` shifts A by decay*I, which forces the certified closed loop to
    contract at least that fast.
    """
    nx = sys.state_dim
    dyn = sys.dynamics(i)
    a_shifted = dyn.a + decay * np.eye(nx) if decay else dyn.a
    rates = np.array([cell.rates[i - 1] for cell in cells], dtype=float)  # (cell, j)
    b = MapBuilder(nx * sys.mode_count, layout, len(cells))
    b.linear(("X", i), left=a_shifted, mirror=True)
    b.linear([cell.y_key(i) for cell in cells], left=dyn.b, mirror=True)
    b.linear(("X", i), coeff=rates[:, i - 1])
    if s_key is not None:
        b.scalar(s_key, dyn.d @ dyn.d.T)
    others = (j for j in range(1, sys.mode_count + 1) if j != i)
    for n, j in enumerate(others, start=1):
        rate = rates[:, j - 1]
        b.linear(("X", i), coeff=np.sqrt(np.where(rate > 0.0, rate, 0.0)), at=(0, n * nx), mirror=True)
        b.linear(("X", j), coeff=-1.0, at=(n * nx, n * nx))
    return b.build()


def _close_problem(
    target: _Target, layout: VariableLayout, neg, neg_labels, delta: float, name: str, s_name: str
) -> LmiProblem:
    """Finish a problem over per-mode matrices ``name`` and per-disturbed-mode
    scalars ``s_name``: all must be positive."""
    nx = target.system.state_dim
    s_modes = target.disturbed_modes
    pos = MapBuilder(nx, layout, len(target.modes)).linear([(name, i) for i in target.modes]).build()
    pos_labels = [f"{name}{i} > 0" for i in target.modes]
    if s_modes:
        pos += MapBuilder(1, layout, len(s_modes)).scalar([(s_name, i) for i in s_modes], [[1.0]]).build()
        pos_labels += [f"{s_name}{i} > 0" for i in s_modes]
    return LmiProblem(layout, neg, pos, delta, neg_labels, pos_labels)


def _build_problem(target: _Target, decay: float) -> LmiProblem:
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
    for i in target.modes:
        neg += _jump_system_blocks(layout, sys, target.cells, i, ("s", i) if i in s_modes else None, decay)
    neg_labels = [f"mode {i}, {cell.label}" for i in target.modes for cell in target.cells]

    return _close_problem(target, layout, neg, neg_labels, SYNTHESIS_MARGIN, "X", "s")


def build_centralized(model: IntegratedModel, *, decay: float = 0.0) -> LmiProblem:
    """Synthesis feasibility problem for the integrated system, one block
    per (joint mode, product cell)."""
    _validate_integrated(model)
    return _build_problem(_integrated_target(model), decay)


def build_fullinfo(model: IntegratedModel, *, decay: float = 0.0) -> LmiProblem:
    """Full-information variant: identical blocks, since the constraints
    never reference the emission matrices; only gain recovery differs."""
    return build_centralized(model, decay=decay)


def build_distributed(model: InterdependentModel, *, decay: float = 0.0) -> tuple[LmiProblem, LmiProblem]:
    """Independent per-subsystem synthesis problems.

    System 1 gets one block per (own mode, region1, region2) under the rate
    matrix selected by region2; system 2 symmetrically under region1's.
    Gains carry both region indices; the two problems share no variables.
    An emission matrix that gain recovery cannot invert is refused.
    """
    violations = validate(model)
    if violations:
        raise InvalidModel(violations)
    _require_invertible_emissions(model, Scheme.DISTRIBUTED)
    prob1, prob2 = (_build_problem(_subsystem_target(model, k), decay) for k in (1, 2))
    return prob1, prob2


def _invert_x(x: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    """Inverses of a stack of symmetric matrices; the first one with an
    eigenvalue below ``_SINGULAR_EIG`` is refused by its label."""
    w, v = np.linalg.eigh(x)
    singular = np.flatnonzero(w[:, 0] < _SINGULAR_EIG)
    if len(singular):
        k = singular[0]
        raise SingularX(f"{labels[k]} has minimum eigenvalue {w[k, 0]:.3e} < {_SINGULAR_EIG:g}")
    return (v / w[:, None, :]) @ v.transpose(0, 2, 1)


def _require_feasible(solution: LmiSolution) -> None:
    if solution.status is not SolveStatus.FEASIBLE:
        raise NotFeasible(f"solver status is {solution.status.value}, cannot recover gains")


def _recover(target: _Target, solution: LmiSolution) -> tuple[dict, Lyapunov]:
    """Gains G_ihat = sum_i beta[ihat, i] Y_i X_i^{-1} per cell, plus the
    Lyapunov matrices P_i = X_i^{-1} and the disturbance scalings.  Every
    cell's products are taken at once, and each gain sums its nonzero
    weights' terms in mode order."""
    sys = target.system
    nu, nx, n = sys.input_dim, sys.state_dim, sys.mode_count
    prefix = f"system {target.system_id} " if target.system_id else ""
    x = np.array([solution.variable(("X", i)) for i in target.modes])
    x_inv = _invert_x(x, [f"{prefix}X{i}" for i in target.modes])
    s_values = tuple(
        solution.variable(("s", i)) if ("s", i) in solution.layout.keys else 1.0
        for i in target.modes
    )
    offsets = [[solution.layout.spec(cell.y_key(i)).offset for i in target.modes] for cell in target.cells]
    y = solution.z[np.array(offsets)[..., None] + np.arange(nu * nx)].reshape(len(target.cells), n, nu, nx)
    y_x = (y @ x_inv)[:, None]  # (cell, 1, mode i, nu, nx)
    alphas = [np.asarray(cell.alpha, dtype=float) for cell in target.cells]
    unmix = {}  # cells with equal emission matrices share one inverse
    for a in alphas:
        if (a.shape, a.tobytes()) not in unmix:
            unmix[a.shape, a.tobytes()] = build_beta(a)
    beta = np.array([unmix[a.shape, a.tobytes()] for a in alphas])[..., None, None]  # (cell, ihat, i, 1, 1)
    g = np.zeros((len(target.cells), n, nu, nx))
    for i in range(n):
        weight = beta[:, :, i]
        g = g + np.multiply(weight, y_x[:, :, i], out=np.zeros_like(g), where=weight != 0.0)
    gains = {
        (target.system_id, i_hat, cell.regions): g[c, i_hat - 1]
        for c, cell in enumerate(target.cells)
        for i_hat in target.modes
    }
    return gains, Lyapunov(tuple(x_inv), s_values)


def recover_gains(solution, model, scheme: Scheme) -> ControllerBank:
    """Turn a feasible solver result into an observation-indexed gain bank.

    Centralized recovery unmixes through the joint emission inverse; full
    information uses the solver variables directly; distributed recovery
    (``solution`` is the pair of per-system results) unmixes through each
    subsystem's own-region emission inverse.  The returned bank carries,
    per target, the candidate P = X^{-1} and the disturbance scalings;
    nothing is evaluated here.
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
    gains, lyapunov = {}, {}
    for target, sol in zip(targets, solutions):
        target_gains, lyapunov[target.system_id] = _recover(target, sol)
        gains.update(target_gains)
    return ControllerBank(scheme, gains, lyapunov)


def check_bank(model: InterdependentModel, bank: ControllerBank) -> ControllerBank:
    """Reject a bank that does not fit this model, and return it as the
    joint bank both the certifier and the simulator run.

    The bank must hold exactly the gains its scheme reads on this model,
    one finite gain of the right shape per (system, observation, regions),
    and each candidate it carries for a system id its scheme reads must
    pass ``_check_lyapunov``.  A distributed bank becomes joint gains
    blkdiag(G1, G2) and, when it carries both candidates, the joint
    candidate blkdiag(P1_i1, P2_i2) with s = min(s1_i1, s2_i2), both under
    system id 0 and in ``mode_pairs`` order, its ``gains`` a read-only
    mapping onto one read-only stack; a centralized or full-information
    bank is returned as is.

    Raises MissingGain, DimensionMismatch, NonFinite or NonSymmetric with a
    message naming the system: 1 or 2, or 0 for a joint bank.  Of several
    bad gains, the one named is the first read when each cell's joint
    observations are read in turn, system 1's gain before system 2's.
    """
    return joint_bank(model, bank)[0]


def _gain_fault(key: tuple, gain, shape: tuple[int, int]) -> Exception:
    """The error for the bad gain ``gain`` (None when missing) at ``key``."""
    k, i_hat, cell = key
    if gain is None:
        return MissingGain(f"no gain for system {k}, observation {i_hat}, regions {cell}")
    if gain.shape != shape:
        return DimensionMismatch(
            f"gain for system {k}, observation {i_hat}, regions {cell} has shape {gain.shape}, expected {shape}"
        )
    return NonFinite(f"gain for system {k}, observation {i_hat}, regions {cell} has non-finite entries")


def joint_bank(model: InterdependentModel, bank: ControllerBank) -> tuple[ControllerBank, np.ndarray]:
    """``check_bank``'s joint bank, and its gains stacked (cell, joint
    observation).  Each system's gains are checked as one stack, and a
    distributed bank's joint gains and candidate are placed into one
    array each."""
    s1, s2 = model.sys1, model.sys2
    n1, n2 = s1.mode_count, s2.mode_count
    nj = n1 * n2
    cells = region_pairs(model)
    distributed = bank.scheme is Scheme.DISTRIBUTED
    # Per system: its id, observation count, gain shape, and the joint
    # observation at which each of its observations is first read.
    if distributed:
        systems = (
            (1, n1, (s1.input_dim, s1.state_dim), np.arange(n1) * n2),
            (2, n2, (s2.input_dim, s2.state_dim), np.arange(n2)),
        )
    else:
        systems = ((0, nj, (s1.input_dim + s2.input_dim, s1.state_dim + s2.state_dim), np.arange(nj)),)
    stacks, read, faults = [], [], []
    for k, n_obs, shape, first_read in systems:
        keys = [(k, i_hat, cell) for cell in cells for i_hat in range(1, n_obs + 1)]
        found = [bank.gains.get(key) for key in keys]
        g, shaped = stack_matrices(found, shape)
        bad = np.flatnonzero(~shaped | ~np.isfinite(g).all(axis=(1, 2)))
        if len(bad):
            cell, obs = np.divmod(bad, n_obs)
            rank = (cell * nj + first_read[obs]) * 3 + k  # position in the reading order
            f = np.argmin(rank)
            faults.append((rank[f], keys[bad[f]], found[bad[f]], shape))
        stacks.append(g.reshape(len(cells), n_obs, *shape))
        read += keys
    if faults:
        raise _gain_fault(*min(faults, key=lambda fault: fault[0])[1:])
    extra = sorted(set(bank.gains) - set(read))
    if extra:
        k, i_hat, cell = extra[0]
        raise DimensionMismatch(
            f"gain for system {k}, observation {i_hat}, regions {cell} does not fit a "
            f"{bank.scheme.value} bank for this model"
        )

    p = {
        k: _check_lyapunov(k, n_obs, shape[1], bank.lyapunov[k].p_matrices)
        for k, n_obs, shape, _ in systems
        if k in bank.lyapunov
    }
    if not distributed:
        return bank, stacks[0]
    gains = joint_blocks(*stacks)
    gains.flags.writeable = False
    joint = {(0, i_hat, cell): gains[c, i_hat - 1] for c, cell in enumerate(cells) for i_hat in range(1, nj + 1)}
    lyapunov = {}
    if 1 in p and 2 in p:
        s_1, s_2 = bank.lyapunov[1].s_values, bank.lyapunov[2].s_values
        lyapunov[0] = Lyapunov(
            tuple(joint_blocks(p[1], p[2])),
            tuple(min(s_1[i1 - 1], s_2[i2 - 1]) for i1, i2 in mode_pairs(model)),
        )
    checked = ControllerBank(Scheme.CENTRALIZED, MappingProxyType(joint), lyapunov)
    object.__setattr__(checked, "_stack", gains)
    return checked, gains


def _check_lyapunov(k: int, modes: int, n: int, p_matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Reject a certificate of system k that is not ``modes`` finite,
    symmetric n x n matrices, checked as one stack, and return the stack.
    The first bad P is named, by its first fault."""
    if len(p_matrices) != modes:
        raise DimensionMismatch(f"certificate of system {k} has {len(p_matrices)} P matrices, expected {modes}")
    shape = (n, n)
    p, shaped = stack_matrices(p_matrices, shape)
    finite = np.isfinite(p).all(axis=(1, 2))
    # Clean: every P finite and symmetric within the least tolerance.
    if shaped.all() and finite.all() and np.abs(p - p.swapaxes(1, 2)).max(initial=0.0) <= _SYM_TOL:
        return p
    p[~finite] = 0.0
    deviation = np.abs(p - p.swapaxes(1, 2)).max(axis=(1, 2))
    tol = _SYM_TOL * np.maximum(1.0, np.abs(p).max(axis=(1, 2)))
    bad = np.flatnonzero(~shaped | ~finite | (deviation > tol))
    if len(bad):
        i = bad[0]
        where = f"certificate of system {k}, P of mode {i + 1}"
        if not shaped[i]:
            raise DimensionMismatch(f"{where} has shape {p_matrices[i].shape}, expected {shape}")
        if not finite[i]:
            raise NonFinite(f"{where} has non-finite entries")
        raise NonSymmetric(f"{where} is not symmetric within {tol[i]:g} (deviation {deviation[i]:.3e})")
    return p


def certify_gains(model: IntegratedModel, bank: ControllerBank) -> Certificate:
    """Certify a joint gain bank on the integrated system: return the bank's
    candidate (P, s) if it certifies the gains at ``PSI_MARGIN``, else
    search for Lyapunov matrices.  With the gains fixed the forms are affine
    in the P_i, the disturbance term entering through a Schur companion
    block; the search problem is homogeneous in (P, r), so its margin sets
    only the scale of the P it finds.  The direct evaluation of the forms
    decides the certified flag, whatever the solver claimed; infeasibility
    is reported through ``certified=False``, never raised.  Full-information
    banks are checked against identity emissions, since that controller
    reads the true mode."""
    if bank.scheme is Scheme.FULL_INFORMATION:
        model = _with_identity_obs(model)
    _validate_integrated(model)
    target = _integrated_target(model)
    sys = target.system
    nx = sys.state_dim
    a_bar = _closed_loops(sys, target.cells, _cell_gains(bank, target))
    candidate = bank.lyapunov.get(0)
    if candidate is not None:
        _check_lyapunov(0, sys.mode_count, nx, candidate.p_matrices)
        cert = _certificate(target, a_bar, candidate)
        if cert.certified:
            return cert
    s_modes = target.disturbed_modes

    layout = VariableLayout()
    for i in target.modes:
        layout.add_sym(("P", i), nx)
    for i in s_modes:
        layout.add_scalar(("r", i))  # r = 1/s, the disturbance Schur companion

    neg = []
    rates = np.array([cell.rates for cell in target.cells])  # (cell, i, j)
    for i in target.modes:
        d = sys.dynamics(i).d
        nw = d.shape[1] if i in s_modes else 0
        b = MapBuilder(nx + nw, layout, len(target.cells))
        b.linear(("P", i), right=a_bar[i - 1], mirror=True)
        for j in target.modes:
            b.linear(("P", j), coeff=rates[:, i - 1, j - 1])
        if nw:
            b.linear(("P", i), right=d, at=(0, nx), mirror=True)
            b.scalar(("r", i), -np.eye(nw), at=(nx, nx))
        neg += b.build()
    neg_labels = [f"mode {i}, {cell.label}" for i in target.modes for cell in target.cells]

    problem = _close_problem(target, layout, neg, neg_labels, PSI_MARGIN, "P", "r")
    solution = solve_feasibility(problem)

    p_matrices = tuple(solution.variable(("P", i)) for i in target.modes)
    s_values = tuple(1.0 / solution.variable(("r", i)) if i in s_modes else 1.0 for i in target.modes)
    return _certificate(target, a_bar, Lyapunov(p_matrices, s_values))


def check_corollary(model: InterdependentModel, bank: ControllerBank) -> Certificate:
    """Verify that a distributed bank stabilizes the integrated system:
    ``certify_gains`` of the joint bank ``check_bank`` returns, with the
    bank read as distributed whatever its scheme, so a joint bank is
    refused."""
    distributed = ControllerBank(Scheme.DISTRIBUTED, bank.gains, bank.lyapunov)
    return certify_gains(compose_integrated(model), check_bank(model, distributed))


@dataclass(frozen=True)
class SynthesisOutcome:
    """Bundle of everything a synthesis run produced: ``certificate`` is the
    check of ``bank``, None when there is no bank."""

    bank: ControllerBank | None
    solutions: tuple[LmiSolution, ...]
    problems: tuple[LmiProblem, ...]
    certificate: Certificate | None

    @property
    def worst_status(self) -> SolveStatus:
        for status in (SolveStatus.ITERATION_LIMIT, SolveStatus.INFEASIBLE):
            if any(s.status is status for s in self.solutions):
                return status
        return SolveStatus.FEASIBLE


def synthesize(model: InterdependentModel, scheme: Scheme, *, decay: float = 0.0) -> SynthesisOutcome:
    """End-to-end synthesis: build, solve, recover and check for any scheme.

    ``decay`` > 0 synthesizes against rate-shifted dynamics A + decay*I, a
    standard way to demand a guaranteed contraction rate; the recovered
    bank is checked against the unshifted model at ``PSI_MARGIN`` by the
    call ``certify`` makes.
    Centralized and distributed synthesis refuse an emission matrix whose
    inverse gain recovery cannot use.
    """
    integ = compose_integrated(model)
    if scheme is Scheme.DISTRIBUTED:
        problems = build_distributed(model, decay=decay)
    else:
        if scheme is Scheme.CENTRALIZED:
            _require_invertible_emissions(model, scheme)
        builder = build_fullinfo if scheme is Scheme.FULL_INFORMATION else build_centralized
        problems = (builder(integ, decay=decay),)
    solutions = tuple(solve_feasibility(problem) for problem in problems)
    if not all(sol.status is SolveStatus.FEASIBLE for sol in solutions):
        return SynthesisOutcome(None, solutions, problems, None)
    if scheme is Scheme.DISTRIBUTED:
        bank = recover_gains(solutions, model, scheme)
    else:
        bank = recover_gains(solutions[0], integ, scheme)
    certificate = certify_gains(integ, check_bank(model, bank))
    return SynthesisOutcome(bank, solutions, problems, certificate)
