"""Affine symmetric-matrix constraint systems and a feasibility solver.

A constraint system is a list of :class:`AffineMatrixMap` values over one
shared decision vector ``z``; each map must end up negative definite
(below ``-delta*I``) or positive definite (above ``+delta*I``).  Symmetric
matrix variables pack their upper triangle into ``z``, rectangular ones
pack row-major, scalars take one slot.

Feasibility is decided by alternating between two projections: onto the
product of shifted definite cones (eigenvalue clipping) and onto the
affine set ``{F(z)}`` (least squares on ``z``), combined in the reflected
Douglas-Rachford form, which handles the shallow intersection angles
these problems exhibit.  The solver is deterministic: fixed initial
point, no randomness, and a fixed projection order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonSymmetric

__all__ = [
    "VariableLayout",
    "AffineMatrixMap",
    "MapBuilder",
    "LmiProblem",
    "LmiSolution",
    "SolveStatus",
    "evaluate",
    "schur_expand",
    "solve_feasibility",
]

_BLOCK_SYM_TOL = 1e-12
_FEAS_SLACK = 1e-9
# The reflected iteration makes non-monotone progress with long plateaus; a
# 500-iteration stagnation window misfires right before convergence on thin
# feasible problems, so the window is wider than that.
_STAGNATION_WINDOW = 2000
_STAGNATION_RTOL = 1e-12


@dataclass(frozen=True)
class VarSpec:
    key: object
    kind: str  # "sym" | "rect" | "scalar"
    shape: tuple[int, int]
    offset: int
    size: int


class VariableLayout:
    """Registry of named decision variables and their packing into z."""

    def __init__(self):
        self._specs: dict[object, VarSpec] = {}
        self._order: list[object] = []
        self._total = 0

    @property
    def size(self) -> int:
        return self._total

    @property
    def keys(self) -> tuple[object, ...]:
        return tuple(self._order)

    def spec(self, key) -> VarSpec:
        return self._specs[key]

    def _add(self, key, kind, shape, size) -> VarSpec:
        if key in self._specs:
            raise ValueError(f"variable {key!r} already declared")
        spec = VarSpec(key, kind, shape, self._total, size)
        self._specs[key] = spec
        self._order.append(key)
        self._total += size
        return spec

    def add_sym(self, key, n: int) -> VarSpec:
        return self._add(key, "sym", (n, n), n * (n + 1) // 2)

    def add_rect(self, key, rows: int, cols: int) -> VarSpec:
        return self._add(key, "rect", (rows, cols), rows * cols)

    def add_scalar(self, key) -> VarSpec:
        return self._add(key, "scalar", (1, 1), 1)

    def pack_into(self, z: np.ndarray, key, value) -> None:
        spec = self._specs[key]
        if spec.kind == "scalar":
            z[spec.offset] = float(value)
            return
        m = np.asarray(value, dtype=float)
        if m.shape != spec.shape:
            raise DimensionMismatch(f"variable {key!r} expects shape {spec.shape}, got {m.shape}")
        if spec.kind == "sym":
            n = spec.shape[0]
            k = spec.offset
            for i in range(n):
                for j in range(i, n):
                    z[k] = m[i, j]
                    k += 1
        else:
            z[spec.offset : spec.offset + spec.size] = m.reshape(-1)

    def pack(self, values: dict) -> np.ndarray:
        z = np.zeros(self._total)
        for key, value in values.items():
            self.pack_into(z, key, value)
        return z

    def unpack(self, z: np.ndarray, key):
        spec = self._specs[key]
        if spec.kind == "scalar":
            return float(z[spec.offset])
        if spec.kind == "rect":
            return z[spec.offset : spec.offset + spec.size].reshape(spec.shape).copy()
        n = spec.shape[0]
        m = np.zeros((n, n))
        k = spec.offset
        for i in range(n):
            for j in range(i, n):
                m[i, j] = z[k]
                m[j, i] = z[k]
                k += 1
        return m

    def basis_matrices(self, key):
        """Derivative of the unpacked variable w.r.t. each of its z slots."""
        spec = self._specs[key]
        out = []
        if spec.kind == "sym":
            n = spec.shape[0]
            for i in range(n):
                for j in range(i, n):
                    e = np.zeros((n, n))
                    e[i, j] = 1.0
                    e[j, i] = 1.0
                    out.append(e)
        elif spec.kind == "rect":
            rows, cols = spec.shape
            for i in range(rows):
                for j in range(cols):
                    e = np.zeros((rows, cols))
                    e[i, j] = 1.0
                    out.append(e)
        else:
            out.append(np.array([[1.0]]))
        return out


@dataclass(frozen=True)
class AffineMatrixMap:
    """Symmetric-matrix-valued affine function F(z) = F0 + sum z_k F_k.

    Only the variables in ``var_idx`` (global z indices, ascending) carry
    nonzero coefficient blocks; ``coeffs[t]`` belongs to ``var_idx[t]``.
    """

    dim: int
    nvars: int
    f0: np.ndarray
    var_idx: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        if self.f0.shape != (self.dim, self.dim):
            raise DimensionMismatch("constant block has wrong shape")
        if np.max(np.abs(self.f0 - self.f0.T), initial=0.0) > _BLOCK_SYM_TOL:
            raise NonSymmetric("constant block is not symmetric")
        if self.coeffs.ndim != 3 or self.coeffs.shape[1:] != (self.dim, self.dim):
            raise DimensionMismatch("coefficient blocks have wrong shape")
        dev = np.max(np.abs(self.coeffs - np.transpose(self.coeffs, (0, 2, 1))), initial=0.0)
        if dev > _BLOCK_SYM_TOL:
            raise NonSymmetric("a coefficient block is not symmetric")


def evaluate(amap: AffineMatrixMap, z) -> np.ndarray:
    """F0 + sum z_k F_k, symmetrized after accumulation."""
    zv = np.asarray(z, dtype=float)
    if zv.shape != (amap.nvars,):
        raise DimensionMismatch(f"expected z of length {amap.nvars}, got shape {zv.shape}")
    out = amap.f0.copy()
    if len(amap.var_idx):
        out += np.tensordot(zv[amap.var_idx], amap.coeffs, axes=1)
    return 0.5 * (out + out.T)


class MapBuilder:
    """Accumulates placed affine terms and emits an AffineMatrixMap.

    Placements are (row, col) entry offsets of the top-left corner of each
    term inside the full block.  ``mirror=True`` also places the transposed
    term at the swapped offsets, which keeps the overall map symmetric for
    off-diagonal placements and realises A V + (A V)' for diagonal ones.
    """

    def __init__(self, dim: int, layout: VariableLayout):
        self.dim = dim
        self.layout = layout
        self._f0 = np.zeros((dim, dim))
        self._blocks: dict[int, np.ndarray] = {}

    def _place(self, target: np.ndarray, m: np.ndarray, at: tuple[int, int], mirror: bool):
        r, c = at
        rows, cols = m.shape
        if r + rows > self.dim or c + cols > self.dim:
            raise DimensionMismatch(f"term of shape {m.shape} at {at} exceeds block dim {self.dim}")
        target[r : r + rows, c : c + cols] += m
        if mirror:
            target[c : c + cols, r : r + rows] += m.T

    def const(self, m, at=(0, 0), mirror=False):
        self._place(self._f0, np.asarray(m, dtype=float), at, mirror)
        return self

    def linear(self, key, left=None, right=None, coeff=1.0, at=(0, 0), mirror=False):
        """Adds coeff * L @ V @ R (optionally plus its mirrored transpose)."""
        spec = self.layout.spec(key)
        for slot, e in enumerate(self.layout.basis_matrices(key)):
            term = e if left is None else np.asarray(left, dtype=float) @ e
            if right is not None:
                term = term @ np.asarray(right, dtype=float)
            block = self._blocks.setdefault(spec.offset + slot, np.zeros((self.dim, self.dim)))
            self._place(block, coeff * term, at, mirror)
        return self

    def scalar(self, key, m, at=(0, 0), mirror=False):
        """Adds z_key * m for a scalar variable."""
        spec = self.layout.spec(key)
        if spec.kind != "scalar":
            raise DimensionMismatch(f"variable {key!r} is not scalar")
        block = self._blocks.setdefault(spec.offset, np.zeros((self.dim, self.dim)))
        self._place(block, np.asarray(m, dtype=float), at, mirror)
        return self

    def build(self) -> AffineMatrixMap:
        idx = np.array(sorted(self._blocks), dtype=int)
        coeffs = (
            np.stack([self._blocks[k] for k in idx])
            if len(idx)
            else np.zeros((0, self.dim, self.dim))
        )
        return AffineMatrixMap(
            dim=self.dim,
            nvars=self.layout.size,
            f0=self._f0,
            var_idx=idx,
            coeffs=coeffs,
        )


def schur_expand(e_map: AffineMatrixMap, lam_maps, x_maps) -> AffineMatrixMap:
    """Block map [[E, L1, ..., Lj], [*, -X1, ...], ...] for the complement test.

    Negative definiteness of the result is equivalent to
    E + sum_j Lj Xj^{-1} Lj' < 0 whenever every Xj > 0.  With an empty
    companion list the map is E itself.
    """
    lam_maps = list(lam_maps)
    x_maps = list(x_maps)
    if len(lam_maps) != len(x_maps):
        raise DimensionMismatch("need one companion X block per off-diagonal block")
    if not lam_maps:
        return e_map
    n = e_map.dim
    for lm, xm in zip(lam_maps, x_maps):
        if lm.dim != n or xm.dim != n:
            raise DimensionMismatch("companion blocks must match the leading block dimension")
        if lm.nvars != e_map.nvars or xm.nvars != e_map.nvars:
            raise DimensionMismatch("all blocks must share one decision vector")

    total = n * (1 + len(lam_maps))
    f0 = np.zeros((total, total))
    blocks: dict[int, np.ndarray] = {}

    def place(src: AffineMatrixMap, at, mirror, sign=1.0):
        r, c = at
        f0[r : r + n, c : c + n] += sign * src.f0
        if mirror and at != (c, r):
            f0[c : c + n, r : r + n] += sign * src.f0.T
        for t, k in enumerate(src.var_idx):
            block = blocks.setdefault(int(k), np.zeros((total, total)))
            block[r : r + n, c : c + n] += sign * src.coeffs[t]
            if mirror and at != (c, r):
                block[c : c + n, r : r + n] += sign * src.coeffs[t].T

    place(e_map, (0, 0), mirror=False)
    for j, (lm, xm) in enumerate(zip(lam_maps, x_maps)):
        off = n * (1 + j)
        place(lm, (0, off), mirror=True)
        place(xm, (off, off), mirror=False, sign=-1.0)

    idx = np.array(sorted(blocks), dtype=int)
    coeffs = np.stack([blocks[k] for k in idx]) if len(idx) else np.zeros((0, total, total))
    return AffineMatrixMap(dim=total, nvars=e_map.nvars, f0=f0, var_idx=idx, coeffs=coeffs)


class SolveStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LmiProblem:
    """Strict feasibility problem: neg maps < -delta*I, pos maps > +delta*I."""

    layout: VariableLayout
    neg: list[AffineMatrixMap]
    pos: list[AffineMatrixMap]
    delta: float
    z0: np.ndarray | None = None
    neg_labels: list[str] = field(default_factory=list)
    pos_labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("margin delta must be positive")
        if self.z0 is None:
            self.z0 = np.zeros(self.layout.size)
        if not self.neg_labels:
            self.neg_labels = [f"neg[{i}]" for i in range(len(self.neg))]
        if not self.pos_labels:
            self.pos_labels = [f"pos[{i}]" for i in range(len(self.pos))]


@dataclass(frozen=True)
class LmiSolution:
    """Solver outcome: decision vector, per-constraint margins, status."""

    z: np.ndarray
    status: SolveStatus
    iterations: int
    neg_margins: np.ndarray  # max eigenvalue of each neg constraint at z
    pos_margins: np.ndarray  # min eigenvalue of each pos constraint at z
    delta: float
    layout: VariableLayout

    @property
    def margins(self) -> np.ndarray:
        return np.concatenate([self.neg_margins, self.pos_margins])

    @property
    def worst_violation(self) -> float:
        return _violation(self.neg_margins, self.pos_margins, self.delta)

    def variable(self, key):
        return self.layout.unpack(self.z, key)


def _violation(neg_margins, pos_margins, delta: float) -> float:
    """Largest amount by which a constraint misses its margin, or 0."""
    return max(
        0.0,
        float(np.max(neg_margins, initial=-np.inf)) + delta,
        delta - float(np.min(pos_margins, initial=np.inf)),
    )


@dataclass(frozen=True)
class _Group:
    """All constraints of one block dimension, stacked.

    Block b is ``f0[b] + g[b] @ z[var[b]]``, flattened row-major.  ``var``
    and ``g`` are zero-padded to the widest block: padding points at
    variable 0 with zero coefficients.  The cone step clips block b's
    eigenvalues into ``[lo[b], hi[b]]``.
    """

    dim: int
    members: np.ndarray  # constraint index of each block: neg maps, then pos maps
    neg: np.ndarray  # (n_blocks,) true for a neg block
    var: np.ndarray  # (n_blocks, width)
    g: np.ndarray  # (n_blocks, dim*dim, width)
    f0: np.ndarray  # (n_blocks, dim*dim)
    lo: np.ndarray  # (n_blocks, 1)
    hi: np.ndarray  # (n_blocks, 1)

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        return self.f0 + (self.g @ z[self.var][:, :, None])[:, :, 0]


def _affine_factor(problem: LmiProblem) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and pseudo-inverted eigenvalues of the normal matrix of
    the map from z to the coefficient parts of all blocks.

    Built from the unpadded maps: ``np.ix_`` on the repeated padding index
    of a stacked group would drop terms.
    """
    normal = np.zeros((problem.layout.size, problem.layout.size))
    for amap in [*problem.neg, *problem.pos]:
        gm = amap.coeffs.reshape(len(amap.var_idx), amap.dim**2)
        normal[np.ix_(amap.var_idx, amap.var_idx)] += gm @ gm.T
    w, q = np.linalg.eigh(normal)
    cutoff = max(w[-1], 0.0) * 1e-13 if len(w) else 0.0
    return q, np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)


def _stack(problem: LmiProblem) -> list[_Group]:
    """The constraints grouped by block dimension, in order of first use."""
    maps = [*problem.neg, *problem.pos]
    by_dim: dict[int, list[int]] = {}
    for c, amap in enumerate(maps):
        by_dim.setdefault(amap.dim, []).append(c)
    groups = []
    for dim, members in by_dim.items():
        width = max(len(maps[c].var_idx) for c in members)
        var = np.zeros((len(members), width), dtype=np.intp)
        g = np.zeros((len(members), dim * dim, width))
        for b, c in enumerate(members):
            k = len(maps[c].var_idx)
            var[b, :k] = maps[c].var_idx
            g[b, :, :k] = maps[c].coeffs.reshape(k, dim * dim).T
        members = np.array(members)
        neg = members < len(problem.neg)
        f0 = np.stack([maps[c].f0.reshape(-1) for c in members])
        lo = np.where(neg, -np.inf, problem.delta)[:, None]
        hi = np.where(neg, -problem.delta, np.inf)[:, None]
        groups.append(_Group(dim, members, neg, var, g, f0, lo, hi))
    return groups


def solve_feasibility(problem: LmiProblem, max_iter: int = 20000) -> LmiSolution:
    """Alternate between the affine set and the definite-cone product.

    The iteration is the reflected (Douglas-Rachford) form of the two
    projections: project the running tuple onto the affine set (least
    squares on z), reflect through that point, project the reflection onto
    the cones (eigenvalue clipping at the margin), and step by the
    difference.  The affine-side shadow carries the reported z; the plain
    alternating sequence stalls on the near-tangential geometry these
    synthesis problems produce, while the reflected form converges on the
    same two projection operators.  Each step works on one stacked array
    per block dimension.

    Deterministic for fixed inputs.  Returns FEASIBLE as soon as every
    constraint satisfies its margin (within 1e-9), INFEASIBLE when the best
    violation stagnates while positive, ITERATION_LIMIT otherwise; the two
    failure statuses report the best-found point.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    delta = problem.delta
    n_neg = len(problem.neg)
    nv = problem.layout.size
    z = np.asarray(problem.z0, dtype=float).copy()
    if z.shape != (nv,):
        raise DimensionMismatch("initial point has wrong length")
    # Factor first, so the normal matrix is freed before the stacks exist.
    q, inv_w = _affine_factor(problem)
    groups = _stack(problem)
    # The empty leading parts keep a problem without constraints valid.
    var = np.concatenate([np.zeros(0, dtype=np.intp), *(grp.var.ravel() for grp in groups)])

    def result(status, z, margins):
        return LmiSolution(
            z=z,
            status=status,
            iterations=iterations,
            neg_margins=margins[:n_neg],
            pos_margins=margins[n_neg:],
            delta=delta,
            layout=problem.layout,
        )

    best_violation = np.inf
    best_z = z.copy()
    best_margins = np.zeros(n_neg + len(problem.pos))
    history: list[float] = []

    state = [grp.evaluate(z) for grp in groups]  # running tuple, started on the affine set
    iterations = 0
    for iterations in range(1, max_iter + 1):
        pulled = [
            (grp.g.transpose(0, 2, 1) @ (s - grp.f0)[:, :, None]).ravel()
            for grp, s in zip(groups, state)
        ]
        rhs = np.bincount(var, np.concatenate([np.zeros(0), *pulled]), minlength=nv)
        z = q @ (inv_w * (q.T @ rhs))
        shadow = [grp.evaluate(z) for grp in groups]
        if not all(np.isfinite(a).all() for a in shadow):
            raise NonFinite("constraint evaluation produced non-finite entries")

        margins = np.empty(len(best_margins))
        for grp, a in zip(groups, shadow):
            w = np.linalg.eigvalsh(a.reshape(-1, grp.dim, grp.dim))
            margins[grp.members] = np.where(grp.neg, w[:, -1], w[:, 0])
        violation = _violation(margins[:n_neg], margins[n_neg:], delta)

        if violation < best_violation:
            best_violation = violation
            best_z = z
            best_margins = margins
        history.append(best_violation)

        if violation <= _FEAS_SLACK:
            return result(SolveStatus.FEASIBLE, z, margins)

        if len(history) > _STAGNATION_WINDOW and best_violation > 0.0:
            past = history[-_STAGNATION_WINDOW - 1]
            if past - best_violation < _STAGNATION_RTOL * max(best_violation, 1e-300):
                return result(SolveStatus.INFEASIBLE, best_z, best_margins)

        for k, (grp, s, a) in enumerate(zip(groups, state, shadow)):
            w, v = np.linalg.eigh((2.0 * a - s).reshape(-1, grp.dim, grp.dim))
            cone = (v * np.clip(w, grp.lo, grp.hi)[:, None, :]) @ v.transpose(0, 2, 1)
            state[k] = s + cone.reshape(s.shape) - a

    return result(SolveStatus.ITERATION_LIMIT, best_z, best_margins)
