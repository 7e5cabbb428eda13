"""Affine symmetric-matrix constraint systems and a feasibility solver.

A constraint system is a list of :class:`AffineMatrixMap` values over one
shared decision vector ``z``; each map must end up negative definite
(below ``-delta*I``) or positive definite (above ``+delta*I``).  Symmetric
matrix variables pack their upper triangle into ``z``, rectangular ones
pack row-major, scalars take one slot.

Feasibility is decided by alternating between two projections: onto the
product of shifted definite cones (eigenvalue clipping) and onto the
affine set ``{F(z)}`` (least squares on ``z``), combined in the relaxed
Douglas-Rachford form, which handles the shallow intersection angles
these problems exhibit.  Each map's linear part is built and kept as
coordinate triples (entry, variable, coefficient) of its nonzeros; the
solver concatenates them into one sparse operator from ``z`` onto a flat
vector holding every block.  It is deterministic: fixed initial point, no
randomness, and a fixed projection order.

The solver works on each block's pieces, its irreducible diagonal blocks
after a permutation of rows and columns: the connected components of the
graph with an edge wherever F0 or a coefficient is nonzero.  This is
exact.  Entries outside the pieces are zero in F(z) for every z, and the
eigenvalues of a block-diagonal matrix are those of its blocks, so each
constraint's extreme eigenvalue is the extreme over its pieces; clipping
eigenvalues keeps a block-diagonal matrix block-diagonal, so the cone
projection of a block is the projection of each piece.
"""

from __future__ import annotations

import enum
import functools
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
    "solve_feasibility",
]

_BLOCK_SYM_TOL = 1e-12
_FEAS_SLACK = 1e-9
# Relaxation factor of the Douglas-Rachford step (see solve_feasibility).  Any
# value in (0, 2) converges; 1 is the plain reflected form, and 1.5 takes
# fewer than half its iterations on the centralized demo synthesis.
_RELAX = 1.5
# The verdict pass (margins, best point, stopping tests) runs once per chunk
# of iterations (see solve_feasibility).  A chunk holds about _CHUNK_ENTRIES
# flat-vector entries of shadows and at most _CHUNK_MAX iterations, which
# bounds the steps run past a verdict.  In paired distributed-synthesis
# benchmark runs 8192 beat 2048 and 32768 (with a cap of 256).
_CHUNK_ENTRIES = 8192
_CHUNK_MAX = 64
# Douglas-Rachford makes non-monotone progress with long plateaus; a
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
        packed = m[np.triu_indices(spec.shape[0])] if spec.kind == "sym" else m.reshape(-1)
        z[spec.offset : spec.offset + spec.size] = packed

    def pack(self, values: dict) -> np.ndarray:
        z = np.zeros(self._total)
        for key, value in values.items():
            self.pack_into(z, key, value)
        return z

    def unpack(self, z: np.ndarray, key):
        spec = self._specs[key]
        if spec.kind == "scalar":
            return float(z[spec.offset])
        packed = z[spec.offset : spec.offset + spec.size]
        if spec.kind == "rect":
            return packed.reshape(spec.shape).copy()
        i, j = np.triu_indices(spec.shape[0])
        m = np.zeros(spec.shape)
        m[i, j] = packed
        m[j, i] = packed
        return m

    def basis_matrices(self, key) -> np.ndarray:
        """Derivative of the unpacked variable w.r.t. each of its z slots,
        stacked along the first axis (read-only, shared per kind and shape)."""
        spec = self._specs[key]
        return _basis(spec.kind, spec.shape)


@functools.cache
def _basis(kind: str, shape: tuple[int, int]) -> np.ndarray:
    if kind == "sym":
        i, j = np.triu_indices(shape[0])
        e = np.zeros((len(i), *shape))
        e[np.arange(len(i)), i, j] = e[np.arange(len(i)), j, i] = 1.0
    else:
        e = np.eye(shape[0] * shape[1]).reshape(-1, *shape)
    e.flags.writeable = False
    return e


@dataclass(frozen=True)
class AffineMatrixMap:
    """Symmetric-matrix-valued affine function F(z) = F0 + sum z_k F_k.

    The linear part is held as triples: entry ``entries[t]`` of the block,
    flattened row-major, gains ``coeffs[t] * z[var_idx[t]]``.  They are
    sorted by variable, then entry, without repeats or zero coefficients.
    """

    dim: int
    nvars: int
    f0: np.ndarray
    entries: np.ndarray
    var_idx: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        if self.f0.shape != (self.dim, self.dim):
            raise DimensionMismatch("constant block has wrong shape")
        if np.max(np.abs(self.f0 - self.f0.T), initial=0.0) > _BLOCK_SYM_TOL:
            raise NonSymmetric("constant block is not symmetric")
        if not self.entries.shape == self.var_idx.shape == self.coeffs.shape == (self.coeffs.size,):
            raise DimensionMismatch("coefficient triples have wrong shape")
        key = self.var_idx * self.dim**2 + self.entries
        if (key[1:] <= key[:-1]).any():
            raise ValueError("coefficient triples must be sorted by variable, then entry, without repeats")
        # Each coefficient against the one at the transposed entry (0 if absent).
        row, col = np.divmod(self.entries, self.dim)
        mirror = key + (col - row) * (self.dim - 1)
        at = np.searchsorted(key, mirror).clip(max=len(key) - 1)
        partner = np.where(key[at] == mirror, self.coeffs[at], 0.0)
        if np.abs(self.coeffs - partner).max(initial=0.0) > _BLOCK_SYM_TOL:
            raise NonSymmetric("a coefficient block is not symmetric")


def evaluate(amap: AffineMatrixMap, z) -> np.ndarray:
    """F0 + sum z_k F_k, symmetrized after accumulation."""
    zv = np.asarray(z, dtype=float)
    if zv.shape != (amap.nvars,):
        raise DimensionMismatch(f"expected z of length {amap.nvars}, got shape {zv.shape}")
    linear = np.bincount(amap.entries, amap.coeffs * zv[amap.var_idx], minlength=amap.dim**2)
    out = amap.f0 + linear.reshape(amap.dim, amap.dim)
    return 0.5 * (out + out.T)


_NO_TRIPLES = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))


class MapBuilder:
    """Accumulates placed affine terms and emits an AffineMatrixMap.

    Placements are (row, col) entry offsets of the top-left corner of each
    term inside the full block.  ``mirror=True`` also places the transposed
    term at the swapped offsets, which keeps the overall map symmetric for
    off-diagonal placements and realises A V + (A V)' for diagonal ones.
    Each term is kept as the triples of its nonzeros.
    """

    def __init__(self, dim: int, layout: VariableLayout):
        self.dim = dim
        self.layout = layout
        self._f0 = np.zeros((dim, dim))
        self._triples = []

    def _fit(self, shape, at):
        if at[0] + shape[0] > self.dim or at[1] + shape[1] > self.dim:
            raise DimensionMismatch(f"term of shape {shape} at {at} exceeds block dim {self.dim}")

    def const(self, m):
        """Adds the constant m at the top-left corner."""
        m = np.asarray(m, dtype=float)
        self._fit(m.shape, (0, 0))
        rows, cols = m.shape
        self._f0[:rows, :cols] += m
        return self

    def linear(self, key, left=None, right=None, coeff=1.0, at=(0, 0), mirror=False):
        """Adds coeff * L @ V @ R (optionally plus its mirrored transpose)."""
        terms = self.layout.basis_matrices(key)
        if left is not None:
            terms = np.asarray(left, dtype=float) @ terms
        if right is not None:
            terms = terms @ np.asarray(right, dtype=float)
        terms = coeff * terms  # terms[s] is the coefficient of z slot s of the variable
        self._fit(terms.shape[1:], at)
        (r, c), (slot, i, j) = at, np.nonzero(terms)
        var, vals = self.layout.spec(key).offset + slot, terms[slot, i, j]
        self._triples.append(((r + i) * self.dim + c + j, var, vals))
        if mirror:
            self._triples.append(((c + j) * self.dim + r + i, var, vals))
        return self

    def scalar(self, key, m, at=(0, 0), mirror=False):
        """Adds z_key * m for a scalar variable."""
        if self.layout.spec(key).kind != "scalar":
            raise DimensionMismatch(f"variable {key!r} is not scalar")
        return self.linear(key, coeff=np.asarray(m, dtype=float), at=at, mirror=mirror)

    def build(self) -> AffineMatrixMap:
        entries, var_idx, coeffs = map(np.concatenate, zip(_NO_TRIPLES, *self._triples))
        if len(self._triples) > 1:  # a single term's nonzeros come sorted, without repeats
            key, repeat = np.unique(var_idx * self.dim**2 + entries, return_inverse=True)
            sums = np.bincount(repeat, coeffs)  # sequential, in the order the terms came
            var_idx, entries = np.divmod(key[sums != 0.0], self.dim**2)
            coeffs = sums[sums != 0.0]
        return AffineMatrixMap(self.dim, self.layout.size, self._f0, entries, var_idx, coeffs)


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
        if not self.delta > 0.0:
            raise ValueError("margin delta must be positive")
        if not (self.neg or self.pos):
            raise ValueError("a problem needs at least one constraint")
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
        return float(_violation(self.neg_margins, self.pos_margins, self.delta))

    def variable(self, key):
        return self.layout.unpack(self.z, key)


def _violation(neg_margins, pos_margins, delta: float):
    """Largest amount by which a constraint misses its margin, or 0, for
    each row of margins (the last axis runs over constraints or pieces)."""
    neg = np.max(neg_margins, axis=-1, initial=-np.inf) + delta
    pos = delta - np.min(pos_margins, axis=-1, initial=np.inf)
    return np.maximum(0.0, np.maximum(neg, pos))


@dataclass(frozen=True)
class _Operator:
    """Every constraint block, split into its pieces, as one affine map
    z -> F0 + L z onto a flat vector.

    A piece is an irreducible diagonal block of a constraint: the rows and
    columns of one connected component of the graph on the block's rows that
    has an edge wherever F0 or a coefficient is nonzero.  Entries outside the
    pieces are zero for every z.  Pieces are numbered in constraint order (neg
    maps, then pos maps), so the neg pieces come first; ``first[c]`` is the
    number of constraint c's first piece and ``first[-1]`` the piece count.
    The pieces of each dimension lie next to each other, flattened row-major;
    flat entry k is entry ``source[k]`` of the constraint blocks stacked in
    constraint order.  ``dims`` holds one ``(dim, span, pieces, neg, lo, hi)``
    record per piece dimension: the entries of the flat vector, the number of
    each piece, whether it belongs to a neg map, and the bounds the cone step
    clips its eigenvalues into.  L is held as COO triples: entry ``rows[t]``
    gains ``vals[t] * z[cols[t]]``.  ``q`` and ``inv_w`` are the eigenvectors
    and pseudo-inverted eigenvalues of the normal matrix L'L.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    f0: np.ndarray
    dims: list[tuple]
    first: np.ndarray
    source: np.ndarray
    q: np.ndarray
    inv_w: np.ndarray

    def forward(self, z: np.ndarray) -> np.ndarray:
        return self.f0 + np.bincount(self.rows, self.vals * z[self.cols], minlength=len(self.f0))

    def adjoint(self, s: np.ndarray) -> np.ndarray:
        """L' s for a flat vector s."""
        return np.bincount(self.cols, self.vals * s[self.rows], minlength=len(self.q))

    @property
    def chunk(self) -> int:
        """Iterations per verdict pass of the solver (see solve_feasibility)."""
        return max(1, min(_CHUNK_ENTRIES // len(self.f0), _CHUNK_MAX))


def _operator(problem: LmiProblem) -> _Operator:
    """The constraints as one sparse operator on their pieces; a block that
    does not split is one piece holding all its rows."""
    maps = [*problem.neg, *problem.pos]
    by_dim: dict[int, list[int]] = {}
    for c, amap in enumerate(maps):
        by_dim.setdefault(amap.dim, []).append(c)
    dim_of = np.array([amap.dim for amap in maps])
    base = np.cumsum(dim_of**2) - dim_of**2  # each block's start, stacked in constraint order
    normal = np.zeros((problem.layout.size, problem.layout.size))
    rows, cols, vals = [], [], []
    for dim, members in by_dim.items():
        for c in members:
            amap = maps[c]
            # The map's share of L'L, one row per variable across the whole block
            # (the column count sets the product's summation order, so q's rounding).
            v, t = np.unique(amap.var_idx, return_inverse=True)
            gm = np.zeros((len(v), dim * dim))
            gm[t, amap.entries] = amap.coeffs
            normal[np.ix_(v, v)] += gm @ gm.T
            rows.append(base[c] + amap.entries)
            cols.append(amap.var_idx)
            vals.append(amap.coeffs)
    w, q = np.linalg.eigh(normal)
    cutoff = max(w[-1], 0.0) * 1e-13 if len(w) else 0.0
    inv_w = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    f0 = np.concatenate([amap.f0.ravel() for amap in maps])

    # Each block's pieces, for all blocks of one dimension at once: the
    # reachability closure of the block's graph, by repeated squaring.
    linked = f0 != 0.0
    linked[rows] = True
    parts = [None] * len(maps)  # the rows of each constraint's pieces
    for dim, members in by_dim.items():
        reach = linked[base[members][:, None] + np.arange(dim * dim)].reshape(-1, dim, dim)
        reach = (reach | reach.transpose(0, 2, 1) | np.eye(dim, dtype=bool)).astype(float)
        for _ in range((dim - 1).bit_length()):
            reach = np.minimum(reach @ reach, 1.0)
        root = reach.argmax(axis=2)  # the lowest row in each row's piece
        for c, r in zip(members, root):
            parts[c] = [np.flatnonzero(r == i) for i in np.unique(r)]
    # Pieces are numbered in constraint order, each with its entries of the
    # stacked blocks, and grouped by size in order of first use.
    first = np.cumsum([0] + [len(pieces) for pieces in parts])
    at = [base[c] + (r[:, None] * dim_of[c] + r).ravel() for c, pieces in enumerate(parts) for r in pieces]
    size = np.array([len(r) for pieces in parts for r in pieces])

    dims, source, start = [], [], 0
    for dim in dict.fromkeys(size.tolist()):
        pieces = np.flatnonzero(size == dim)
        source += [at[i] for i in pieces]
        neg = pieces < first[len(problem.neg)]
        lo = np.where(neg, -np.inf, problem.delta)[:, None]
        hi = np.where(neg, -problem.delta, np.inf)[:, None]
        dims.append((dim, slice(start, start + len(pieces) * dim * dim), pieces, neg, lo, hi))
        start += len(pieces) * dim * dim
    source = np.concatenate(source)
    flat = np.empty(len(f0), dtype=int)  # every linked entry lies in a piece
    flat[source] = np.arange(len(source))
    return _Operator(flat[rows], cols, vals, f0[source], dims, first, source, q, inv_w)


def solve_feasibility(problem: LmiProblem, max_iter: int = 20000) -> LmiSolution:
    """Alternate between the affine set and the definite-cone product.

    The iteration is the relaxed Douglas-Rachford form of the two
    projections: project the running tuple s onto the affine set (least
    squares on z), reflect through that point, project the reflection onto
    the cones (eigenvalue clipping at the margin), and step by a multiple
    of the difference,

        s+ = s + lam * (P_cone(2 P_aff(s) - s) - P_aff(s)),  lam = _RELAX.

    The affine-side shadow P_aff(s) carries the reported z; the plain
    alternating sequence stalls on the near-tangential geometry these
    synthesis problems produce, while the Douglas-Rachford form converges
    on the same two projection operators.  lam = 1 is the plain reflected
    form.  Its step map s -> s + P_cone(2 P_aff(s) - s) - P_aff(s) is
    firmly nonexpansive, so the relaxed map is averaged for every lam in
    (0, 2), and when the sets meet the iteration converges to a fixed
    point whose shadow lies in both (Eckstein & Bertsekas, Math.
    Programming 55, 1992).  SCS relaxes by 1.5 by default (O'Donoghue,
    Chu, Parikh & Boyd, JOTA 169, 2016).

    Each step works on one flat vector holding every block: the affine
    side applies one sparse operator and its adjoint, the cone side runs
    one batched eigendecomposition per piece dimension on views of that
    vector.  Clipping each piece on its own is the same iteration as
    clipping its whole block: the running tuple starts as F(z0) and each
    step adds lam times a cone projection minus an affine one, both zero
    outside the pieces, so it stays zero there, and the eigenvalues of a
    block are those of its pieces.  Margins are tracked per piece and
    reduced to each constraint's extreme only for the returned solution.

    The verdict on an iterate (its margins, the best-point record and the
    stopping tests) never feeds the recurrence, so it runs once per chunk
    of k iterations: the recurrence runs k steps keeping each z and
    shadow, one batched ``eigvalsh`` per piece dimension gives every
    row's margins, and the rows are judged in iteration order by the
    same scalar tests.  This is exact: ``eigvalsh`` decomposes each
    matrix of a stack on its own, so the margins are bit for bit those of
    one iteration at a time, and the solver returns at the same iteration
    with the same z and margins; steps run past the verdict are discarded.
    k = _CHUNK_ENTRIES // (flat vector length), clipped to [1, _CHUNK_MAX],
    so small problems, whose iterations are mostly interpreter overhead,
    get long chunks, and a problem whose flat vector fills a batch on its
    own (the centralized synthesis) is judged every iteration, with no
    steps run past its verdict.  A chunk ends at the first non-finite
    shadow: the rows before it are judged first, and NonFinite is raised
    only if none of them decides.

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
    op = _operator(problem)

    split = op.first[n_neg]  # the number of neg pieces

    def result(status, z, margins):
        # Each constraint's margin is the extreme over its pieces; z may be a
        # row of a chunk's buffer, which the solution should not keep alive.
        return LmiSolution(
            z=z.copy(),
            status=status,
            iterations=iterations,
            neg_margins=np.maximum.reduceat(margins[:split], op.first[:n_neg]),
            pos_margins=np.minimum.reduceat(margins[split:], op.first[n_neg:-1] - split),
            delta=delta,
            layout=problem.layout,
        )

    best_violation = np.inf
    best_z = z
    best_margins = np.zeros(op.first[-1])
    history: list[float] = []

    state = op.forward(z)  # running tuple, started on the affine set
    iterations = 0
    # A step that overflows leaves a non-finite shadow, which ends the run
    # with NonFinite below; numpy's own overflow warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        while iterations < max_iter:
            # The recurrence for one chunk; the verdict pass below never feeds it.
            rows = min(op.chunk, max_iter - iterations)
            zs = np.empty((rows, nv))
            shadows = np.empty((rows, len(op.f0)))
            finite = rows
            for row in range(rows):
                z = op.q @ (op.inv_w * (op.q.T @ op.adjoint(state - op.f0)))
                shadow = op.forward(z)
                if not np.isfinite(shadow).all():
                    finite = row
                    break
                zs[row], shadows[row] = z, shadow

                reflected = 2.0 * shadow - state
                cone = np.empty_like(state)
                for dim, span, _, _, lo, hi in op.dims:
                    w, v = np.linalg.eigh(reflected[span].reshape(-1, dim, dim))
                    cone[span] = ((v * np.clip(w, lo, hi)[:, None, :]) @ v.transpose(0, 2, 1)).ravel()
                state = state + _RELAX * (cone - shadow)

            # The verdict on each finite row, in iteration order.
            margins = np.empty((finite, op.first[-1]))
            for dim, span, pieces, neg, _, _ in op.dims:
                w = np.linalg.eigvalsh(shadows[:finite, span].reshape(finite, len(pieces), dim, dim))
                margins[:, pieces] = np.where(neg, w[..., -1], w[..., 0])
            violations = _violation(margins[:, :split], margins[:, split:], delta)

            for row, violation in enumerate(violations.tolist()):
                iterations += 1
                if violation < best_violation:
                    best_violation = violation
                    best_z = zs[row]
                    best_margins = margins[row]
                history.append(best_violation)

                if violation <= _FEAS_SLACK:
                    return result(SolveStatus.FEASIBLE, zs[row], margins[row])

                if len(history) > _STAGNATION_WINDOW and best_violation > 0.0:
                    past = history[-_STAGNATION_WINDOW - 1]
                    if past - best_violation < _STAGNATION_RTOL * max(best_violation, 1e-300):
                        return result(SolveStatus.INFEASIBLE, best_z, best_margins)

            if finite < rows:
                raise NonFinite("constraint evaluation produced non-finite entries")

    return result(SolveStatus.ITERATION_LIMIT, best_z, best_margins)
