"""Affine symmetric-matrix constraint systems and a feasibility solver.

A constraint system is a list of :class:`AffineMatrixMap` values over one
shared decision vector ``z``; each map must end up negative definite
(below ``-delta*I``) or positive definite (above ``+delta*I``).  Symmetric
matrix variables pack their upper triangle into ``z``, rectangular ones
pack row-major, scalars take one slot.

Feasibility is decided by a primal-dual interior-point method on the
max-margin problem (see :func:`solve_feasibility`).  Each map's linear part
is built and kept as coordinate triples (entry, variable, coefficient) of
its nonzeros; the solver concatenates them, negated for a neg map, into
the one sparse operator of the max-margin problem, onto a flat vector
holding every block.  It is deterministic: fixed starting point, no
randomness, and a fixed order of operations, so its results reproduce bit
for bit for a fixed BLAS thread count.  The thread count can change how
BLAS and LAPACK sum: 1 and 2 threads give centralized demo banks that
differ by up to 5.0e-9 relative.

The solver works on each block's pieces, its irreducible diagonal blocks
after a permutation of rows and columns: the connected components of the
graph with an edge wherever F0 or a coefficient is nonzero.  This is
exact.  Entries outside the pieces are zero in F(z) for every z, and the
eigenvalues of a block-diagonal matrix are those of its blocks, so each
constraint's extreme eigenvalue is the extreme over its pieces, and a
block is definite exactly when each of its pieces is.

An infeasible verdict rests on a certificate of the alternative system
(Boyd, El Ghaoui, Feron & Balakrishnan, *Linear Matrix Inequalities in
System and Control Theory*, SIAM 1994, ch. 2), which
:func:`check_infeasibility_certificate` checks from the problem's maps
alone.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonSymmetric

__all__ = [
    "VariableLayout",
    "AffineMatrixMap",
    "MapBuilder",
    "LmiProblem",
    "LmiSolution",
    "SolveStatus",
    "InfeasibilityCertificate",
    "check_infeasibility_certificate",
    "evaluate",
    "solve_feasibility",
]

_BLOCK_SYM_TOL = 1e-12
# Each interior-point step goes this fraction of the way to the boundary of
# the cones.
_STEP_FRACTION = 0.95
# A certificate of the alternative system passes when its adjoint residual
# rho is at most this times the largest coefficient of the problem's maps,
# a bound that scales with the maps.  It then proves that every point
# meeting the margin delta has norm at least delta / rho.
_CERT_RESIDUAL = 1e-9
# How far a certificate's total trace may stray from 1 (rounding only).
_CERT_TRACE_TOL = 1e-12
# The Schur assembly builds each piece's dense coefficient stack, and takes
# their Gram products, in batches of at most this many entries, which bounds
# its temporaries; the products are kept for the one sum into M.
_SCHUR_BATCH = 1 << 14
# The solver ends in ITERATION_LIMIT after this many iterations, a guard
# against an iteration that never decides; the bundled problems decide in
# at most 17.
_MAX_ITERATIONS = 20000


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


@functools.cache
def _basis(kind: str, shape: tuple[int, int]) -> np.ndarray:
    """Derivative of an unpacked variable w.r.t. each of its z slots,
    stacked along the first axis (read-only, shared per kind and shape)."""
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
    flattened row-major, gains ``coeffs[t] * z[var_idx[t]]``, with every
    entry in [0, dim**2) and every variable in [0, nvars).  They are
    sorted by variable, then entry, without repeats or zero coefficients.
    """

    dim: int
    nvars: int
    f0: np.ndarray
    entries: np.ndarray
    var_idx: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        _check_stack(self.dim, self.nvars, self.f0[None], self.entries, self.var_idx, self.coeffs)


def _check_stack(dim: int, nvars: int, f0, entries, var_idx, coeffs, block=0) -> None:
    """Every check of :class:`AffineMatrixMap` on a stack of maps at once:
    constants ``f0`` stacked (block, dim, dim), and the triples of all maps
    concatenated in block order, triple t in block ``block[t]``."""
    if f0.shape[1:] != (dim, dim):
        raise DimensionMismatch("constant block has wrong shape")
    if np.max(np.abs(f0 - f0.transpose(0, 2, 1)), initial=0.0) > _BLOCK_SYM_TOL:
        raise NonSymmetric("constant block is not symmetric")
    if not entries.shape == var_idx.shape == coeffs.shape == (coeffs.size,):
        raise DimensionMismatch("coefficient triples have wrong shape")
    if var_idx.min(initial=0) < 0 or var_idx.max(initial=-1) >= nvars:
        raise DimensionMismatch(f"a coefficient triple names a variable outside [0, {nvars})")
    if entries.min(initial=0) < 0 or entries.max(initial=-1) >= dim * dim:
        raise DimensionMismatch(f"a coefficient triple names an entry outside [0, {dim * dim})")
    if not coeffs.all():
        raise ValueError("coefficient triples must have nonzero coefficients")
    key = var_idx * dim**2 + entries
    key = key + block * (key.max(initial=0) + dim * dim)  # each block's past the keys before and their transposes
    if (key[1:] <= key[:-1]).any():
        raise ValueError("coefficient triples must be sorted by variable, then entry, without repeats")
    # Each coefficient against the one at the transposed entry (0 if absent).
    row, col = np.divmod(entries, dim)
    mirror = key + (col - row) * (dim - 1)
    at = np.minimum(np.searchsorted(key, mirror), len(key) - 1)
    partner = np.where(key[at] == mirror, coeffs[at], 0.0)
    if np.abs(coeffs - partner).max(initial=0.0) > _BLOCK_SYM_TOL:
        raise NonSymmetric("a coefficient block is not symmetric")


def _stack_maps(dim: int, nvars: int, f0, entries, var_idx, coeffs, block) -> list[AffineMatrixMap]:
    """The maps of a stack (see ``_check_stack``), each holding views of the
    stacked arrays; the checks run once for the whole stack."""
    _check_stack(dim, nvars, f0, entries, var_idx, coeffs, block)
    bounds = np.searchsorted(block, np.arange(len(f0) + 1)).tolist()
    maps = []
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        amap = object.__new__(AffineMatrixMap)  # checked above, with its stack
        for name, value in (("dim", dim), ("nvars", nvars), ("f0", f0[k]), ("entries", entries[lo:hi]),
                            ("var_idx", var_idx[lo:hi]), ("coeffs", coeffs[lo:hi])):
            object.__setattr__(amap, name, value)
        maps.append(amap)
    return maps


def evaluate(amap: AffineMatrixMap, z) -> np.ndarray:
    """F0 + sum z_k F_k, symmetrized after accumulation."""
    zv = np.asarray(z, dtype=float)
    if zv.shape != (amap.nvars,):
        raise DimensionMismatch(f"expected z of length {amap.nvars}, got shape {zv.shape}")
    linear = np.bincount(amap.entries, amap.coeffs * zv[amap.var_idx], minlength=amap.dim**2)
    out = amap.f0 + linear.reshape(amap.dim, amap.dim)
    return 0.5 * (out + out.T)


class MapBuilder:
    """Accumulates placed affine terms and emits AffineMatrixMaps.

    A builder holds one block, or with ``count`` a stack of that many blocks
    of one size, and each call places its term in every block of the stack.
    In a stack a term may take one variable (a list of keys, all of one kind
    and shape), one coefficient and one right operand per block, each stacked
    on a leading axis; a zero coefficient leaves its block untouched.

    Placements are (row, col) entry offsets of the top-left corner of each
    term inside the full block.  ``mirror=True`` also places the transposed
    term at the swapped offsets, which keeps the overall map symmetric for
    off-diagonal placements and realises A V + (A V)' for diagonal ones.
    Each term is kept as the keys (block, variable, entry) of its nonzeros
    and their coefficients.
    """

    def __init__(self, dim: int, layout: VariableLayout, count: int | None = None):
        self.dim = dim
        self.layout = layout
        self.count = count
        self._f0 = np.zeros((1 if count is None else count, dim, dim))
        self._stride = max(1, layout.size) * dim * dim  # the keys of one block: variable * dim^2 + entry
        self._keys, self._coeffs = [], []

    def _fit(self, shape, at):
        if at[0] + shape[0] > self.dim or at[1] + shape[1] > self.dim:
            raise DimensionMismatch(f"term of shape {shape} at {at} exceeds block dim {self.dim}")

    def _variables(self, key) -> tuple[np.ndarray, VarSpec]:
        """The z offset of each block's variable (one for all blocks when
        ``key`` is one key) and the first variable's spec, whose kind and
        shape every other shares."""
        keys = key if isinstance(key, list) else [key]
        specs = self._one_or_each([self.layout.spec(k) for k in keys], "variable")
        if any((s.kind, s.shape) != (specs[0].kind, specs[0].shape) for s in specs):
            raise DimensionMismatch("variables of one term must share kind and shape")
        if max(s.offset + s.size for s in specs) * self.dim**2 > self._stride:
            raise ValueError("a builder places only variables declared before it was made")
        return np.array([s.offset for s in specs]), specs[0]

    def const(self, m):
        """Adds the constant m at the top-left corner of every block."""
        m = np.asarray(m, dtype=float)
        self._fit(m.shape, (0, 0))
        rows, cols = m.shape
        self._f0[:, :rows, :cols] += m
        return self

    def linear(self, key, left=None, right=None, coeff=1.0, at=(0, 0), mirror=False):
        """Adds coeff * L @ V @ R (optionally plus its mirrored transpose)."""
        offsets, spec = self._variables(key)
        terms = _basis(spec.kind, spec.shape)[None]  # terms[b, s]: slot s's coefficient in block b, one b for all blocks
        if left is not None:
            terms = np.asarray(left, dtype=float) @ terms
        if right is not None:
            right = np.asarray(right, dtype=float)
            terms = terms @ (self._one_or_each(right, "right operand")[:, None] if right.ndim == 3 else right)
        coeff = np.asarray(coeff, dtype=float)
        if coeff.ndim == 1:
            coeff = self._one_or_each(coeff, "coefficient")[:, None, None, None]
        return self._place(offsets, coeff * terms, at, mirror)

    def _one_or_each(self, operand, what):
        if len(operand) not in (1, len(self._f0)):
            raise DimensionMismatch(f"expected one {what} or {len(self._f0)}, got {len(operand)}")
        return operand

    def scalar(self, key, m, at=(0, 0), mirror=False):
        """Adds z_key * m for a scalar variable."""
        offsets, spec = self._variables(key)
        if spec.kind != "scalar":
            raise DimensionMismatch(f"variable {spec.key!r} is not scalar")
        return self._place(offsets, (np.asarray(m, dtype=float) * _basis("scalar", (1, 1)))[None], at, mirror)

    def _place(self, offsets, terms, at, mirror):
        """Keeps the nonzeros of ``terms`` (block, slot, row, col), the same
        in every block when they are given for one."""
        self._fit(terms.shape[2:], at)
        (r, c), (block, slot, i, j) = at, np.nonzero(terms)
        vals = terms[block, slot, i, j]
        start = np.arange(len(self._f0)) * self._stride + offsets * self.dim**2  # of each block's variable
        first = slot * self.dim**2  # of each nonzero's slot
        keys = [first + (r + i) * self.dim + c + j]
        if mirror:
            keys.append(first + (c + j) * self.dim + r + i)
        if len(terms) == 1:
            keys = [(start[:, None] + k).ravel() for k in keys]
            vals = vals[None].repeat(len(start), axis=0).ravel()
        else:
            keys = [start[block] + k for k in keys]
        self._keys += keys
        self._coeffs += [vals] * len(keys)
        return self

    def build(self) -> AffineMatrixMap | list[AffineMatrixMap]:
        """The map of the block, or the list of the stack's maps in block
        order, all checked at once."""
        key, coeffs = np.concatenate([np.zeros(0, dtype=int), *self._keys]), np.concatenate([[], *self._coeffs])
        if len(self._keys) > 1:  # a single term's nonzeros come sorted, without repeats
            key, repeat = np.unique(key, return_inverse=True)
            sums = np.bincount(repeat, coeffs)  # sequential, in the order the terms came
            key, coeffs = key[sums != 0.0], sums[sums != 0.0]
        block, rest = np.divmod(key, self._stride)
        var_idx, entries = np.divmod(rest, self.dim**2)
        maps = _stack_maps(self.dim, self.layout.size, self._f0, entries, var_idx, coeffs, block)
        return maps if self.count is not None else maps[0]


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
    neg_labels: list[str] = field(default_factory=list)
    pos_labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError("margin delta must be positive")
        if not (self.neg or self.pos):
            raise ValueError("a problem needs at least one constraint")
        if not self.neg_labels:
            self.neg_labels = [f"neg[{i}]" for i in range(len(self.neg))]
        if not self.pos_labels:
            self.pos_labels = [f"pos[{i}]" for i in range(len(self.pos))]


class InfeasibilityCertificate(NamedTuple):
    """A checked solution Z of the alternative system.

    Write each constraint as H_c(z) >= delta*I, with H_c = -F_c for a neg
    map and H_c = F_c for a pos map, and H0_c for its constant.  ``blocks``
    holds one positive semidefinite Z_c per constraint (neg maps first),
    with traces summing to 1; ``rho`` is the norm of the gradient
    sum_c H_c*(Z_c) of z -> sum_c tr(H_c(z) Z_c), and ``offset`` is
    sum_c tr(H0_c Z_c).  A point meeting delta has sum_c tr(H_c(z) Z_c) >=
    delta, while that sum is at most offset + rho * ||z||_2, so every such
    point has ||z||_2 >= ``bound`` = (delta - offset) / rho.  Without
    constants the offset is 0 and the bound is delta / rho.
    """

    blocks: tuple[np.ndarray, ...]
    rho: float
    offset: float
    bound: float


@dataclass(frozen=True)
class LmiSolution:
    """Solver outcome: decision vector, per-constraint margins, status, and
    for an INFEASIBLE status the certificate that decided it."""

    z: np.ndarray
    status: SolveStatus
    iterations: int
    neg_margins: np.ndarray  # max eigenvalue of each neg constraint at z
    pos_margins: np.ndarray  # min eigenvalue of each pos constraint at z
    delta: float
    layout: VariableLayout
    certificate: InfeasibilityCertificate | None = None

    @property
    def margins(self) -> np.ndarray:
        return np.concatenate([self.neg_margins, self.pos_margins])

    @property
    def misses(self) -> np.ndarray:
        """How far each constraint misses its margin, neg maps first: max
        eigenvalue + delta for a neg map, delta - min eigenvalue for a pos
        map.  A constraint meets its margin exactly where its miss is <= 0."""
        return np.concatenate([self.neg_margins + self.delta, self.delta - self.pos_margins])

    @property
    def worst_violation(self) -> float:
        """The largest miss, or 0 when every margin is met."""
        return float(self.misses.max(initial=0.0))

    def variable(self, key):
        return self.layout.unpack(self.z, key)


def check_infeasibility_certificate(problem: LmiProblem, blocks) -> InfeasibilityCertificate | None:
    """Check Z = ``blocks`` (one square matrix per constraint, neg maps
    first) as a certificate that no point meets the problem's margin within
    a stated norm, and return it as an :class:`InfeasibilityCertificate`,
    or None when it fails.

    Nothing from a solver is trusted: each block is symmetrized and must be
    finite and positive semidefinite by ``eigvalsh``, the traces must sum to
    1 within ``_CERT_TRACE_TOL``, the adjoint residual rho, recomputed from
    the maps' own coefficient triples, must be at most ``_CERT_RESIDUAL``
    times the largest coefficient magnitude of the maps,
    and the offset must lie below delta, so that the bound is positive.
    """
    maps = [*problem.neg, *problem.pos]
    if len(blocks) != len(maps):
        raise DimensionMismatch(f"expected {len(maps)} certificate blocks, got {len(blocks)}")
    checked = []
    grad = np.zeros(problem.layout.size)
    offset = trace = 0.0
    for c, (amap, block) in enumerate(zip(maps, blocks)):
        z = np.asarray(block, dtype=float)
        if z.size != amap.dim**2:
            raise DimensionMismatch(f"certificate block {c} has {z.size} entries, expected {amap.dim}x{amap.dim}")
        z = z.reshape(amap.dim, amap.dim)
        z = 0.5 * (z + z.T)
        if not np.isfinite(z).all() or np.linalg.eigvalsh(z)[0] < 0.0:
            return None
        sign = -1.0 if c < len(problem.neg) else 1.0
        grad += sign * np.bincount(amap.var_idx, amap.coeffs * z.ravel()[amap.entries], minlength=amap.nvars)
        offset += sign * float(np.vdot(amap.f0, z))
        trace += float(np.trace(z))
        checked.append(z)
    rho = float(np.linalg.norm(grad))
    if abs(trace - 1.0) > _CERT_TRACE_TOL or not rho <= _residual_bound(problem) or not offset < problem.delta:
        return None
    bound = (problem.delta - offset) / rho if rho > 0.0 else np.inf
    return InfeasibilityCertificate(tuple(checked), rho, offset, bound)


def _residual_bound(problem: LmiProblem) -> float:
    """The largest adjoint residual a certificate of the problem may have:
    _CERT_RESIDUAL times the largest coefficient magnitude of its maps."""
    return _CERT_RESIDUAL * max(np.abs(amap.coeffs).max(initial=0.0) for amap in (*problem.neg, *problem.pos))


class _Group(NamedTuple):
    """Pieces of one dimension as the Schur assembly reads them: their
    entries ``span`` of the flat vector, the variables ``var[k]`` piece k's
    coefficients touch (padded with variable 0 and zero coefficients), and
    each coefficient ``value[t]`` at flat position ``index[t]`` of a
    (pieces, dim, len(var[k]), dim) stack, sorted by piece; ``bounds[k]``
    is the first coefficient of piece k."""

    dim: int
    span: slice
    var: np.ndarray
    index: np.ndarray
    value: np.ndarray
    bounds: np.ndarray


def _group(rows, cols, vals, dim: int, span: slice, nvars: int) -> _Group:
    count = (span.stop - span.start) // (dim * dim)
    sel = np.flatnonzero((rows >= span.start) & (rows < span.stop))
    piece, entry = np.divmod(rows[sel] - span.start, dim * dim)
    pair, slot = np.unique(piece * nvars + cols[sel], return_inverse=True)
    pair_piece, pair_var = np.divmod(pair, nvars)
    per_piece = np.bincount(pair_piece, minlength=count)
    rank = np.arange(len(pair)) - (np.cumsum(per_piece) - per_piece)[pair_piece]
    n = max(1, int(per_piece.max(initial=0)))
    var = np.zeros((count, n), dtype=int)
    var[pair_piece, rank] = pair_var
    p, q = np.divmod(entry, dim)
    index = ((piece * dim + p) * n + rank[slot]) * dim + q
    order = np.argsort(index)
    bounds = np.searchsorted(index[order], np.arange(count + 1) * dim * n * dim)
    return _Group(dim, span, var, index[order], vals[sel][order], bounds)


def _batches(g: _Group):
    """The batches of a group's Schur assembly: pieces k0:k1 at a time, with
    at most ``rows`` rows of their Gram products taken at once."""
    d, (count, n) = g.dim, g.var.shape
    step = max(1, _SCHUR_BATCH // (n * d * d))
    for k0 in range(0, count, step):
        k1 = min(count, k0 + step)
        yield k0, k1, max(1, _SCHUR_BATCH // ((k1 - k0) * n))


class _Scalars(NamedTuple):
    """The 1x1 blocks of a flat vector, its entries ``span``, as one cone
    whose blocks are handled elementwise.  Entry ``at[t]`` of the span has
    coefficient ``value[t]``, sorted by entry, then variable.  Gram product
    p pairs coefficients ``first[p]`` and ``second[p]`` of one entry, every
    pair of each entry in row-major order."""

    span: slice
    at: np.ndarray
    value: np.ndarray
    first: np.ndarray
    second: np.ndarray


class _Cones(NamedTuple):
    """The cones of a flat vector as the Schur assembly reads them: one
    ``groups`` entry per piece dimension above 1, then the ``scalars``.
    ``scatter[p]`` is the flat entry of M that Gram product p lands on, in
    the order the assembly takes them."""

    groups: list[_Group]
    scalars: _Scalars
    scatter: np.ndarray


def _cones(rows, cols, vals, spans, scalars: slice, m: int) -> _Cones:
    """The cones of the entries ``spans`` ((dim, span) per group) and
    ``scalars`` of A', given as COO triples over m variables."""
    groups = [_group(rows, cols, vals, dim, span, m) for dim, span in spans]
    sel = np.flatnonzero((rows >= scalars.start) & (rows < scalars.stop))
    at, var = rows[sel] - scalars.start, cols[sel]
    order = np.lexsort((var, at))
    at, var, value = at[order], var[order], vals[sel][order]
    per_entry = np.bincount(at)
    count, lead = per_entry[at], (np.cumsum(per_entry) - per_entry)[at]  # t's entry: coefficients, first one
    first = np.repeat(np.arange(len(at)), count)
    second = np.repeat(lead - (np.cumsum(count) - count), count) + np.arange(len(first))
    scatter = []
    for g in groups:
        for k0, k1, rows in _batches(g):
            v = g.var[k0:k1]
            scatter += [(v[:, r0 : r0 + rows, None] * m + v[:, None, :]).ravel() for r0 in range(0, v.shape[1], rows)]
    scatter.append(var[first] * m + var[second])
    return _Cones(groups, _Scalars(scalars, at, value, first, second), np.concatenate(scatter))


class _MaxMargin(NamedTuple):
    """The max-margin problem of an LmiProblem as a semidefinite program in
    dual form: maximize t over y = (z, tau, t) subject to
    S = C - A'y >= 0 (blockwise), where the blocks are

    - each piece c of a constraint: tau (H0_c - delta I) + L_c z - t I,
      where H_c(z) = H0_c + L_c z is -F_c(z) on the pieces of a neg map and
      F_c(z) on those of a pos map;
    - a 1x1 block delta tau - t;
    - a 1x1 normalization block 1 - (sum_c tr(tau (H0_c - delta I) + L_c z)
      + delta tau).

    The first two kinds are (z, tau) homogenized: when t > 0 and tau > 0,
    z / tau meets the margin with room t / tau, and delta tau >= t keeps
    that room below delta.  The normalization bounds t (by 1 / (N + 1) for
    N the summed piece dimensions).

    A piece is an irreducible diagonal block of a constraint: the rows and
    columns of one connected component of the graph on the block's rows that
    has an edge wherever F0 or a coefficient is nonzero.  Entries outside the
    pieces are zero for every z.  Pieces are numbered in constraint order
    (neg maps, then pos maps); ``first[c]`` is the number of constraint c's
    first piece and ``first[-1]`` the piece count.  The flat vector holds
    the pieces of each dimension above 1 next to each other, flattened
    row-major, one group each in order of first use, then the 1x1 pieces
    and the two 1x1 blocks, which make up the scalar cone (``cones``);
    ``order`` holds the number of each piece in flat order, and flat entry
    k < len(h0) is entry ``source[k]`` of the constraint blocks stacked in
    constraint order, where H0 is ``h0[k]``.

    A' is held as COO triples, flat entry ``rows[k]`` of A'y gaining
    ``vals[k] * y[cols[k]]``, the z columns first; ``diag`` marks the
    diagonal entries of every block.  The columns of ``null`` are an
    orthonormal basis of the directions of y that no block sees (the null
    space of A', which the Schur matrix shares); there are none when the
    coefficients are independent.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    c: np.ndarray
    diag: np.ndarray
    cones: _Cones
    null: np.ndarray
    null_rows: np.ndarray  # the variables the null directions involve
    h0: np.ndarray
    first: np.ndarray
    order: np.ndarray
    source: np.ndarray

    @property
    def size(self) -> int:
        return len(self.null)

    def forward(self, y: np.ndarray) -> np.ndarray:
        """A'y."""
        return np.bincount(self.rows, self.vals * y[self.cols], minlength=len(self.c))

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """A(x): each variable's coefficient blocks against x."""
        return np.bincount(self.cols, self.vals * x[self.rows], minlength=self.size)

    def blocks(self, v: np.ndarray) -> list[np.ndarray]:
        """The stacked blocks of each group, then of the scalar cone, as
        views of a flat vector; on a vector of the pieces alone, the scalar
        cone holds the 1x1 pieces."""
        return [v[g.span].reshape(-1, g.dim, g.dim) for g in self.cones.groups] + [
            v[self.cones.scalars.span].reshape(-1, 1, 1)
        ]

    def lowest(self, z: np.ndarray) -> np.ndarray:
        """The smallest eigenvalue of H(z) on each piece, in piece order:
        H0 - A'(z, 0, 0) on the pieces."""
        h = self.h0 - self.forward(np.concatenate([z, [0.0, 0.0]]))[: len(self.h0)]
        low = np.empty(len(self.order))
        low[self.order] = np.concatenate([_lowest(v) for v in self.blocks(h)])
        return low


def _max_margin(problem: LmiProblem) -> _MaxMargin:
    maps = [*problem.neg, *problem.pos]
    delta, nv = problem.delta, problem.layout.size
    dim_of = np.array([amap.dim for amap in maps])
    base = np.cumsum(dim_of**2) - dim_of**2  # each block's start, stacked in constraint order
    sign = np.where(np.arange(len(maps)) < len(problem.neg), -1.0, 1.0)  # H_c = sign_c F_c
    count = np.array([len(amap.coeffs) for amap in maps])
    entries = np.concatenate([amap.entries for amap in maps]) + np.repeat(base, count)
    cols = np.concatenate([amap.var_idx for amap in maps])
    lin = np.repeat(sign, count) * np.concatenate([amap.coeffs for amap in maps])  # the coefficients of H
    h0 = np.repeat(sign, dim_of**2) * np.concatenate([amap.f0.ravel() for amap in maps])

    # Each block's pieces, for all blocks of one dimension at once: the
    # reachability closure of the block's graph, by repeated squaring.  A
    # piece is named by its block and its lowest row, and listed with its
    # rows in order; in constraint order, then by lowest row, pieces get
    # their numbers.
    linked = h0 != 0.0
    linked[entries] = True
    row, owner, name = [], [], []  # per dimension: each row, its constraint, its piece's name
    for dim in dict.fromkeys(dim_of.tolist()):
        members = np.flatnonzero(dim_of == dim)
        reach = linked[base[members][:, None] + np.arange(dim * dim)].reshape(-1, dim, dim)
        reach = (reach | reach.transpose(0, 2, 1) | np.eye(dim, dtype=bool)).astype(float)
        for _ in range((dim - 1).bit_length()):
            reach = np.minimum(reach @ reach, 1.0)
        root = reach.argmax(axis=2)  # the lowest row in each row's piece
        row.append(np.arange(len(members) * dim) % dim)
        owner.append(np.repeat(members, dim))
        name.append(base[owner[-1]] + root.ravel())
    row, owner, name = (np.concatenate(v) for v in (row, owner, name))
    sort = np.lexsort((row, name))  # by piece name (constraint order, then lowest row), then row
    row, owner, name = row[sort], owner[sort], name[sort]
    start = np.flatnonzero(np.diff(name, prepend=-1))  # each piece's first row, in piece order
    size = np.diff(np.append(start, len(name)))
    first = np.concatenate([[0], np.cumsum(np.bincount(owner[start], minlength=len(maps)))])
    # Pieces are grouped by size in order of first use, 1x1 last, and each
    # holds its entries of the stacked blocks.
    spans, order, source, at = [], [], [], 0
    for dim in sorted(dict.fromkeys(size.tolist()), key=lambda d: d == 1):
        order.append(np.flatnonzero(size == dim))
        spans.append((dim, slice(at, at + len(order[-1]) * dim * dim)))
        at = spans[-1][1].stop
        r = row[start[order[-1], None] + np.arange(dim)]  # (piece, row)
        of = owner[start[order[-1]], None, None]
        source.append((base[of] + r[:, :, None] * dim_of[of] + r[:, None, :]).ravel())
    source = np.concatenate(source)
    nf = len(source)
    flat = np.empty(len(h0), dtype=int)  # every linked entry lies in a piece
    flat[source] = np.arange(nf)
    rows, h0 = flat[entries], h0[source]
    diag = np.ones(nf + 2, dtype=bool)
    for (dim, span), pieces in zip(spans, order):
        diag[span] = np.eye(dim, dtype=bool)[None].repeat(len(pieces), axis=0).ravel()

    tau, t = nv, nv + 1
    with np.errstate(over="ignore", invalid="ignore"):
        h0_tau = h0 - delta * diag[:nf]  # the coefficient of tau
        on_diag = diag[rows]
        norm_z = np.bincount(cols[on_diag], lin[on_diag], minlength=nv)
        norm_tau = h0_tau[diag[:nf]].sum() + delta
    if not (np.isfinite(h0_tau).all() and np.isfinite(norm_z).all() and np.isfinite(norm_tau)):
        raise NonFinite("constraint data overflows the max-margin problem")
    at_tau, at_diag, at_norm = np.flatnonzero(h0_tau), np.flatnonzero(diag[:nf]), np.flatnonzero(norm_z)
    a_rows = np.concatenate([rows, at_tau, at_diag, [nf, nf], np.full(len(at_norm) + 1, nf + 1)])
    a_cols = np.concatenate([cols, np.full(len(at_tau), tau), np.full(len(at_diag), t), [tau, t], at_norm, [tau]])
    a_vals = np.concatenate([-lin, -h0_tau[at_tau], np.ones(len(at_diag)), [-delta, 1.0], norm_z[at_norm], [norm_tau]])
    c = np.zeros(nf + 2)
    c[-1] = 1.0
    matrices = [(dim, span) for dim, span in spans if dim > 1]
    ones = slice(matrices[-1][1].stop if matrices else 0, nf)  # the 1x1 pieces
    cones = _cones(a_rows, a_cols, a_vals, matrices, slice(ones.start, nf + 2), nv + 2)
    null = _null_space(rows, cols, -lin, matrices, ones, nv)
    null = np.concatenate([null, np.zeros((2, null.shape[1]))])  # tau and t take no part
    return _MaxMargin(
        a_rows, a_cols, a_vals, c, diag, cones, null, np.flatnonzero(np.abs(null).sum(axis=1)),
        h0, first, np.concatenate(order), source,
    )


def _null_space(rows, cols, vals, spans, ones: slice, m: int) -> np.ndarray:
    """An orthonormal basis of the directions of z that no piece sees, given
    the z triples of A' over the pieces, the groups ``spans`` ((dim, span)
    each) and the 1x1 pieces ``ones``, and m variables.

    These are the null directions of A' too (see _MaxMargin): a null
    direction (w_z, w_tau, w_t) has w_t = delta w_tau from the 1x1 block,
    so on the pieces L w_z = -w_tau (H0 - 2 delta I), whose summed traces
    turn the normalization row into w_tau delta (N + 1) = 0.

    A variable with an entry that no other remaining variable touches has a
    zero weight in every null direction, so such variables are set aside
    until none is left; the null space of L'L scaled to a unit diagonal is
    then found among the rest, usually none, and a variable no piece reads
    keeps scale 1."""
    nf = ones.stop  # the flat entries of the pieces
    alive = np.ones(m, dtype=bool)
    while len(rows):
        live = alive[cols]
        alone = np.bincount(rows[live], minlength=nf)[rows] == 1
        owners = cols[live & alone]
        if not len(owners):
            break
        alive[owners] = False
    rest = np.flatnonzero(alive)
    if not len(rest):
        return np.zeros((m, 0))
    live, number = alive[cols], np.cumsum(alive) - 1
    cones = _cones(rows[live], number[cols[live]], vals[live], spans, ones, len(rest))
    identity = [np.broadcast_to(np.eye(g.dim), (len(g.var), g.dim, g.dim)) for g in cones.groups]
    identity.append(np.ones((nf - ones.start, 1, 1)))
    gram = _schur(cones, len(rest), identity, identity)
    norms = np.sqrt(gram.diagonal())
    scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
    w, q = np.linalg.eigh(scale[:, None] * gram * scale)
    null = np.zeros((m, np.count_nonzero(w <= 1e-13 * w[-1])))
    null[rest] = np.linalg.qr(scale[:, None] * q[:, w <= 1e-13 * w[-1]])[0]
    return null


def _schur(cones: _Cones, m: int, lx: list[np.ndarray], us: list[np.ndarray]) -> np.ndarray:
    """M_ij = sum over blocks of tr(A_i X A_j S^-1) for m variables, given
    the Cholesky factors X = lx lx' and inverse factors S^-1 = us' us of
    each group, then of the scalar cone: the Gram matrix of the B_j = lx'
    A_j us'.  Its products are taken piece by piece in the batches of
    ``_batches`` (elementwise on the scalar cone) and summed into M by one
    bincount over ``cones.scatter``, each entry in the order of the
    products."""
    gram = np.empty(len(cones.scatter))
    done = 0
    for g, lxg, usg in zip(cones.groups, lx, us):
        d, n = g.dim, g.var.shape[1]
        for k0, k1, rows in _batches(g):
            lo, hi = g.bounds[k0], g.bounds[k1]
            a = np.zeros((k1 - k0) * d * n * d)
            a[g.index[lo:hi] - k0 * d * n * d] = g.value[lo:hi]
            b = lxg[k0:k1].transpose(0, 2, 1) @ a.reshape(k1 - k0, d, n * d)
            b = b.reshape(k1 - k0, d * n, d) @ usg[k0:k1].transpose(0, 2, 1)
            b = b.reshape(k1 - k0, d, n, d).transpose(0, 2, 1, 3).reshape(k1 - k0, n, d * d)
            for r0 in range(0, n, rows):
                part = b[:, r0 : r0 + rows]
                out = gram[done : done + len(part) * part.shape[1] * n].reshape(len(part), -1, n)
                np.matmul(part, b.transpose(0, 2, 1), out=out)
                done += out.size
    s = cones.scalars
    b = lx[-1].reshape(-1)[s.at] * s.value * us[-1].reshape(-1)[s.at]
    np.multiply(b[s.first], b[s.second], out=gram[done:])
    return np.bincount(cones.scatter, gram, minlength=m * m).reshape(m, m)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.transpose(0, 2, 1))


def _cholesky(v: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of matrices; of 1x1 blocks, the square
    root, which fails as LAPACK does on an entry that is not positive."""
    if v.shape[-1] > 1:
        return np.linalg.cholesky(v)
    if not (v > 0.0).all():
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return np.sqrt(v)


def _inv(v: np.ndarray) -> np.ndarray:
    return np.linalg.inv(v) if v.shape[-1] > 1 else 1.0 / v


def _lowest(v: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each matrix of a stack."""
    return np.linalg.eigvalsh(v)[:, 0] if v.shape[-1] > 1 else v[:, 0, 0]


def _step_to_boundary(inverses: list[np.ndarray], dx: list[np.ndarray], ds: list[np.ndarray]) -> tuple[float, float]:
    """The largest alphas with X + alpha dX >= 0 and S + alpha dS >= 0 in
    every block, given each cone's inverse Cholesky factors of X stacked
    over those of S (inf where a direction never leaves the cone): one
    eigenvalue call per cone for both."""
    low_x = low_s = 0.0
    for li, u, v in zip(inverses, dx, ds):
        low = _lowest(li @ np.concatenate([u, v]) @ li.transpose(0, 2, 1))
        low_x, low_s = min(low_x, float(low[: len(u)].min())), min(low_s, float(low[len(u) :].min()))
    return tuple(np.inf if low >= 0.0 else -1.0 / low for low in (low_x, low_s))


def _iterates(mm: _MaxMargin):
    """The iterates (y, x, s) of an HKM primal-dual interior-point method
    with Mehrotra's predictor-corrector on the max-margin problem, starting
    from y = (0, 0, -1), S = I and X = I / (N + 1), a primal and dual
    feasible point on the central path (see ``_newton_step``).  The
    iteration ends, after yielding the last good iterate, when a Cholesky
    factorization (on the scalar cone, an entry that is not positive) or
    the Schur solve fails (LinAlgError), or a step leaves finite numbers or
    does not reduce the duality gap x.s: past that point rounding, not the
    method, moves the iterates.
    """
    x = mm.diag / (mm.diag.sum() - 1.0)
    s = mm.diag.astype(float)
    y = np.zeros(mm.size)
    y[-1] = -1.0
    while True:
        yield y, x, s
        try:
            step = _newton_step(mm, y, x, s)
        except np.linalg.LinAlgError:
            return
        gap = x @ s
        y, x, s = step
        if not (np.isfinite(x).all() and np.isfinite(y).all() and x @ s < gap):
            return


def _newton_step(mm: _MaxMargin, y: np.ndarray, x: np.ndarray, s: np.ndarray):
    """One predictor-corrector step from (y, x, s).

    Each direction solves the Schur system M dy = b + A((X Rd + D - sigma mu
    I) S^-1) with dS = Rd - A'dy and dX = sigma mu S^-1 - X - sym((X dS + D)
    S^-1), where Rd = C - S - A'y and b picks t; the predictor takes sigma =
    0 and D = 0, the corrector sigma = (mu_aff / mu)^3 and D = dX_aff
    dS_aff (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 6, 1996;
    Mehrotra, SIAM J. Optim. 2, 1992; Todd, Toh & Tutuncu, Optim. Methods
    Softw. 11, 1999).  The Schur system is solved on the range of A, which
    leaves y's components in the null space of A' at 0.  Primal and dual
    each step _STEP_FRACTION of the way to the boundary, capped at a full
    step.
    """
    m = mm.size
    b = np.zeros(m)
    b[-1] = 1.0
    big_x, big_s = mm.blocks(x), mm.blocks(s)
    # One factorization and one inverse per cone, of X stacked over S.
    factors = [_cholesky(np.concatenate([v, w])) for v, w in zip(big_x, big_s)]
    inverses = [_inv(f) for f in factors]
    lx = [f[: len(v)] for f, v in zip(factors, big_x)]
    us = [f[len(v) :] for f, v in zip(inverses, big_x)]
    schur = _schur(mm.cones, m, lx, us)
    if len(mm.null_rows):
        # M shares the null space of A', where the right-hand sides vanish:
        # give it unit-scale eigenvalues there, and dy no part in it.
        basis = mm.null[mm.null_rows]
        schur[np.ix_(mm.null_rows, mm.null_rows)] += (np.trace(schur) / m) * (basis @ basis.T)
    s_inv = [v.transpose(0, 2, 1) @ v for v in us]
    rd = mm.c - s - mm.forward(y)
    x_rd = [v @ r for v, r in zip(big_x, mm.blocks(rd))]

    def direction(sigma_mu, second):
        h = [(v + w) @ si - sigma_mu * si for v, w, si in zip(x_rd, second, s_inv)]
        dy = np.linalg.solve(schur, b + mm.adjoint(np.concatenate([v.ravel() for v in h])))
        ds = rd - mm.forward(dy)
        dx = [sigma_mu * si - v - _sym((v @ e + w) @ si) for v, e, w, si in zip(big_x, mm.blocks(ds), second, s_inv)]
        return dy, dx, ds

    dy, dx, ds = direction(0.0, [0.0] * len(big_x))
    step_x, step_s = (min(1.0, step) for step in _step_to_boundary(inverses, dx, mm.blocks(ds)))
    dx_flat = np.concatenate([v.ravel() for v in dx])
    sigma = min(1.0, ((x + step_x * dx_flat) @ (s + step_s * ds) / (x @ s)) ** 3)
    second = [v @ e for v, e in zip(dx, mm.blocks(ds))]
    dy, dx, ds = direction(sigma * (x @ s) / mm.diag.sum(), second)
    step_x, step_s = (min(1.0, _STEP_FRACTION * step) for step in _step_to_boundary(inverses, dx, mm.blocks(ds)))
    return y + step_s * dy, x + step_x * np.concatenate([v.ravel() for v in dx]), s + step_s * ds


def solve_feasibility(problem: LmiProblem) -> LmiSolution:
    """Decide the problem by a primal-dual interior-point method on its
    max-margin problem (see ``_MaxMargin`` and ``_iterates``).

    Every iterate is judged, from the starting point (iteration 0) to
    iteration ``_MAX_ITERATIONS``:

    - FEASIBLE when tau > 0 and the point z / tau meets every margin, each
      constraint's smallest eigenvalue of H at least delta, judged by one
      batched ``eigvalsh`` per piece dimension above 1 (a 1x1 piece is its
      own eigenvalue); that point is returned;
    - INFEASIBLE when the primal X, restricted to the constraint pieces and
      scaled to trace 1, passes :func:`check_infeasibility_certificate`
      (tried once the solver's own residual estimate is small enough); the
      certificate is returned with the iterate's z;
    - ITERATION_LIMIT after ``_MAX_ITERATIONS`` iterations, or earlier
      when the iteration ends (see ``_iterates``); the last iterate's z is
      returned.

    Every F0 of the synthesis problems is zero, so z / tau there is the
    iterate's z scaled to a binding margin of a few delta (1.6 to 2.4 delta
    on the bundled problems).  The margins returned are those of the
    returned z.  Reproduces bit for bit for fixed inputs and a fixed BLAS
    thread count (see the module docstring).
    """
    n_neg = len(problem.neg)
    nv = problem.layout.size
    mm = _max_margin(problem)
    residual = _residual_bound(problem)

    def lowest(z):
        # Each constraint's smallest eigenvalue of H is the extreme over its pieces.
        return np.minimum.reduceat(mm.lowest(z), mm.first[:-1])

    def result(status, z, low, certificate=None):
        return LmiSolution(
            z=z,
            status=status,
            iterations=iterations,
            neg_margins=-low[:n_neg],
            pos_margins=low[n_neg:],
            delta=problem.delta,
            layout=problem.layout,
            certificate=certificate,
        )

    # Overflow in a late step ends the iteration (see _iterates); numpy's own
    # warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations, (y, x, _) in enumerate(_iterates(mm)):
            z = y[:nv]
            if y[nv] > 0.0:
                point = z / y[nv]
                if np.isfinite(point).all():
                    low = lowest(point)
                    if low.min() >= problem.delta:
                        return result(SolveStatus.FEASIBLE, point, low)
            certificate = _certificate(problem, mm, x, residual)
            if certificate is not None:
                return result(SolveStatus.INFEASIBLE, z.copy(), lowest(z), certificate)
            if iterations == _MAX_ITERATIONS:
                break
    return result(SolveStatus.ITERATION_LIMIT, z.copy(), lowest(z))


def _certificate(problem: LmiProblem, mm: _MaxMargin, x: np.ndarray, residual: float):
    """The primal iterate's constraint pieces as a checked certificate, or
    None.  The check runs only once the iterate's own residual, the
    gradient sum_c H_c*(X_c) over the trace, is within ``residual``."""
    nf = len(mm.h0)
    pieces = np.concatenate([x[:nf], [0.0, 0.0]])  # without the two 1x1 blocks
    trace = pieces[mm.diag].sum()
    grad = mm.adjoint(pieces)[:-2]  # -sum_c H_c*(X_c): A's z rows are -H_c
    if not np.linalg.norm(grad) <= residual * trace:
        return None
    maps = [*problem.neg, *problem.pos]
    sizes = [amap.dim**2 for amap in maps]
    stacked = np.zeros(sum(sizes))
    stacked[mm.source] = x[:nf] / trace
    blocks = np.split(stacked, np.cumsum(sizes)[:-1])
    return check_infeasibility_certificate(problem, [b.reshape(m.dim, m.dim) for m, b in zip(maps, blocks)])
