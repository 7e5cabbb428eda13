"""The stacked input checks and joint assembly against per-entry oracles.

``validate``, ``compose_integrated``, ``check_bank`` and the integrated
model's check read every matrix of a family as one stack.  The oracles here
are written entry by entry from the documented rules, in the order the
diagnostics are documented to come in, so a stacked check that reorders,
drops or rewords a diagnostic, or an assembly that differs from
``np.kron`` or a block-diagonal composition by one bit, fails.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjls import synthesis as synthesis_module
from mjls.errors import DimensionMismatch, InvalidModel, MissingGain, NonFinite, NonSymmetric
from mjls.fileio import load_bank
from mjls.fixtures import demo_model
from mjls.model import (
    IntegratedModel,
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
    compose_integrated,
    joint_system,
    mode_pairs,
    region_pairs,
    validate,
)
from mjls.synthesis import ControllerBank, Lyapunov, Scheme, check_bank, joint_bank

PERF_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"

FAULTS = ("nan_in_a", "negative_rate", "positive_diagonal", "row_sum", "emission_range", "shape")
# Per fault: its kind and three draws that pick the matrix and the entry.
fault_lists = st.lists(
    st.tuples(st.sampled_from(FAULTS), *(st.integers(0, 2**16) for _ in range(3))), min_size=1, max_size=4
)


# --- generated models ---------------------------------------------------------


def _generator(rng, n):
    """A generator with off-diagonal rates in [0, 2), about a third exactly 0."""
    g = rng.uniform(0.0, 2.0, (n, n)) * (rng.uniform(size=(n, n)) > 0.3) * (1.0 - np.eye(n))
    return g - np.diag(g.sum(axis=1))


def _emission(rng, n):
    return rng.dirichlet(np.ones(n), size=n)


@st.composite
def model_parts(draw):
    """Mutable parts of a valid model: per system its dimensions and mode
    matrices, and its rate and emission families."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = [draw(st.integers(1, 3)), draw(st.integers(1, 3))]
    r = [draw(st.integers(1, 3)), draw(st.integers(1, 3))]
    parts = {"n": n, "r": r, "dims": [], "modes": [], "rates": [], "obs": []}
    for k in range(2):
        nx, nu, nw = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
        parts["dims"].append((nx, nu, nw))
        parts["modes"].append(
            [{"a": rng.normal(size=(nx, nx)), "b": rng.normal(size=(nx, nu)), "d": rng.normal(size=(nx, nw))}
             for _ in range(n[k])]
        )
        parts["rates"].append([_generator(rng, n[k]) for _ in range(r[1 - k])])  # by partner region
        parts["obs"].append([_emission(rng, n[k]) for _ in range(r[k])])  # by own region
    return parts


def _build(parts) -> InterdependentModel:
    systems = [
        JumpLinearSystem(*dims, tuple(ModeDynamics(**mode) for mode in modes))
        for dims, modes in zip(parts["dims"], parts["modes"])
    ]
    partitions = [RegionPartition(tuple(5.0 * np.arange(1, r))) for r in parts["r"]]
    return InterdependentModel(
        *systems,
        *partitions,
        RateFamily(tuple(parts["rates"][0])),
        RateFamily(tuple(parts["rates"][1])),
        ObservationModel(tuple(parts["obs"][0])),
        ObservationModel(tuple(parts["obs"][1])),
    )


def _entry(m, y, z):
    return y % m.shape[0], z % m.shape[1]


def _inject(kind, x, y, z, rates, obs, matrices):
    """Apply one fault in place to ``rates`` or ``obs`` (lists of families,
    each a list of matrices) or ``matrices`` (dicts of mode matrices)."""
    family = rates[x % len(rates)]
    g = family[x // len(rates) % len(family)]
    i, j = _entry(g, y, z)
    if kind == "nan_in_a":
        mode = matrices[x % len(matrices)]
        mode["a"].flat[z % mode["a"].size] = np.nan
    elif kind == "negative_rate":
        if g.shape[1] > 1 and j == i % g.shape[1]:
            j = (j + 1) % g.shape[1]
        g[i, j] = -0.1 - z % 7
    elif kind == "positive_diagonal":
        g[i, i % g.shape[1]] = 0.1 + z % 7
    elif kind == "row_sum":
        g[i, j] += 0.25 + z % 3
    elif kind == "emission_range":
        alphas = obs[y % len(obs)]
        a = alphas[x % len(alphas)]
        a[_entry(a, y // 3, z)] = 1.5 if z % 2 else -0.5
    else:  # a wrong shape: one row more
        slots = [(mode, name) for mode in matrices for name in "abd"]
        slots += [(members, at) for members in (*rates, *obs) for at in range(len(members))]
        container, key = slots[(x + z) % len(slots)]
        container[key] = np.zeros((container[key].shape[0] + 1, container[key].shape[1]))


@st.composite
def faulty_models(draw):
    parts = draw(model_parts())
    modes = parts["modes"][0] + parts["modes"][1]
    for fault in draw(fault_lists):
        _inject(*fault, parts["rates"], parts["obs"], modes)
    return _build(parts)


# --- per-entry oracles, from the documented rules ------------------------------


def _finite(m) -> bool:
    return all(math.isfinite(v) for v in np.asarray(m, dtype=float).flat)


def expected_system(sys: JumpLinearSystem, path: str) -> list[str]:
    """Mode by mode: A, B and D of the wrong shape, then A, B and D with a
    non-finite entry."""
    out = [] if sys.modes else [f"{path}: system must declare at least one mode"]
    nx, nu, nw = sys.state_dim, sys.input_dim, sys.disturbance_dim
    for idx, mode in enumerate(sys.modes, start=1):
        named = (("A", mode.a, (nx, nx)), ("B", mode.b, (nx, nu)), ("D", mode.d, (nx, nw)))
        for name, m, shape in named:
            if m.shape != shape:
                out.append(f"{path}.modes[{idx}].{name}: expected shape {shape}, got {m.shape}")
        for name, m, _ in named:
            if not _finite(m):
                out.append(f"{path}.modes[{idx}].{name}: non-finite entries")
    return out


def expected_generator(g, path: str, n: int) -> list[str]:
    """A wrong shape, or else non-finite entries, alone; else row by row the
    row sum off 0 by more than 1e-12 times the row's largest rate (at least
    1), each negative off-diagonal rate, and a positive diagonal rate."""
    if g.shape != (n, n):
        return [f"{path}: expected shape {(n, n)}, got {g.shape}"]
    if not _finite(g):
        return [f"{path}: non-finite entries"]
    out = []
    for i in range(n):
        row_sum, tol = g[i].sum(), 1e-12 * max([1.0] + [abs(v) for v in g[i]])
        if abs(row_sum) > tol:
            out.append(f"{path}[row {i + 1}]: row sums to {row_sum:.6g}, must be 0 within {tol:g}")
        for j in range(n):
            if j != i and g[i, j] < 0.0:
                out.append(f"{path}[{i + 1},{j + 1}]: negative off-diagonal rate {g[i, j]:.6g}")
        if g[i, i] > 0.0:
            out.append(f"{path}[{i + 1},{i + 1}]: positive diagonal rate {g[i, i]:.6g}")
    return out


def expected_stochastic(a, path: str, n: int) -> list[str]:
    """A wrong shape, or else non-finite entries, alone; else one line for
    any entry outside [0, 1], then each row sum off 1 by more than 1e-12."""
    if a.shape != (n, n):
        return [f"{path}: expected shape {(n, n)}, got {a.shape}"]
    if not _finite(a):
        return [f"{path}: non-finite entries"]
    out = []
    if any(not 0.0 <= v <= 1.0 for v in a.flat):
        out.append(f"{path}: entries must lie in [0, 1]")
    for i in range(n):
        row_sum = a[i].sum()
        if abs(row_sum - 1.0) > 1e-12:
            out.append(f"{path}[row {i + 1}]: row sums to {row_sum:.12g}, must be 1 within 1e-12")
    return out


def expected_family(matrices, path, count, whose, check, n) -> list[str]:
    out = []
    if len(matrices) != count:
        out.append(f"{path}: expected {count} matrices (one per {whose}), got {len(matrices)}")
    for m, g in enumerate(matrices, start=1):
        out += check(g, f"{path}[{m}]", n)
    return out


def expected_validate(model: InterdependentModel) -> list[str]:
    """Systems 1 and 2, then (the generated partitions being valid) rates1,
    rates2, obs1 and obs2, each family's count before its matrices."""
    n1, n2 = model.sys1.mode_count, model.sys2.mode_count
    r1, r2 = model.part1.region_count, model.part2.region_count
    return [
        *expected_system(model.sys1, "system1"),
        *expected_system(model.sys2, "system2"),
        *expected_family(model.rates1.matrices, "rates1", r2, "partner region", expected_generator, n1),
        *expected_family(model.rates2.matrices, "rates2", r1, "partner region", expected_generator, n2),
        *expected_family(model.obs1.alphas, "obs1", r1, "own region", expected_stochastic, n1),
        *expected_family(model.obs2.alphas, "obs2", r2, "own region", expected_stochastic, n2),
    ]


def expected_integrated(model: IntegratedModel) -> list[str]:
    """Both family counts, every joint rate matrix, every joint emission,
    then the joint mode count."""
    n, cells = model.mode_count, model.cell_count
    out = [
        f"{path}: expected {cells} matrices (one per product cell), got {len(matrices)}"
        for path, matrices in (("rates", model.rates.matrices), ("obs", model.obs.alphas))
        if len(matrices) != cells
    ]
    for m, g in enumerate(model.rates.matrices, start=1):
        out += expected_generator(g, f"rates[{m}]", n)
    for m, a in enumerate(model.obs.alphas, start=1):
        out += expected_stochastic(a, f"obs[{m}]", n)
    if len(model.system.modes) != n:
        out.append(f"system: expected {n} joint modes, got {len(model.system.modes)}")
    return out


def _integrated_diagnostics(model: IntegratedModel) -> list[str]:
    try:
        synthesis_module._validate_integrated(model)
    except InvalidModel as exc:
        return [str(v) for v in exc.violations]
    return []


# --- diagnostics ---------------------------------------------------------------


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(faulty_models())
def test_validate_matches_per_entry_oracle(model):
    expected = expected_validate(model)
    assert expected, "every generated fault leaves a diagnostic"
    assert [str(v) for v in validate(model)] == expected


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(model_parts(), fault_lists)
def test_integrated_check_matches_per_entry_oracle(parts, faults):
    integ = compose_integrated(_build(parts))
    rates, obs = [g.copy() for g in integ.rates.matrices], [a.copy() for a in integ.obs.alphas]
    for kind, x, y, z in faults:
        if kind == "nan_in_a":  # the integrated check reads no mode matrix: NaN in a rate instead
            g = rates[x % len(rates)]
            g.flat[z % g.size] = np.nan
        else:
            _inject(kind, x, y, z, [rates], [obs], [])
    faulty = IntegratedModel(
        integ.system, integ.partition, RateFamily(tuple(rates)), ObservationModel(tuple(obs)), integ.mode_counts
    )
    expected = expected_integrated(faulty)
    assert expected, "every generated fault leaves a diagnostic"
    assert _integrated_diagnostics(faulty) == expected


def test_integrated_check_names_counts_and_modes():
    integ = compose_integrated(demo_model())
    short = IntegratedModel(
        JumpLinearSystem(5, 2, 1, integ.system.modes[:5]),
        integ.partition,
        RateFamily(integ.rates.matrices[:4]),
        integ.obs,
        integ.mode_counts,
    )
    assert _integrated_diagnostics(short) == expected_integrated(short) == [
        "rates: expected 6 matrices (one per product cell), got 4",
        "system: expected 6 joint modes, got 5",
    ]


# --- bitwise assembly ----------------------------------------------------------


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _block_diag(a, b):
    return np.block([[a, np.zeros((a.shape[0], b.shape[1]))], [np.zeros((b.shape[0], a.shape[1])), b]])


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(model_parts())
def test_compose_integrated_is_kron_bit_for_bit(parts):
    model = _build(parts)
    integ = compose_integrated(model)
    n1, n2 = model.sys1.mode_count, model.sys2.mode_count
    assert integ.cell_count == len(integ.rates.matrices) == len(integ.obs.alphas)
    for (m1, m2), g, alpha in zip(region_pairs(model), integ.rates.matrices, integ.obs.alphas):
        g1, g2 = model.rates1.matrix(m2), model.rates2.matrix(m1)
        assert _same_bits(g, np.kron(g1, np.eye(n2)) + np.kron(np.eye(n1), g2))
        assert _same_bits(alpha, np.kron(model.obs1.alpha(m1), model.obs2.alpha(m2)))
    for joint, (i1, i2) in zip(joint_system(model).modes, mode_pairs(model)):
        d1, d2 = model.sys1.dynamics(i1), model.sys2.dynamics(i2)
        for name in ("a", "b", "d"):
            assert _same_bits(getattr(joint, name), _block_diag(getattr(d1, name), getattr(d2, name)))


@st.composite
def distributed_banks(draw):
    """A generated model and a distributed bank for it with both candidates."""
    model = _build(draw(model_parts()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains, lyapunov = {}, {}
    for k, sys in ((1, model.sys1), (2, model.sys2)):
        for cell in region_pairs(model):
            for i_hat in range(1, sys.mode_count + 1):
                gains[(k, i_hat, cell)] = rng.normal(size=(sys.input_dim, sys.state_dim))
        q = rng.normal(size=(sys.mode_count, sys.state_dim, sys.state_dim))
        p = q @ q.swapaxes(1, 2) + np.eye(sys.state_dim)
        lyapunov[k] = Lyapunov(tuple(p), tuple(rng.uniform(0.5, 2.0, sys.mode_count)))
    return model, ControllerBank(Scheme.DISTRIBUTED, gains, lyapunov)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(distributed_banks())
def test_joint_bank_is_block_diagonal_bit_for_bit(drawn):
    model, bank = drawn
    joint, stacked = joint_bank(model, bank)
    assert joint.scheme is Scheme.CENTRALIZED
    assert len(joint.gains) == stacked.shape[0] * stacked.shape[1] == model.part1.region_count * (
        model.part2.region_count * model.sys1.mode_count * model.sys2.mode_count
    )
    lyap1, lyap2 = bank.lyapunov[1], bank.lyapunov[2]
    for c, cell in enumerate(region_pairs(model)):
        for i_hat, (o1, o2) in enumerate(mode_pairs(model), start=1):
            expected = _block_diag(bank.gains[(1, o1, cell)], bank.gains[(2, o2, cell)])
            assert _same_bits(joint.gains[(0, i_hat, cell)], expected)
            assert _same_bits(stacked[c, i_hat - 1], expected)
    candidate = joint.lyapunov[0]
    for p, s, (i1, i2) in zip(candidate.p_matrices, candidate.s_values, mode_pairs(model)):
        assert _same_bits(p, _block_diag(lyap1.p_matrices[i1 - 1], lyap2.p_matrices[i2 - 1]))
        assert s == min(lyap1.s_values[i1 - 1], lyap2.s_values[i2 - 1])
    assert check_bank(model, bank).gains.keys() == joint.gains.keys()


# --- check_bank error precedence ------------------------------------------------


def reference_check_bank(model, bank):
    """The first diagnostic of a bank, read gain by gain: cell by cell in
    ``region_pairs`` order and joint observation by joint observation, a
    distributed bank's system 1 gain before its system 2 gain, each gain
    missing, then misshapen, then non-finite; then any gain not read; then
    each candidate P the scheme reads, system by system.  None when the
    bank fits."""
    s1, s2 = model.sys1, model.sys2
    distributed = bank.scheme is Scheme.DISTRIBUTED
    read = set()

    def fetch(k, i_hat, cell, shape):
        name = f"gain for system {k}, observation {i_hat}, regions {cell}"
        if (k, i_hat, cell) not in bank.gains:
            return MissingGain(f"no {name}")
        g = bank.gains[(k, i_hat, cell)]
        if g.shape != shape:
            return DimensionMismatch(f"{name} has shape {g.shape}, expected {shape}")
        if not _finite(g):
            return NonFinite(f"{name} has non-finite entries")
        read.add((k, i_hat, cell))
        return None

    for cell in region_pairs(model):
        for i_hat, (o1, o2) in enumerate(mode_pairs(model), start=1):
            if distributed:
                reads = [(1, o1, cell, (s1.input_dim, s1.state_dim)), (2, o2, cell, (s2.input_dim, s2.state_dim))]
            else:
                reads = [(0, i_hat, cell, (s1.input_dim + s2.input_dim, s1.state_dim + s2.state_dim))]
            for args in reads:
                fault = fetch(*args)
                if fault is not None:
                    return fault
    extra = sorted(set(bank.gains) - read)
    if extra:
        k, i_hat, cell = extra[0]
        return DimensionMismatch(
            f"gain for system {k}, observation {i_hat}, regions {cell} does not fit a "
            f"{bank.scheme.value} bank for this model"
        )
    if distributed:
        systems = ((1, s1.mode_count, s1.state_dim), (2, s2.mode_count, s2.state_dim))
    else:
        systems = ((0, s1.mode_count * s2.mode_count, s1.state_dim + s2.state_dim),)
    for k, modes, n in systems:
        if k not in bank.lyapunov:
            continue
        p_matrices = bank.lyapunov[k].p_matrices
        if len(p_matrices) != modes:
            return DimensionMismatch(f"certificate of system {k} has {len(p_matrices)} P matrices, expected {modes}")
        for i, p in enumerate(p_matrices, start=1):
            where = f"certificate of system {k}, P of mode {i}"
            if p.shape != (n, n):
                return DimensionMismatch(f"{where} has shape {p.shape}, expected {(n, n)}")
            if not _finite(p):
                return NonFinite(f"{where} has non-finite entries")
            deviation, tol = np.abs(p - p.T).max(), 1e-12 * max(1.0, np.abs(p).max())
            if deviation > tol:
                return NonSymmetric(f"{where} is not symmetric within {tol:g} (deviation {deviation:.3e})")
    return None


BANK_FAULTS = ("missing", "shape", "nonfinite", "extra", "nonsymmetric")


def _edited_bank(bank, edits):
    """``bank`` with ``edits(gains, p)`` applied to copies of its gains and
    of its candidates' P matrices."""
    gains = {key: g.copy() for key, g in bank.gains.items()}
    p = {k: [m.copy() for m in lyap.p_matrices] for k, lyap in bank.lyapunov.items()}
    edits(gains, p)
    return ControllerBank(bank.scheme, gains, {k: Lyapunov(tuple(p[k]), bank.lyapunov[k].s_values) for k in p})


def _faults(faults):
    """Edits applying each (kind, x, y) fault in turn."""

    def edits(gains, p):
        keys = sorted(gains)
        for kind, x, y in faults:
            key = keys[x % len(keys)]
            if kind == "missing":
                gains.pop(key, None)
            elif kind == "shape" and key in gains:
                gains[key] = np.zeros((gains[key].shape[0], gains[key].shape[1] + 1))
            elif kind == "nonfinite" and key in gains:
                gains[key].flat[y % gains[key].size] = (np.nan, np.inf, -np.inf)[y % 3]
            elif kind == "extra":
                gains[(key[0], key[1], (key[2][0], key[2][1] + 9))] = gains.get(key, np.zeros((1, 1)))
            elif kind == "nonsymmetric":
                k = sorted(p)[x % len(p)]
                p[k][y % len(p[k])][0, -1] += 1e-3

    return edits


def _raised(model, bank):
    try:
        check_bank(model, bank)
    except (MissingGain, DimensionMismatch, NonFinite, NonSymmetric) as exc:
        return type(exc), str(exc)
    return None


@pytest.fixture(scope="module")
def perf_banks():
    return {name: load_bank(PERF_DATA / f"bank_{name}.json") for name in ("distributed", "centralized")}


@pytest.mark.parametrize("name", ["distributed", "centralized"])
@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(faults=st.lists(st.tuples(st.sampled_from(BANK_FAULTS), st.integers(0, 999), st.integers(0, 999)),
                       min_size=2, max_size=5))
def test_check_bank_names_the_first_fault_read(perf_banks, name, faults):
    model, bank = demo_model(), _edited_bank(perf_banks[name], _faults(faults))
    expected = reference_check_bank(model, bank)
    assert _raised(model, bank) == (None if expected is None else (type(expected), str(expected)))


def _every_fault(missing, misshapen, non_finite):
    """Edits that drop gain ``missing``, widen ``misshapen``, put a NaN in
    ``non_finite``, add a gain no cell reads and break P 1's symmetry."""

    def edits(gains, p):
        gains.pop(missing)
        gains[misshapen] = np.zeros((gains[misshapen].shape[0], gains[misshapen].shape[1] + 1))
        gains[non_finite][0, 0] = np.nan
        gains[(missing[0], missing[1], (9, 1))] = gains[non_finite]
        p[min(p)][0][0, 1] += 1.0

    return edits


@pytest.mark.parametrize(
    "name, edits, expected",
    [
        # In cell (1,2), joint observation 3 = (1, 3) reads system 2's
        # observation 3 before joint observation 4 = (2, 1) reads system 1's
        # observation 2: the reading order is not system-major.
        (
            "distributed",
            _every_fault((1, 2, (1, 2)), (2, 3, (1, 2)), (1, 1, (2, 1))),
            (DimensionMismatch, "gain for system 2, observation 3, regions (1, 2) has shape (1, 4), expected (1, 3)"),
        ),
        (
            "distributed",
            _every_fault((2, 2, (1, 3)), (1, 2, (2, 1)), (1, 1, (1, 3))),
            (NonFinite, "gain for system 1, observation 1, regions (1, 3) has non-finite entries"),
        ),
        (
            "distributed",
            _every_fault((2, 1, (1, 1)), (1, 2, (1, 1)), (2, 2, (1, 1))),
            (MissingGain, "no gain for system 2, observation 1, regions (1, 1)"),
        ),
        (
            "centralized",
            _every_fault((0, 4, (2, 2)), (0, 5, (2, 1)), (0, 6, (2, 1))),
            (DimensionMismatch, "gain for system 0, observation 5, regions (2, 1) has shape (2, 6), expected (2, 5)"),
        ),
        (
            "centralized",
            _every_fault((0, 2, (1, 1)), (0, 3, (1, 1)), (0, 1, (1, 1))),
            (NonFinite, "gain for system 0, observation 1, regions (1, 1) has non-finite entries"),
        ),
    ],
    ids=["dist-shape", "dist-nonfinite", "dist-missing", "cent-shape", "cent-nonfinite"],
)
def test_check_bank_first_fault_pinned(perf_banks, name, edits, expected):
    model, bank = demo_model(), _edited_bank(perf_banks[name], edits)
    assert _raised(model, bank) == expected
    fault = reference_check_bank(model, bank)
    assert (type(fault), str(fault)) == expected


@pytest.mark.parametrize("name", ["distributed", "centralized"])
def test_check_bank_names_extra_gain_before_candidate(perf_banks, name):
    def edits(gains, p):
        k, i_hat, _ = min(gains)
        gains[(k, i_hat, (1, 9))] = gains[min(gains)]
        p[min(p)][0][0, 1] += 1.0

    model, bank = demo_model(), _edited_bank(perf_banks[name], edits)
    k = 1 if name == "distributed" else 0
    expected = (
        DimensionMismatch,
        f"gain for system {k}, observation 1, regions (1, 9) does not fit a {name} bank for this model",
    )
    assert _raised(model, bank) == expected
    fault = reference_check_bank(model, bank)
    assert (type(fault), str(fault)) == expected
    del bank.gains[(k, 1, (1, 9))]
    assert _raised(model, bank)[0] is NonSymmetric
    fault = reference_check_bank(model, bank)
    assert _raised(model, bank) == (type(fault), str(fault))
