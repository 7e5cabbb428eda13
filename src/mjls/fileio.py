"""JSON model/gain-bank files and CSV trace export.

Model files carry the two subsystems' mode matrices, the squared-norm
shell thresholds, the per-region rate matrices, and the per-region
emission matrices.  Gain files carry the scheme, the flat gain list and,
when available, the candidate certificate: the Lyapunov matrices and the
disturbance scalings, never a verdict.  All JSON is written canonically:
sorted keys, shortest round-trip float formatting, newline-terminated,
atomic replace.

Each document is read by one walk in document order, which collects all
its matrices (a bank's gains and P matrices together) and reads them as
one stack.  Only when a whole-stack test fails, or before a structural
fault is raised, are they checked one by one, to name the first fault.
Entries may be any real number and indices any integer, bools aside.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import os
from pathlib import Path

import numpy as np

from .errors import MjlsError
from .model import (
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
)
from .synthesis import ControllerBank, Lyapunov, Scheme

__all__ = [
    "ParseError",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_bank",
    "bank_to_dict",
    "bank_from_dict",
    "save_bank",
    "write_trace_csv",
    "save_report",
    "canonical_json",
    "atomic_write_text",
]


class ParseError(MjlsError):
    """Input file rejected; the message carries a path-qualified diagnostic."""


_flat = itertools.chain.from_iterable


def _types(values) -> set:
    return set(map(type, values))


def _all(types: set, kind: type, usual: set) -> bool:
    """Whether every one of ``types``, tried first against the ``usual``
    ones, is a ``kind``.  Neither JSON's bools nor numpy's are numbers."""
    return types <= usual or all(issubclass(t, kind) and not issubclass(t, bool) for t in types)


def _matrix(node, where: str) -> None:
    """Name the first fault of one matrix node, entry by entry."""
    if not (
        isinstance(node, list)
        and node
        and all(isinstance(row, list) and row and len(row) == len(node[0]) for row in node)
    ):
        raise ParseError(f"{where}: expected a nonempty rectangular matrix, given as a list of rows")
    for i, row in enumerate(node, start=1):
        for j, v in enumerate(row, start=1):
            _number(v, f"{where}[{i}][{j}]")


class _Matrices:
    """A document's matrix nodes by family: a family (where, count, keys)
    holds the node at ``{where}[i]{key}`` for i up to count, key by key so
    that matrices of one shape lie together.  ``check`` formats the paths."""

    def __init__(self) -> None:
        self.nodes: list = []
        self.families: list[tuple[str, int, tuple[str, ...]]] = []

    def check(self) -> None:
        """Name the first fault among the nodes, in document order."""
        start = 0
        for where, count, keys in self.families:
            for i, k in itertools.product(range(count), range(len(keys))):
                _matrix(self.nodes[start + k * count + i], f"{where}[{i + 1}]{keys[k]}")
            start += count * len(keys)

    def read(self) -> list[np.ndarray]:
        """Each node as a float matrix, all views of one array read by one
        ``np.fromiter``, a run of one shape by one reshape.  The whole-stack
        tests pass exactly the stacks whose nodes all pass ``_matrix``."""
        nodes, flat = self.nodes, None
        rows = list(_flat(nodes)) if _all(_types(nodes), list, {list}) else [None]  # [None] fails the next test
        if _all(_types(rows), list, {list}) and all(nodes):
            shapes = [(len(node), len(node[0])) for node in nodes]
            widths = [width for height, width in shapes for _ in range(height)]
            values = list(_flat(rows))
            if list(map(len, rows)) == widths and 0 not in widths and _all(_types(values), numbers.Real, {int, float}):
                try:
                    flat = np.fromiter(values, dtype=float, count=len(values))
                except OverflowError:  # an integer too large for a float
                    pass
        if flat is None:
            self.check()
        matrices, start = [], 0
        for (height, width), run in itertools.groupby(shapes):
            count = len(list(run))
            matrices.extend(flat[start : start + count * height * width].reshape(count, height, width))
            start += count * height * width
        return matrices


def _require(node, key: str, where: str):
    if not isinstance(node, dict) or key not in node:
        raise ParseError(f"{where}: missing required key {key!r}")
    return node[key]


def _integer(node, key: str, where: str) -> int:
    value = _require(node, key, where)
    if not isinstance(value, (int, numbers.Integral)) or isinstance(value, bool):
        raise ParseError(f"{where}.{key}: expected an integer, got {value!r}")
    return int(value)


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float, numbers.Real)) or isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float") from None


def _modes(node, where: str, matrices: _Matrices) -> int:
    """The number of a system's modes, whose A, B and D nodes join ``matrices``."""
    modes = _require(node, "modes", where)
    if not isinstance(modes, list) or not modes:
        raise ParseError(f"{where}.modes: expected a nonempty list")
    try:
        nodes = [mode[key] for key in "ABD" for mode in modes] if _all(_types(modes), dict, {dict}) else None
    except KeyError:  # a mode without one of its matrices
        nodes = None
    if nodes is None:  # mode by mode, to name the first fault; the caller names earlier ones first
        for (idx, mode), key in itertools.product(enumerate(modes, start=1), "ABD"):
            _matrix(_require(mode, key, f"{where}.modes[{idx}]"), f"{where}.modes[{idx}].{key}")
    matrices.nodes += nodes
    matrices.families.append((f"{where}.modes", len(modes), (".A", ".B", ".D")))
    return len(modes)


def _partition_from_dict(node, where: str) -> RegionPartition:
    thresholds = _require(node, "thresholds", where)
    if not isinstance(thresholds, list):
        raise ParseError(f"{where}.thresholds: expected a list of numbers")
    try:
        if _all(_types(thresholds), numbers.Real, {int, float}):
            return RegionPartition(tuple(thresholds))
    except OverflowError:  # an integer too large for a float
        pass
    for i, t in enumerate(thresholds, start=1):  # one by one, to name the first fault
        _number(t, f"{where}.thresholds[{i}]")


def _matrix_list(node, where: str, matrices: _Matrices) -> int:
    """The number of matrices in the family ``node``, which join ``matrices``."""
    if not isinstance(node, list) or not node:
        raise ParseError(f"{where}: expected a nonempty list of matrices")
    matrices.nodes += node
    matrices.families.append((where, len(node), ("",)))
    return len(node)


def model_from_dict(doc) -> InterdependentModel:
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")
    matrices = _Matrices()
    try:
        modes = [_modes(_require(doc, key, "top level"), key, matrices) for key in ("system1", "system2")]
        part1, part2 = (
            _partition_from_dict(_require(doc, key, "top level"), key) for key in ("partition1", "partition2")
        )
        families = ("rates1", "rates2", "obs1", "obs2")
        sizes = [_matrix_list(_require(doc, key, "top level"), key, matrices) for key in families]
    except ParseError:
        matrices.check()
        raise
    read, systems = iter(matrices.read()), []
    for n in modes:
        a, b, d = (tuple(itertools.islice(read, n)) for _ in "ABD")
        systems.append(JumpLinearSystem(a[0].shape[0], b[0].shape[1], d[0].shape[1], tuple(map(ModeDynamics, a, b, d))))
    rates1, rates2, obs1, obs2 = (tuple(itertools.islice(read, n)) for n in sizes)
    return InterdependentModel(
        sys1=systems[0],
        sys2=systems[1],
        part1=part1,
        part2=part2,
        rates1=RateFamily(rates1),
        rates2=RateFamily(rates2),
        obs1=ObservationModel(obs1),
        obs2=ObservationModel(obs2),
    )


def model_to_dict(model: InterdependentModel) -> dict:
    def system(sys: JumpLinearSystem) -> dict:
        return {
            "modes": [
                {"A": m.a.tolist(), "B": m.b.tolist(), "D": m.d.tolist()} for m in sys.modes
            ]
        }

    return {
        "system1": system(model.sys1),
        "system2": system(model.sys2),
        "partition1": {"thresholds": list(model.part1.thresholds)},
        "partition2": {"thresholds": list(model.part2.thresholds)},
        "rates1": [g.tolist() for g in model.rates1.matrices],
        "rates2": [g.tolist() for g in model.rates2.matrices],
        "obs1": [a.tolist() for a in model.obs1.alphas],
        "obs2": [a.tolist() for a in model.obs2.alphas],
    }


def _load_json(path, from_dict):
    """Read a JSON file and build it with ``from_dict``; every diagnostic
    is prefixed with the file path."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from None
    try:
        return from_dict(doc)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_model(path) -> InterdependentModel:
    return _load_json(path, model_from_dict)


def save_model(path, model: InterdependentModel) -> None:
    atomic_write_text(path, canonical_json(model_to_dict(model)))


def bank_to_dict(bank: ControllerBank) -> dict:
    entries = []
    for (system, obs, cell), g in sorted(
        bank.gains.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
    ):
        entries.append(
            {
                "system": system,
                "observation": obs,
                "region1": cell[0],
                "region2": cell[1],
                "G": np.asarray(g).tolist(),
            }
        )
    doc = {"scheme": bank.scheme.value, "gains": entries}
    if bank.lyapunov:
        candidates = [bank.lyapunov[k] for k in sorted(bank.lyapunov)]
        doc["certificate"] = {
            "P": [p.tolist() for c in candidates for p in c.p_matrices],
            "s": [float(s) for c in candidates for s in c.s_values],
        }
    return doc


def _scalings(node, count: int) -> tuple[float, ...]:
    """One positive, finite disturbance scaling per P matrix."""
    if not isinstance(node, list) or len(node) != count:
        raise ParseError(f"certificate.s: expected one number per P matrix, a list of {count}")
    for i, v in enumerate(node, start=1):
        if not 0.0 < _number(v, f"certificate.s[{i}]") < math.inf:
            raise ParseError(f"certificate.s[{i}]: expected a positive finite number, got {v!r}")
    return tuple(map(float, node))


def _gain_keys(entries: list, matrices: _Matrices) -> list[tuple]:
    """Each gain's key (system, observation, (region1, region2)) in order,
    of Python ints; the G nodes, a bank's first matrices, join ``matrices``.
    The indices are type-tested as one stack; when that fails, or a key
    repeats, the entries are read one by one to name the first fault."""
    keys = None
    try:
        if _all(_types(entries), dict, {dict}):
            *index, nodes = zip(*map(operator.itemgetter("system", "observation", "region1", "region2", "G"), entries))
            types = _types(_flat(index))
            if _all(types, numbers.Integral, {int}):
                system, obs, m1, m2 = index if types == {int} else ([*map(int, column)] for column in index)
                keys = list(zip(system, obs, zip(m1, m2)))
    except KeyError:  # an entry without one of the fields
        pass
    if keys is None or len(set(keys)) != len(keys):  # one by one, to name the first fault
        seen = set()
        for idx, entry in enumerate(entries, start=1):
            where = f"gains[{idx}]"
            system, obs, m1, m2 = (_integer(entry, k, where) for k in ("system", "observation", "region1", "region2"))
            _matrix(_require(entry, "G", where), f"{where}.G")
            key = (system, obs, (m1, m2))
            if key in seen:
                raise ParseError(f"{where}: duplicate gain for {key}")
            seen.add(key)
    matrices.nodes += nodes
    matrices.families.append(("gains", len(entries), (".G",)))
    return keys


def bank_from_dict(doc) -> ControllerBank:
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")
    scheme_raw = _require(doc, "scheme", "top level")
    try:
        scheme = Scheme(scheme_raw)
    except ValueError:
        raise ParseError(
            f"scheme: {scheme_raw!r} is not one of "
            f"{sorted(s.value for s in Scheme)}"
        ) from None
    entries = _require(doc, "gains", "top level")
    if not isinstance(entries, list) or not entries:
        raise ParseError("gains: expected a nonempty list")
    matrices = _Matrices()
    counts, scalings = {}, None
    try:
        keys = _gain_keys(entries, matrices)
        # Older files also carry a verdict, which is never read.  Without
        # s, every scaling is 1.
        cert_node = doc.get("certificate")
        if cert_node is not None:
            if not isinstance(cert_node, dict):
                raise ParseError(f"certificate: expected an object, got {cert_node!r}")
            p_count = _matrix_list(_require(cert_node, "P", "certificate"), "certificate.P", matrices)
            scalings = iter(_scalings(cert_node.get("s", [1.0] * p_count), p_count))
            # One P per observation the gains name, system by system.
            counts = {
                k: len({obs for (sys_id, obs, _c) in keys if sys_id == k})
                for k in ((1, 2) if scheme is Scheme.DISTRIBUTED else (0,))
            }
            if sum(counts.values()) != p_count:
                named = " and ".join(f"{n} for system {k}" for k, n in counts.items())
                raise ParseError(
                    f"certificate.P: wrong number of matrices: {p_count} given, "
                    f"one per observation the gains name: {named}"
                )
    except ParseError:
        matrices.check()
        raise
    read = iter(matrices.read())
    gains = dict(zip(keys, read))
    lyapunov = {
        k: Lyapunov(tuple(itertools.islice(read, n)), tuple(itertools.islice(scalings, n))) for k, n in counts.items()
    }
    return ControllerBank(scheme, gains, lyapunov)


def load_bank(path) -> ControllerBank:
    return _load_json(path, bank_from_dict)


def save_bank(path, bank: ControllerBank) -> None:
    atomic_write_text(path, canonical_json(bank_to_dict(bank)))


def trace_header(n1x: int, n2x: int, n1u: int, n2u: int) -> str:
    cols = ["t"]
    cols += [f"x1_{i + 1}" for i in range(n1x)]
    cols += [f"x2_{i + 1}" for i in range(n2x)]
    cols += ["mode1", "mode2", "obs1", "obs2", "region1", "region2"]
    cols += ["u1"] if n1u == 1 else [f"u1_{i + 1}" for i in range(n1u)]
    cols += ["u2"] if n2u == 1 else [f"u2_{i + 1}" for i in range(n2u)]
    return ",".join(cols)


def write_trace_csv(path, trace) -> None:
    """Trace rows with shortest round-trip decimal formatting.

    Each group of columns becomes Python floats or ints in one ``tolist``;
    ``repr`` of a Python float is its shortest round-trip form.
    """
    lines = [trace_header(trace.x1.shape[1], trace.x2.shape[1], trace.u1.shape[1], trace.u2.shape[1])]
    states = np.column_stack([trace.t, trace.x1, trace.x2]).tolist()
    chains = np.column_stack([trace.mode1, trace.mode2, trace.obs1, trace.obs2, trace.region1, trace.region2])
    inputs = np.column_stack([trace.u1, trace.u2]).tolist()
    for x, m, u in zip(states, chains.astype(int).tolist(), inputs):
        lines.append(",".join(map(repr, x + m + u)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_report(path, report) -> None:
    doc = {
        "runs": report.runs,
        "mean": report.mean,
        "stderr": report.stderr,
        "functional_per_run": list(report.functional_per_run),
        "terminal_norms": list(report.terminal_norms),
        "saturation": report.saturation,
    }
    atomic_write_text(path, canonical_json(doc))


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
