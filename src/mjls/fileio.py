"""JSON model/gain-bank files and CSV trace export.

Model files carry the two subsystems' mode matrices, the squared-norm
shell thresholds, the per-region rate matrices, and the per-region
emission matrices.  Gain files carry the scheme, the flat gain list and,
when available, the candidate certificate: the Lyapunov matrices and the
disturbance scalings, never a verdict.  All JSON is written canonically:
sorted keys, shortest round-trip float formatting, newline-terminated,
atomic replace.

A model's matrices, a bank's gains and its P matrices are each read as
one stack: a few whole-stack type tests pass a clean stack, whose entries
become one float array.  A document that fails them is read field by
field, which names its first fault in document order.
"""

from __future__ import annotations

import itertools
import json
import math
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

_GAIN_FIELDS = operator.itemgetter("system", "observation", "region1", "region2", "G")


def _types(values) -> set:
    return set(map(type, values))


def _stacked(nodes: list) -> list[np.ndarray] | None:
    """Each of ``nodes`` as a float matrix, all read by one ``np.fromiter``,
    or None unless every node is a nonempty list of equal-length nonempty
    lists of int and float entries."""
    if _types(nodes) != {list}:
        return None
    rows = list(_flat(nodes))
    if _types(rows) != {list}:
        return None
    values = list(_flat(rows))
    try:
        shapes = [(len(node), len(node[0])) for node in nodes]
    except IndexError:  # a matrix without rows
        return None
    widths = [width for height, width in shapes for _ in range(height)]
    if list(map(len, rows)) != widths or 0 in widths or not _types(values) <= {int, float}:
        return None
    try:
        flat = np.fromiter(values, dtype=float, count=len(values))
    except OverflowError:  # an integer too large for a float
        return None
    if len(set(shapes)) == 1:
        return list(flat.reshape(len(nodes), *shapes[0]))
    ends = itertools.accumulate(height * width for height, width in shapes)
    return [flat[end - h * w : end].reshape(h, w) for end, (h, w) in zip(ends, shapes)]


def _matrix(node, where: str) -> np.ndarray:
    if not (
        isinstance(node, list)
        and node
        and all(isinstance(row, list) and row and len(row) == len(node[0]) for row in node)
    ):
        raise ParseError(f"{where}: expected a nonempty rectangular matrix, given as a list of rows")
    # Entry by entry, so that the error names the entry.  Formatting every
    # entry's name costs more than the load itself, so a valid document's
    # matrices are read by ``_stacked``.
    return np.array([
        [_number(v, f"{where}[{i}][{j}]") for j, v in enumerate(row, start=1)]
        for i, row in enumerate(node, start=1)
    ])


def _require(node, key: str, where: str):
    if not isinstance(node, dict) or key not in node:
        raise ParseError(f"{where}: missing required key {key!r}")
    return node[key]


def _integer(node, key: str, where: str) -> int:
    value = _require(node, key, where)
    # JSON true/false load as bool, a subclass of int.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float") from None


def _system(modes) -> JumpLinearSystem:
    first = modes[0]
    return JumpLinearSystem(
        state_dim=first.a.shape[0],
        input_dim=first.b.shape[1],
        disturbance_dim=first.d.shape[1],
        modes=tuple(modes),
    )


def _system_from_dict(node, where: str) -> JumpLinearSystem:
    modes_node = _require(node, "modes", where)
    if not isinstance(modes_node, list) or not modes_node:
        raise ParseError(f"{where}.modes: expected a nonempty list")
    modes = []
    for idx, mode in enumerate(modes_node, start=1):
        a = _matrix(_require(mode, "A", f"{where}.modes[{idx}]"), f"{where}.modes[{idx}].A")
        b = _matrix(_require(mode, "B", f"{where}.modes[{idx}]"), f"{where}.modes[{idx}].B")
        d = _matrix(_require(mode, "D", f"{where}.modes[{idx}]"), f"{where}.modes[{idx}].D")
        modes.append(ModeDynamics(a, b, d))
    return _system(modes)


def _partition_from_dict(node, where: str) -> RegionPartition:
    thresholds = _require(node, "thresholds", where)
    if not isinstance(thresholds, list):
        raise ParseError(f"{where}.thresholds: expected a list of numbers")
    return RegionPartition(
        tuple(_number(t, f"{where}.thresholds[{i}]") for i, t in enumerate(thresholds, start=1))
    )


def _matrix_list(node, where: str) -> tuple[np.ndarray, ...]:
    if not isinstance(node, list) or not node:
        raise ParseError(f"{where}: expected a nonempty list of matrices")
    matrices = _stacked(node)
    if matrices is None:
        matrices = [_matrix(m, f"{where}[{i}]") for i, m in enumerate(node, start=1)]
    return tuple(matrices)


def _model_stacked(doc: dict) -> InterdependentModel | None:
    """The model with all its matrices read as one stack, or None when a
    whole-stack test fails."""
    parts = [doc.get(key) for key in ("system1", "system2")]
    if _types(parts) != {dict}:
        return None
    systems = [part.get("modes") for part in parts]
    families = systems + [doc.get(key) for key in ("rates1", "rates2", "obs1", "obs2")]
    if _types(families) != {list} or not all(families) or _types(_flat(systems)) != {dict}:
        return None
    try:
        part1, part2 = (_partition_from_dict(doc.get(key), key) for key in ("partition1", "partition2"))
    except ParseError:
        return None
    try:
        nodes = [mode[key] for modes in systems for mode in modes for key in ("A", "B", "D")]
    except KeyError:
        return None
    matrices = _stacked(nodes + list(_flat(families[2:])))
    if matrices is None:
        return None
    read = iter(matrices)
    sys1, sys2 = (_system([ModeDynamics(*itertools.islice(read, 3)) for _ in modes]) for modes in systems)
    rates1, rates2, obs1, obs2 = (tuple(itertools.islice(read, len(family))) for family in families[2:])
    return InterdependentModel(
        sys1=sys1,
        sys2=sys2,
        part1=part1,
        part2=part2,
        rates1=RateFamily(rates1),
        rates2=RateFamily(rates2),
        obs1=ObservationModel(obs1),
        obs2=ObservationModel(obs2),
    )


def model_from_dict(doc) -> InterdependentModel:
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")
    model = _model_stacked(doc)
    if model is not None:
        return model
    # Field by field, in document order, so that the error names the
    # first fault.
    return InterdependentModel(
        sys1=_system_from_dict(_require(doc, "system1", "top level"), "system1"),
        sys2=_system_from_dict(_require(doc, "system2", "top level"), "system2"),
        part1=_partition_from_dict(_require(doc, "partition1", "top level"), "partition1"),
        part2=_partition_from_dict(_require(doc, "partition2", "top level"), "partition2"),
        rates1=RateFamily(_matrix_list(_require(doc, "rates1", "top level"), "rates1")),
        rates2=RateFamily(_matrix_list(_require(doc, "rates2", "top level"), "rates2")),
        obs1=ObservationModel(_matrix_list(_require(doc, "obs1", "top level"), "obs1")),
        obs2=ObservationModel(_matrix_list(_require(doc, "obs2", "top level"), "obs2")),
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


def _gain_table(entries: list) -> dict | None:
    """The gains keyed (system, observation, (region1, region2)), their
    indices type-tested in one pass and their G matrices read as one
    stack, or None when a whole-stack test fails or a key repeats."""
    if _types(entries) != {dict}:
        return None
    try:
        *index, nodes = zip(*map(_GAIN_FIELDS, entries))
    except KeyError:
        return None
    if _types(_flat(index)) != {int}:
        return None
    matrices = _stacked(list(nodes))
    if matrices is None:
        return None
    system, obs, m1, m2 = index
    gains = dict(zip(zip(system, obs, zip(m1, m2)), matrices))
    return gains if len(gains) == len(entries) else None


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
    gains = _gain_table(entries)
    if gains is None:
        gains = {}
        for idx, entry in enumerate(entries, start=1):
            where = f"gains[{idx}]"
            system, obs, m1, m2 = (_integer(entry, k, where) for k in ("system", "observation", "region1", "region2"))
            g = _matrix(_require(entry, "G", where), f"{where}.G")
            key = (system, obs, (m1, m2))
            if key in gains:
                raise ParseError(f"{where}: duplicate gain for {key}")
            gains[key] = g

    # Older files also carry a verdict, which is never read.  Without s,
    # every scaling is 1.
    lyapunov = {}
    cert_node = doc.get("certificate")
    if cert_node is not None:
        if not isinstance(cert_node, dict):
            raise ParseError(f"certificate: expected an object, got {cert_node!r}")
        p_all = _matrix_list(_require(cert_node, "P", "certificate"), "certificate.P")
        s_all = _scalings(cert_node.get("s", [1.0] * len(p_all)), len(p_all))
        # One P per observation the gains name, system by system.
        counts = {
            k: len({obs for (sys_id, obs, _c) in gains if sys_id == k})
            for k in ((1, 2) if scheme is Scheme.DISTRIBUTED else (0,))
        }
        if sum(counts.values()) != len(p_all):
            named = " and ".join(f"{n} for system {k}" for k, n in counts.items())
            raise ParseError(
                f"certificate.P: wrong number of matrices: {len(p_all)} given, "
                f"one per observation the gains name: {named}"
            )
        cursor = 0
        for k, n in counts.items():
            lyapunov[k] = Lyapunov(p_all[cursor : cursor + n], s_all[cursor : cursor + n])
            cursor += n
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
