"""The benchmark's tracer (``perfbench/worker.py``) rebinds the public mjls
functions named in its ``TRACED`` table and reads counts off their arguments
and results (``_attrs``), so ``perfbench/run.py --trace 1`` breaks when one
of them is renamed or removed.  The table is read as text; the worker is
never imported.  The benchmark's fixed bank files must stay readable, and
their candidates must certify without a search."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from mjls.fileio import load_bank, load_model
from mjls.lmi import solve_feasibility
from mjls.model import block_diag, compose_integrated, mode_pairs
from mjls.sim import SimConfig, estimate_stability, simulate
from mjls.synthesis import Scheme, build_distributed, certify_gains, check_bank, check_corollary

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKER = PERFBENCH / "worker.py"


def traced_names() -> list[tuple[str, str]]:
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            table = ast.literal_eval(node.value)
            return [(module, name) for module, names in table.items() for name in names]
    raise AssertionError(f"no TRACED table in {WORKER}")


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_is_a_function(module, name):
    assert inspect.isfunction(getattr(importlib.import_module(f"mjls.{module}"), name, None))


def test_traced_call_attributes(demo, demo_bank):
    # What _attrs reads from lmi.solve_feasibility, sim.simulate and
    # sim.estimate_stability calls.
    problem, _ = build_distributed(demo)
    maps = list(problem.neg) + list(problem.pos)
    assert all(isinstance(m.coeffs, np.ndarray) for m in maps)
    assert sum(m.coeffs.nbytes for m in maps) > 0
    # coeff_bytes counts the triples the solver reads: one value per nonzero.
    for m in maps:
        assert m.coeffs.ndim == m.var_idx.ndim == m.entries.ndim == 1
        assert len(m.coeffs) == len(m.var_idx) == len(m.entries)
        assert m.coeffs.dtype == np.float64
    assert solve_feasibility(problem, 3).iterations == 3
    config = SimConfig(dt=1e-3, horizon=0.01)
    x1, x2 = [1.0, 0.0], [0.0, 0.0, 1.0]
    assert len(simulate(demo, demo_bank, config, x1, x2)) - 1 == 10
    assert estimate_stability(demo, demo_bank, config, 2, x1, x2).runs == 2


@pytest.mark.parametrize("bank_file, model_file", [
    ("bank_distributed.json", "demo_model.json"),
    ("bank_centralized.json", "demo_model.json"),
    ("bank_single_region.json", "single_region_model.json"),
])
def test_committed_bank_certifies_its_own_candidate(bank_file, model_file):
    # These files carry the legacy margins, delta and certified, which the
    # loader ignores.  A candidate that certifies comes back as the P checked.
    path = PERFBENCH / "data" / bank_file
    assert {"margins", "delta", "certified"} <= set(json.loads(path.read_text())["certificate"])
    model, bank = load_model(PERFBENCH / "data" / model_file), load_bank(path)
    if bank.scheme is Scheme.DISTRIBUTED:
        cert = check_corollary(model, bank)
        lyap1, lyap2 = bank.lyapunov[1], bank.lyapunov[2]
        stored = [block_diag(lyap1.p_matrices[i1 - 1], lyap2.p_matrices[i2 - 1]) for i1, i2 in mode_pairs(model)]
    else:
        cert = certify_gains(compose_integrated(model), check_bank(model, bank))
        stored = bank.lyapunov[0].p_matrices
    assert cert.certified
    assert all(np.array_equal(p, q) for p, q in zip(cert.p_matrices, stored, strict=True))
