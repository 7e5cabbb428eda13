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

from mjls import cli, lmi
from mjls.cli import main
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


def test_traced_call_attributes(monkeypatch, demo, demo_bank):
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
    monkeypatch.setattr(lmi, "_MAX_ITERATIONS", 3)
    assert solve_feasibility(problem).iterations == 3
    config = SimConfig(dt=1e-3, horizon=0.01)
    x1, x2 = [1.0, 0.0], [0.0, 0.0, 1.0]
    assert len(simulate(demo, demo_bank, config, x1, x2)) - 1 == 10
    assert estimate_stability(demo, demo_bank, config, 2, x1, x2).runs == 2


COMMITTED_BANKS = [
    ("bank_distributed.json", "demo_model.json"),
    ("bank_centralized.json", "demo_model.json"),
    ("bank_single_region.json", "single_region_model.json"),
]


@pytest.mark.parametrize("bank_file, model_file", COMMITTED_BANKS)
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


@pytest.mark.parametrize("bank_file, model_file", [b for b in COMMITTED_BANKS if b[0] != "bank_centralized.json"])
def test_check_bank_composes_the_stored_candidate(bank_file, model_file):
    model, bank = load_model(PERFBENCH / "data" / model_file), load_bank(PERFBENCH / "data" / bank_file)
    lyap1, lyap2 = bank.lyapunov[1], bank.lyapunov[2]
    pairs = mode_pairs(model)
    joint = check_bank(model, bank).lyapunov[0]
    stored = [block_diag(lyap1.p_matrices[i1 - 1], lyap2.p_matrices[i2 - 1]) for i1, i2 in pairs]
    assert all(np.array_equal(p, q) for p, q in zip(joint.p_matrices, stored, strict=True))
    assert joint.s_values == tuple(min(lyap1.s_values[i1 - 1], lyap2.s_values[i2 - 1]) for i1, i2 in pairs)


@pytest.mark.parametrize("bank_file, model_file", COMMITTED_BANKS)
def test_cli_certifies_committed_bank(monkeypatch, capsys, bank_file, model_file):
    # ``certify`` runs one path for every scheme: one certify_gains call on
    # the joint bank check_bank returns, candidate included.
    banks = []

    def spy(model, bank, **kwargs):
        banks.append(bank)
        return certify_gains(model, bank, **kwargs)

    monkeypatch.setattr(cli, "certify_gains", spy)
    assert main(["certify", str(PERFBENCH / "data" / model_file), str(PERFBENCH / "data" / bank_file)]) == 0
    assert capsys.readouterr().out.endswith("certified: yes\n")
    assert [(b.scheme is Scheme.DISTRIBUTED, set(b.lyapunov)) for b in banks] == [(False, {0})]
