"""Workload process: runs one workload's ``mjls`` CLI calls in-process.

Started by ``run.py``, never by hand. Two modes:

    worker.py setup PLAN         time import, model and bank loading
    worker.py run PLAN RESULT    run whole passes over the plan's calls

The plan is a JSON file written by ``run.py``. In ``run`` mode the worker
repeats whole passes over the call list for ``seconds``, with
the speed probe (probe.py) sampling in the background. With ``trace`` set it
runs one warm-up pass, untraced passes for half the time, then wraps the
public functions of the package's modules (from outside, by rebinding module
attributes) and runs traced passes for the other half. Spans are kept in memory and written with
the result when the worker ends.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import probe

ROOT = Path(__file__).resolve().parent.parent

# Public functions that get a span, by module. Every binding of the same
# function object in any mjls module is rebound, so calls between modules
# (for example synthesis -> model.validate) are seen too.
TRACED = {
    "cli": ("main",),
    "fileio": ("load_model", "load_bank", "save_bank", "write_trace_csv", "save_report"),
    "model": ("validate", "compose_integrated"),
    "synthesis": ("build_distributed", "build_centralized", "recover_gains",
                  "check_corollary", "certify_gains"),
    "lmi": ("solve_feasibility",),
    "sim": ("simulate", "estimate_stability"),
}


def import_mjls():
    src = ROOT / "src"
    if not (src / "mjls" / "__init__.py").is_file():
        raise SystemExit(f"no mjls package under {src}")
    sys.path.insert(0, str(src))
    import mjls.cli

    return mjls


class Tracer:
    """Spans around calls, kept in memory: name, start, end, parent, attrs."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_attrs(name, args, kwargs, result))
            return result

        return traced

    def install(self, mjls) -> None:
        modules = [m for n, m in sys.modules.items() if n == "mjls" or n.startswith("mjls.")]
        for mod_name, names in TRACED.items():
            mod = getattr(mjls, mod_name)
            for name in names:
                original = getattr(mod, name)
                wrapper = self.wrap(f"{mod_name}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


def _attrs(name, args, kwargs, result) -> dict:
    """Counts recorded at the span: work done by the call."""
    if name == "lmi.solve_feasibility":
        problem = args[0] if args else kwargs["problem"]
        coeff_bytes = sum(m.coeffs.nbytes for m in list(problem.neg) + list(problem.pos))
        return {"iterations": result.iterations, "coeff_bytes": coeff_bytes}
    if name == "sim.simulate":
        return {"steps": len(result) - 1}
    if name == "sim.estimate_stability":
        return {"runs": result.runs}
    if name == "fileio.write_trace_csv":
        return {"bytes": os.path.getsize(args[0])}
    return {}


def blas_info() -> dict:
    """OpenBLAS build string and thread count, read from the loaded library."""
    info = {"openblas": "unknown", "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"openblas": config().decode(), "blas_threads": threads()}
    return info


def do_setup(plan: dict) -> None:
    with probe.Sampler() as sampler:
        start = time.perf_counter()  # numpy and mjls are not imported yet
        mjls = import_mjls()
        for path in plan["setup"]["models"]:
            model = mjls.fileio.load_model(path)
            if mjls.model.validate(model):
                raise SystemExit(f"{path}: model failed validation")
        for path in plan["setup"]["banks"]:
            mjls.fileio.load_bank(path)
        wall = time.perf_counter() - start
    net = wall - sum(d for _, d in sampler.samples)
    print(json.dumps({"wall_s": net, "setup_s": probe.scale(net, sampler.samples)}))


def run_pass(cli_module, calls: list[dict], out_dir: Path) -> list[dict]:
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for call in calls:
        argv = [a.replace("{out}", str(out_dir)) for a in call["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = cli_module.main(argv)
            end = time.perf_counter()
        records.append({"rc": rc, "start": start, "end": end, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return records


def fits(budget: float):
    """Yields once per pass: always once, then while one more pass of the
    longest length seen so far still ends within ``budget`` seconds."""
    start = last = time.perf_counter()
    longest = 0.0
    while True:
        yield
        now = time.perf_counter()
        longest = max(longest, now - last)
        last = now
        if now + longest - start > budget:
            return


def do_run(plan: dict, result_path: Path) -> None:
    mjls = import_mjls()
    import numpy

    seconds = plan["seconds"]
    out_root = Path(plan["out_dir"])
    tracer = Tracer()
    passes = []
    budget = seconds / 2 if plan["trace"] else seconds
    with probe.Sampler() as sampler:
        if plan["trace"]:
            # The first pass pays one-off costs (page faults, first use of
            # numpy paths) that would otherwise count against the untraced side.
            records = run_pass(mjls.cli, plan["calls"], out_root / "pass0")
            passes.append({"phase": "warmup", "calls": records})
        for _ in fits(budget):
            records = run_pass(mjls.cli, plan["calls"], out_root / f"pass{len(passes)}")
            passes.append({"phase": "untraced", "calls": records})
        if plan["trace"]:
            tracer.install(mjls)
            for _ in fits(budget):
                tracer.spans = []
                records = run_pass(mjls.cli, plan["calls"], out_root / f"pass{len(passes)}")
                passes.append({"phase": "traced", "calls": records, "spans": tracer.spans})
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **blas_info(),
    }
    result = {
        "passes": passes,
        "probes": sampler.samples,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    result_path.write_text(json.dumps(result))


def main(argv: list[str]) -> None:
    mode, plan_path = argv[0], Path(argv[1])
    plan = json.loads(plan_path.read_text())
    if mode == "setup":
        do_setup(plan)
    elif mode == "run":
        do_run(plan, Path(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
