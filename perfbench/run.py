"""Benchmark of the four mjls verbs, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload synth-distributed --seed 1 --seconds 24 --trace 0

Each workload is a fixed list of ``mjls`` CLI calls that covers all four
verbs, with one verb scaled up (see README.md). A fresh worker process makes
the calls in-process through ``mjls.cli.main(argv)`` and repeats whole passes
over the list for ``--seconds``. With ``--trace 0`` the last line of output is
a JSON object with the end-to-end metrics, taken over all passes and scaled to
a reference speed by the probe in probe.py; with
``--trace 1`` the worker also runs traced passes and the metrics are the
per-layer self times and counts. Every output the program writes is checked by
``checks.py``, which never calls the program, and every check must reject a
corrupted copy of an output. The seed makes the initial states and the
simulation seeds handed to the program; nothing else depends on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
RUN_DIR = ROOT / ".perfbench_run"

DT = 0.001
POLICY = "periodic:0.001"
DECAY = 1.5  # the fixed banks' synthesis decay rate
SETUP_SAMPLES = 5
ORACLE_SIGMAS = 5.0
WORKER_TIMEOUT_S = 150  # the whole run must end within 180 s
PROBE_MIN = 5  # probe samples a call is scaled by, at least

DEMO = DATA / "demo_model.json"
EXAMPLE = DATA / "example_model.json"
SINGLE = DATA / "single_region_model.json"
BANK_DIST = DATA / "bank_distributed.json"
BANK_CENT = DATA / "bank_centralized.json"
BANK_SINGLE = DATA / "bank_single_region.json"

# solve_feasibility returns ITERATION_LIMIT here: the best violation keeps
# creeping toward delta, so the stagnation test never fires and the verdict
# rests on the iteration cap instead of on a certificate of infeasibility.
PUBLISHED_FAULT = (
    "published-example synthesis hits the 20000-iteration cap (exit 3): "
    "solve_feasibility decides on its iteration cap because the violation creeps "
    "toward delta and the stagnation window (lmi._STAGNATION_WINDOW) never fires"
)

WORKLOADS = ("synth-distributed", "synth-centralized", "simulate-trace", "montecarlo")

END_TO_END = {
    "setup_s": "s",
    "synthesize_s": "s",
    "certify_s": "s",
    "trace_rows_per_s": "rows/s",
    "mc_runs_per_s": "runs/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "fileio.load_model_s": "s",
    "fileio.load_bank_s": "s",
    "fileio.save_bank_s": "s",
    "fileio.write_trace_csv_s": "s",
    "fileio.trace_mb": "MB",
    "fileio.save_report_s": "s",
    "model.validate_s": "s",
    "model.compose_integrated_s": "s",
    "synthesis.build_s": "s",
    "synthesis.recover_gains_s": "s",
    "synthesis.check_corollary_s": "s",
    "synthesis.certify_gains_s": "s",
    "synthesis.certify_iterations": "count",
    "lmi.solve_s": "s",
    "lmi.iterations": "count",
    "lmi.ms_per_iter": "ms",
    "lmi.coeff_mb_per_iter": "MB/iter",
    "sim.simulate_s": "s",
    "sim.us_per_step": "us",
    "sim.estimate_stability_s": "s",
    "sim.ms_per_run": "ms",
    "sim.jumps": "count",
    "sim.region_changes": "count",
    "sim.obs_changes": "count",
    "trace.overhead_s": "s",
}

VERB_METRIC = {
    "synthesize": "synthesize_s",
    "certify": "certify_s",
    "simulate": "trace_rows_per_s",
    "montecarlo": "mc_runs_per_s",
}

# Span name -> per-layer metric that takes the span's self time.
SELF_TIME_OF = {
    "cli.main": "cli.self_s",
    "fileio.load_model": "fileio.load_model_s",
    "fileio.load_bank": "fileio.load_bank_s",
    "fileio.save_bank": "fileio.save_bank_s",
    "fileio.write_trace_csv": "fileio.write_trace_csv_s",
    "fileio.save_report": "fileio.save_report_s",
    "model.validate": "model.validate_s",
    "model.compose_integrated": "model.compose_integrated_s",
    "synthesis.build_distributed": "synthesis.build_s",
    "synthesis.build_centralized": "synthesis.build_s",
    "synthesis.recover_gains": "synthesis.recover_gains_s",
    "synthesis.check_corollary": "synthesis.check_corollary_s",
    "sim.simulate": "sim.simulate_s",
    "sim.estimate_stability": "sim.estimate_stability_s",
}


# --- inputs -----------------------------------------------------------------

def draw_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A state in the outermost shells: |x|^2 uniform in [20, 100].

    Every partition threshold of the demo model lies below 20, so each
    trajectory starts in the outermost region and crosses the inner ones as it
    contracts.
    """
    direction = rng.normal(size=dim)
    return direction / np.linalg.norm(direction) * math.sqrt(rng.uniform(20.0, 100.0))


def vec_arg(flag: str, x: np.ndarray) -> str:
    return f"--{flag}=" + ",".join(repr(float(v)) for v in x)


class Plan:
    """The workload's calls, each with what its output is checked against.

    Calls come in groups, one verb each, and a group can be repeated within a
    pass. A repetition is a round; every round repeats the same inputs.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.calls: list[dict] = []
        self._made = 0
        self.models = {str(DEMO), str(SINGLE)}
        self.banks = {str(BANK_DIST), str(BANK_CENT), str(BANK_SINGLE)}

    def add(self, groups: list[tuple[list[dict], int]]) -> None:
        """Lay out (group, rounds) pairs as one pass, each group's rounds spread
        evenly over it, so every verb is measured across the whole pass."""
        slots = []
        for g_index, (group, rounds) in enumerate(groups):
            for r in range(rounds):
                slots.append(((r + 0.5) / rounds, g_index, r, group))
        for _, _, r, group in sorted(slots, key=lambda slot: slot[:3]):
            for call in group:
                tag = f"{call['name']}-r{r}"
                self.calls.append({
                    **call,
                    "argv": [a.replace("{name}", tag) for a in call["argv"]],
                    **({"out": call["out"].replace("{name}", tag)} if "out" in call else {}),
                    "round": r,
                })

    def _call(self, verb: str, argv: list[str], **meta) -> dict:
        self._made += 1
        return {"verb": verb, "name": f"{verb}{self._made}", "argv": [verb, *argv], **meta}

    def synthesize(self, model: Path, scheme: str, decay: float | None) -> dict:
        flags = ["--scheme", scheme] + (["--decay", repr(decay)] if decay is not None else [])
        self.models.add(str(model))
        return self._call("synthesize", [str(model), *flags, "--out", "{out}/{name}.json"],
                          model=str(model), decay=decay or 0.0, out="{out}/{name}.json",
                          published=model == EXAMPLE)

    def certify(self, bank: Path) -> dict:
        return self._call("certify", [str(DEMO), str(bank)], model=str(DEMO), bank=str(bank))

    def _seeded(self, verb, model, bank, extra, horizon, units, suffix) -> dict:
        x1, x2 = draw_state(self.rng, 2), draw_state(self.rng, 3)
        seed = int(self.rng.integers(2**31))
        out = "{out}/{name}" + suffix
        argv = [str(model), str(bank), *extra, vec_arg("x1", x1), vec_arg("x2", x2),
                "--horizon", repr(horizon), "--dt", repr(DT), "--obs-policy", POLICY,
                "--seed", str(seed), "--out", out]
        return self._call(verb, argv, model=str(model), bank=str(bank), horizon=horizon,
                          x1=x1.tolist(), x2=x2.tolist(), out=out, units=units)

    def simulate(self, bank: Path, horizon: float) -> dict:
        return self._seeded("simulate", DEMO, bank, [], horizon, int(round(horizon / DT)) + 1, ".csv")

    def montecarlo(self, model: Path, bank: Path, runs: int, horizon: float) -> dict:
        return self._seeded("montecarlo", model, bank, ["--runs", str(runs)], horizon, runs, ".json")


def build_plan(workload: str, seed: int) -> Plan:
    """Every workload runs all four verbs; one of them is scaled up.

    Short groups are repeated within a pass, so each verb's metric rests on
    many rounds even when one pass takes most of the run.
    """
    plan = Plan(seed)
    synth = workload.startswith("synth-")
    if workload == "synth-distributed":
        synthesize = ([plan.synthesize(DEMO, "distributed", d) for d in (0.0, 0.5, 1.0, 1.5, 2.0)]
                      + [plan.synthesize(EXAMPLE, "distributed", None)], 1)  # default flags
    elif workload == "synth-centralized":
        synthesize = ([plan.synthesize(DEMO, "centralized", 1.5)], 1)
    else:
        synthesize = ([plan.synthesize(DEMO, "distributed", 1.5)], 2)
    certify = ([plan.certify(BANK_DIST), plan.certify(BANK_CENT)], 12 if synth else 8)
    # Only the distributed bank is simulated: the simulator drops the cross
    # blocks of a centralized bank's gains, so its traces fail the u = G x
    # check on some initial states and not on others.
    if workload == "simulate-trace":
        simulate = ([plan.simulate(BANK_DIST, 10.0), plan.simulate(BANK_DIST, 10.0)], 2)
    else:
        simulate = ([plan.simulate(BANK_DIST, 1.0), plan.simulate(BANK_DIST, 1.0)], 10 if synth else 6)
    if workload == "montecarlo":
        montecarlo = ([plan.montecarlo(DEMO, BANK_DIST, 3, 10.0), plan.montecarlo(SINGLE, BANK_SINGLE, 48, 0.1)], 3)
    else:
        montecarlo = ([plan.montecarlo(SINGLE, BANK_SINGLE, 32, 0.1)], 8 if synth else 4)
    plan.add([synthesize, certify, simulate, montecarlo])
    return plan


# --- checks -----------------------------------------------------------------

class Checker:
    """Checks each distinct output once; caches models, banks and oracles."""

    def __init__(self):
        self._models: dict = {}
        self._docs: dict = {}
        self._oracles: dict = {}
        self.seen: dict[str, str] = {}  # call name -> sha256 of its first output
        self.counts: dict[str, dict] = {}  # simulate call name -> changes in its trace
        self.oracle_gaps: list[float] = []
        self.samples: dict = {}  # one output of each kind, for the corruption tests

    def model(self, path) -> checks.Model:
        if path not in self._models:
            self._models[path] = checks.Model(checks.load_json(path))
        return self._models[path]

    def doc(self, path) -> dict:
        if path not in self._docs:
            self._docs[path] = checks.load_json(path)
        return self._docs[path]

    def oracle(self, call: dict) -> tuple[float, float]:
        key = call["name"]
        if key not in self._oracles:
            self._oracles[key] = checks.exact_functional(
                self.model(call["model"]), self.doc(call["bank"]),
                np.array(call["x1"]), np.array(call["x2"]), DT, call["horizon"])
        return self._oracles[key]

    def check_call(self, call: dict, record: dict, out_dir: Path) -> str:
        """'ok', or 'failed' for the published example's named fault."""
        verb, rc = call["verb"], record["rc"]
        out = Path(call["out"].replace("{out}", str(out_dir))) if "out" in call else None
        if verb == "synthesize" and call["published"]:
            if out.exists():
                raise checks.CheckFailed("published example: a bank was written")
            if rc == 2:
                return "ok"
            if rc == 3:
                return "failed"
            raise checks.CheckFailed(f"published example: exit {rc}; only 2 (infeasible) or 3 can be right")
        if rc != 0:
            raise checks.CheckFailed(f"exit {rc}: {record['stderr'].strip()[-300:]}")
        if verb == "certify":
            lines = record["stdout"].splitlines()
            worst = float(next(l for l in lines if l.startswith("worst:")).split()[1])
            if "certified: yes" not in lines or not worst < 0.0:
                raise checks.CheckFailed("certify did not certify a bank whose certificate checks")
            return "ok"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if call["name"] in self.seen:
            if digest != self.seen[call["name"]]:
                raise checks.CheckFailed(f"{out.name} differs from the first pass's output for the same inputs")
            return "ok"
        self.seen[call["name"]] = digest
        if verb == "synthesize":
            bank = checks.load_json(out)
            checks.check_bank(self.model(call["model"]), bank, decay=call["decay"])
            self.samples.setdefault("bank", (call, bank))
        elif verb == "simulate":
            tr = checks.read_trace(out)
            checks.check_trace(self.model(call["model"]), self.doc(call["bank"]), tr, DT,
                               call["horizon"], np.array(call["x1"]), np.array(call["x2"]))
            self.samples.setdefault("trace", (call, tr))
            self.counts[call["name"]] = checks.trace_counts(tr)
        elif verb == "montecarlo":
            report = checks.load_json(out)
            checks.check_report(report, call["units"])
            if self.model(call["model"]).regions == (1, 1):
                mean, sd = self.oracle(call)
                checks.check_oracle(report, mean, sd, ORACLE_SIGMAS)
                self.oracle_gaps.append((report["mean"] - mean) / (sd / math.sqrt(report["runs"])))
                self.samples.setdefault("report", (call, report))
        return "ok"

    def corruption_tests(self) -> list[str]:
        """Each check must reject a corrupted copy of a real output."""
        results = []

        def expect_reject(label, fn):
            try:
                fn()
            except checks.CheckFailed as exc:
                results.append(f"rejected {label}: {exc}")
                return
            raise checks.CheckFailed(f"check accepted {label}")

        call, bank = self.samples["bank"]
        flipped = json.loads(json.dumps(bank))
        flipped["gains"][0]["G"] = (-np.array(flipped["gains"][0]["G"])).tolist()
        expect_reject("a bank with one gain's sign flipped",
                      lambda: checks.check_bank(self.model(call["model"]), flipped, decay=call["decay"]))

        call, tr = self.samples["trace"]
        bent = {k: v.copy() for k, v in tr.items()}
        row = len(bent["t"]) // 2
        bent["x1"][row, 0] += 1e-3 * np.linalg.norm(bent["x1"][row])
        expect_reject("a trace with one state entry perturbed",
                      lambda: checks.check_trace(self.model(call["model"]), self.doc(call["bank"]), bent,
                                                 DT, call["horizon"], np.array(call["x1"]), np.array(call["x2"])))

        call, report = self.samples["report"]
        mean, sd = self.oracle(call)
        shift = mean + 1.01 * ORACLE_SIGMAS * sd / math.sqrt(report["runs"]) - report["mean"]
        moved = dict(report, functional_per_run=[f + shift for f in report["functional_per_run"]],
                     mean=report["mean"] + shift)
        checks.check_report(moved, call["units"])  # still self-consistent
        expect_reject("a Monte Carlo mean moved past the oracle's bound",
                      lambda: checks.check_oracle(moved, mean, sd, ORACLE_SIGMAS))

        published = {"verb": "synthesize", "published": True, "out": "{out}/none.json"}
        expect_reject("an exit-0 verdict on the published example",
                      lambda: self.check_call(published, {"rc": 0, "stdout": "", "stderr": ""}, HERE))
        return results


# --- metrics ----------------------------------------------------------------

def net_wall(rec: dict, probes: list) -> float:
    """Wall time of one call, less the probe samples taken inside it."""
    inside = sum(d for start, d in probes if rec["start"] <= start and start + d <= rec["end"])
    return rec["end"] - rec["start"] - inside


def scaled_wall(rec: dict, probes: list) -> float:
    """Net wall time of one call at reference speed.

    The speed comes from the probe samples taken during the call, or from the
    PROBE_MIN samples nearest to it when the call is short.
    """
    near = [pr for pr in probes if rec["start"] <= pr[0] <= rec["end"]]
    if len(near) < PROBE_MIN:
        mid = 0.5 * (rec["start"] + rec["end"])
        near = sorted(probes, key=lambda pr: abs(pr[0] - mid))[:PROBE_MIN]
    return probe.scale(net_wall(rec, probes), near)


def verb_metrics(plan: Plan, passes: list[dict], probes: list) -> tuple[dict, dict]:
    """Each verb's metric over all its rounds in all passes.

    Times are the mean time of a round, rates the total work over the total
    time: both weigh every measured second alike, which is steadier on a noisy
    machine than a median of rounds. Returns the values at reference speed and
    the unscaled wall-clock ones.
    """
    totals: dict[str, list] = {}
    rounds: set = set()
    for p_index, p in enumerate(passes):
        for call, rec in zip(plan.calls, p["calls"]):
            t = totals.setdefault(call["verb"], [0.0, 0.0, 0])
            t[0] += scaled_wall(rec, probes)
            t[1] += net_wall(rec, probes)
            t[2] += call.get("units", 0)
            rounds.add((call["verb"], p_index, call["round"]))
    scaled, raw = {}, {}
    for verb, (scaled_time, raw_time, units) in totals.items():
        n_rounds = sum(1 for r in rounds if r[0] == verb)
        for out, t in ((scaled, scaled_time), (raw, raw_time)):
            out[VERB_METRIC[verb]] = t / n_rounds if verb in ("synthesize", "certify") else units / t
    return scaled, raw


def layer_metrics(spans: list[dict], probes: list) -> dict:
    """Self times and counts of one traced pass.

    A span's self time is its duration less its child spans and less the
    probe samples that ran inside it and in none of its children.
    """
    out = {name: 0.0 for name in PER_LAYER}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    starts = np.array([s["start"] for s in spans])
    ends = np.array([s["end"] for s in spans])
    for p_start, p_time in probes:
        holders = np.flatnonzero((starts <= p_start) & (ends >= p_start + p_time))
        if len(holders):
            child_time[holders[np.argmax(starts[holders])]] += p_time

    def under_certify(s):
        while s["parent"] is not None:
            s = spans[s["parent"]]
            if s["name"] == "synthesis.certify_gains":
                return True
        return False

    steps = runs = 0
    solve_iters = solve_bytes = 0.0
    mc_time = 0.0
    for s, children in zip(spans, child_time):
        own = s["end"] - s["start"] - children
        name = s["name"]
        if name in SELF_TIME_OF:
            out[SELF_TIME_OF[name]] += own
        if name == "sim.simulate":
            steps += s["steps"]
        elif name == "sim.estimate_stability":
            runs += s["runs"]
            mc_time += s["end"] - s["start"]
        elif name == "fileio.write_trace_csv":
            out["fileio.trace_mb"] += s["bytes"] / 1e6
        elif name == "synthesis.certify_gains" and not under_certify(s):
            # The Lyapunov search, its solver call included.
            out["synthesis.certify_gains_s"] += s["end"] - s["start"]
        elif name == "lmi.solve_feasibility":
            if under_certify(s):
                out["synthesis.certify_iterations"] += s["iterations"]
            else:
                out["lmi.solve_s"] += own
                out["lmi.iterations"] += s["iterations"]
                solve_iters += s["iterations"]
                # Computed, not measured: each iteration reads every
                # coefficient block twice (evaluation and affine projection).
                solve_bytes += s["iterations"] * 2 * s["coeff_bytes"]
    out["lmi.ms_per_iter"] = 1e3 * out["lmi.solve_s"] / solve_iters
    out["lmi.coeff_mb_per_iter"] = solve_bytes / solve_iters / 1e6
    out["sim.us_per_step"] = 1e6 * out["sim.simulate_s"] / steps
    out["sim.ms_per_run"] = 1e3 * mc_time / runs
    return out


# --- orchestration ----------------------------------------------------------

def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def worker(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"worker {args[0]} failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "mjls" / "__init__.py").is_file():
        print(f"error: no mjls package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    checker = Checker()
    demo = checker.model(str(DEMO))
    checks.check_bank(demo, checker.doc(str(BANK_DIST)), decay=DECAY)
    checks.check_bank(demo, checker.doc(str(BANK_CENT)), decay=DECAY)
    checks.check_bank(checker.model(str(SINGLE)), checker.doc(str(BANK_SINGLE)), decay=DECAY)
    print("fixed inputs: 3 banks pass the certificate check")

    plan = build_plan(args.workload, args.seed)
    out_dir = RUN_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    plan_path = out_dir / "plan.json"
    plan_path.write_text(json.dumps({
        "calls": plan.calls,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "out_dir": str(out_dir),
        "setup": {"models": sorted(plan.models), "banks": sorted(plan.banks)},
    }))
    env = dict(os.environ)
    # One BLAS thread (nproc allows more): at these sizes a second thread
    # buys nothing and only adds contention on a shared machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("MJLS_LOG", None)

    try:
        setup = []
        for i in range(SETUP_SAMPLES + 1):  # the first run fills the bytecode cache
            proc = worker(["setup", str(plan_path)], env, 60)
            if i:
                setup.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        result_path = out_dir / "result.json"
        worker(["run", str(plan_path), str(result_path)], env, WORKER_TIMEOUT_S)
        result = json.loads(result_path.read_text())

        correct = True
        attempted = failed = 0
        for p_index, p in enumerate(result["passes"]):
            for call, rec in zip(plan.calls, p["calls"]):
                attempted += 1
                try:
                    verdict = checker.check_call(call, rec, out_dir / f"pass{p_index}")
                except checks.CheckFailed as exc:
                    correct = False
                    print(f"CHECK FAILED pass {p_index} {call['name']}: {' '.join(call['argv'][:3])}: {exc}")
                    continue
                if verdict == "failed":
                    failed += 1
        try:
            for line in checker.corruption_tests():
                print(line)
        except checks.CheckFailed as exc:
            correct = False
            print(f"CHECK FAILED corruption test: {exc}")
        if failed:
            print(f"failed operations: {failed} ({PUBLISHED_FAULT})")
        if checker.oracle_gaps:
            print("Monte Carlo vs exact expectation, in exact standard errors: "
                  + ", ".join(f"{g:+.2f}" for g in checker.oracle_gaps))

        untraced = [p for p in result["passes"] if p["phase"] == "untraced"]
        if args.trace:
            traced = [p for p in result["passes"] if p["phase"] == "traced"]
            per_pass = [layer_metrics(p["spans"], result["probes"]) for p in traced]
            values = {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER}
            for key in ("jumps", "region_changes", "obs_changes"):
                values[f"sim.{key}"] = sum(c[key] for c in checker.counts.values())

            def pass_total(p):
                return sum(scaled_wall(r, result["probes"]) for r in p["calls"])

            values["trace.overhead_s"] = (statistics.median(map(pass_total, traced))
                                          - statistics.median(map(pass_total, untraced)))
            units = PER_LAYER
            (RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps([p["spans"] for p in traced]))
        else:
            values, raw_values = verb_metrics(plan, untraced, result["probes"])
            values["setup_s"] = statistics.median(s["setup_s"] for s in setup)
            raw_values["setup_s"] = statistics.median(s["wall_s"] for s in setup)
            print("unscaled wall clock: " + ", ".join(
                f"{name} = {v:.6g}" for name, v in raw_values.items()))
            values["peak_rss_mib"] = result["peak_rss_mib"]
            units = END_TO_END

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "passes": len(untraced) if not args.trace else f"1 warm-up + {len(untraced)} untraced + {len(traced)} traced",
            "operations_per_pass": len(plan.calls),
            "attempted": attempted,
            "failed": failed,
            "commit": read_commit(),
            **result["env"],
        }
        print("run: " + json.dumps(record))
        for name, unit in units.items():
            print(f"{name} = {values[name]:.6g} {unit}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
