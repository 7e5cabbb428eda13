"""Command-line front end: synthesize, certify, simulate, montecarlo.

Exit codes: 0 success/certified, 1 input error, 2 infeasible or
uncertified, 3 iteration limit.  A success exit always rests on a freshly
recomputed certificate margin check, never on solver-internal state.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .errors import InvalidModel, MjlsError
from .fileio import (
    ParseError,
    load_bank,
    load_model,
    save_bank,
    save_report,
    write_trace_csv,
)
from .lmi import LmiProblem, LmiSolution, SolveStatus
from .model import compose_integrated
from .sim import OnChange, Periodic, SimConfig, estimate_stability, simulate
from .synthesis import (
    PSI_MARGIN,
    Scheme,
    certify_gains,
    check_bank,
    check_corollary,
    synthesize,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_ITERATION_LIMIT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mjls",
        description="Controller synthesis and simulation for two interdependent jump linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="solve the synthesis feasibility problem and write a gain bank")
    p_syn.add_argument("model", help="model JSON file")
    p_syn.add_argument("--scheme", required=True, choices=[s.value for s in Scheme])
    p_syn.add_argument("--max-iter", type=int, default=20000)
    p_syn.add_argument(
        "--decay",
        type=float,
        default=0.0,
        help="demand a closed-loop contraction rate by shifting the dynamics (default 0)",
    )
    p_syn.add_argument("--out", required=True, help="gain bank output path")
    p_syn.add_argument("--delta", type=float, default=1e-6, help="margin for definiteness constraints (default 1e-6)")

    p_cert = sub.add_parser("certify", help="check a gain bank against a model")
    p_cert.add_argument("model")
    p_cert.add_argument("gains")
    p_cert.add_argument("--max-iter", type=int, default=20000)
    p_cert.add_argument(
        "--delta",
        type=float,
        default=None,
        help=f"margin the closed-loop forms must clear (default {PSI_MARGIN:g})",
    )

    p_sim = sub.add_parser("simulate", help="run one closed-loop trajectory and write a CSV trace")
    p_sim.add_argument("model")
    p_sim.add_argument("gains")
    p_sim.add_argument("--x1", required=True, help="comma-separated initial state of system 1")
    p_sim.add_argument("--x2", required=True, help="comma-separated initial state of system 2")
    p_sim.add_argument("--horizon", type=float, default=10.0)
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument(
        "--obs-policy",
        help="'onchange' or 'periodic:<seconds>' (default: periodic:<dt>, a refresh every step)",
    )
    p_sim.add_argument("--out", required=True, help="trace CSV output path")
    p_sim.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    p_mc = sub.add_parser("montecarlo", help="estimate the stability functional over repeated runs")
    p_mc.add_argument("model")
    p_mc.add_argument("gains")
    p_mc.add_argument("--runs", type=int, required=True)
    p_mc.add_argument("--x1", required=True)
    p_mc.add_argument("--x2", required=True)
    p_mc.add_argument("--horizon", type=float, default=10.0)
    p_mc.add_argument("--dt", type=float, default=1e-3)
    p_mc.add_argument("--obs-policy", help="as for simulate (default: periodic:<dt>)")
    p_mc.add_argument("--out", required=True, help="report JSON output path")
    p_mc.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    return parser


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ParseError(f"{what}: expected comma-separated numbers, got {text!r}") from None
    if not np.all(np.isfinite(vec)):
        raise ParseError(f"{what}: entries must be finite, got {text!r}")
    return vec


def _parse_policy(text: str):
    if text == "onchange":
        return OnChange()
    if text.startswith("periodic:"):
        try:
            return Periodic(float(text.split(":", 1)[1]))
        except ValueError:
            raise ParseError(f"--obs-policy: bad period in {text!r}") from None
    raise ParseError(f"--obs-policy: expected 'onchange' or 'periodic:<seconds>', got {text!r}")


def _check_solver_flags(args) -> None:
    """Reject solver settings that no run can honour, before any work."""
    if args.delta is not None and not (0.0 < args.delta < math.inf):
        raise ParseError(f"--delta: must be positive and finite, got {args.delta}")
    if args.max_iter < 1:
        raise ParseError(f"--max-iter: need at least one iteration, got {args.max_iter}")
    if not math.isfinite(getattr(args, "decay", 0.0)):
        raise ParseError(f"--decay: must be finite, got {args.decay}")


def _check_out(path: str) -> None:
    """Reject an output path that no write can honour, before any work."""
    if Path(path).is_dir():
        raise ParseError(f"--out: {path} is a directory")
    if not Path(path).parent.is_dir():
        raise ParseError(f"--out: directory {Path(path).parent} does not exist")


def _binding(problem: LmiProblem, sol: LmiSolution) -> str:
    """The label and extreme eigenvalue of the constraint that misses its
    margin by the most."""
    misses = np.concatenate([sol.neg_margins + sol.delta, sol.delta - sol.pos_margins])
    c = int(np.argmax(misses))
    label = [*problem.neg_labels, *problem.pos_labels][c]
    kind = "max" if c < len(sol.neg_margins) else "min"
    return f"{label}, {kind} eigenvalue {sol.margins[c]:.6e}"


def cmd_synthesize(args) -> int:
    _check_solver_flags(args)
    model = load_model(args.model)
    scheme = Scheme(args.scheme)
    outcome = synthesize(model, scheme, delta=args.delta, max_iter=args.max_iter, decay=args.decay)

    for label, sol in zip(("problem 1", "problem 2"), outcome.solutions):
        print(
            f"{label}: {sol.status.value} after {sol.iterations} iterations, "
            f"worst violation {sol.worst_violation:.3e}"
        )
    if outcome.bank is None:
        for label, sol, problem in zip(("problem 1", "problem 2"), outcome.solutions, outcome.problems):
            if sol.status is not SolveStatus.FEASIBLE:
                print(f"{label}: binding constraint {_binding(problem, sol)}")
        return (
            EXIT_INFEASIBLE
            if outcome.worst_status is SolveStatus.INFEASIBLE
            else EXIT_ITERATION_LIMIT
        )

    bank = outcome.bank
    worst_lmi = max(max(s.neg_margins) for s in outcome.solutions)
    if scheme is Scheme.DISTRIBUTED:
        cert = check_corollary(model, bank, delta=PSI_MARGIN, max_iter=args.max_iter)
    else:
        cert = bank.certificates[0]
    certified = cert.certified and all(c.certified for c in bank.certificates.values())

    save_bank(args.out, bank)
    print(f"gains written: {bank.size} -> {args.out}")
    print(f"worst constraint margin: {worst_lmi:.6e}")
    print(f"worst closed-loop form eigenvalue: {cert.worst:.6e}")
    print(f"certified: {'yes' if certified else 'no'}")
    return EXIT_OK if certified else EXIT_INFEASIBLE


def cmd_certify(args) -> int:
    _check_solver_flags(args)
    model = load_model(args.model)
    bank = load_bank(args.gains)
    # Closed-loop form margins live on the Lyapunov scale, where the default
    # is tighter than synthesize's constraint margin.
    delta = PSI_MARGIN if args.delta is None else args.delta

    if bank.scheme is Scheme.DISTRIBUTED:
        cert = check_corollary(model, bank, delta=delta, max_iter=args.max_iter)
    else:
        integ = compose_integrated(model)  # validates the model before check_bank reads it
        cert = certify_gains(integ, check_bank(model, bank), delta=delta, max_iter=args.max_iter)

    print("closed-loop form max eigenvalues (mode, regions):")
    for key in sorted(cert.psi_max):
        print(f"  mode {key[0]}, cell {key[1]}: {cert.psi_max[key]:+.6e}")
    print(f"worst: {cert.worst:+.6e}")
    print(f"certified: {'yes' if cert.certified else 'no'}")
    return EXIT_OK if cert.certified else EXIT_INFEASIBLE


def _sim_inputs(args):
    model = load_model(args.model)
    bank = load_bank(args.gains)
    x1 = _parse_vector(args.x1, "--x1")
    x2 = _parse_vector(args.x2, "--x2")
    if x1.shape != (model.sys1.state_dim,):
        raise ParseError(f"--x1: expected {model.sys1.state_dim} entries, got {len(x1)}")
    if x2.shape != (model.sys2.state_dim,):
        raise ParseError(f"--x2: expected {model.sys2.state_dim} entries, got {len(x2)}")
    # dt is checked before it becomes the default observation period.
    config = SimConfig(dt=args.dt, horizon=args.horizon, seed=args.seed)
    policy = Periodic(config.dt) if args.obs_policy is None else _parse_policy(args.obs_policy)
    return model, bank, dataclasses.replace(config, obs_policy=policy), x1, x2


def cmd_simulate(args) -> int:
    model, bank, config, x1, x2 = _sim_inputs(args)
    trace = simulate(model, bank, config, x1, x2)
    write_trace_csv(args.out, trace)
    n1 = float(np.sqrt(trace.x1[-1] @ trace.x1[-1]))
    n2 = float(np.sqrt(trace.x2[-1] @ trace.x2[-1]))
    print(f"trace written: {len(trace)} rows -> {args.out}")
    print(f"terminal |x1| = {n1:.6e}, |x2| = {n2:.6e}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    if args.runs < 1:
        raise ParseError("--runs: need at least one run")
    model, bank, config, x1, x2 = _sim_inputs(args)
    report = estimate_stability(model, bank, config, args.runs, x1, x2)
    save_report(args.out, report)
    print(f"report written: {args.runs} runs -> {args.out}")
    print(f"functional mean = {report.mean:.6e} +/- {report.stderr:.6e}")
    print(f"saturation (full vs half horizon): {report.saturation:.3e}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "synthesize": cmd_synthesize,
        "certify": cmd_certify,
        "simulate": cmd_simulate,
        "montecarlo": cmd_montecarlo,
    }[args.command]
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return handler(args)
    except InvalidModel as exc:
        for v in exc.violations:
            print(f"invalid model: {v}", file=sys.stderr)
        count = len(exc.violations)
        print(f"error: {args.model}: model failed validation with {count} violation(s)", file=sys.stderr)
        return EXIT_INPUT
    except (MjlsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())
