"""Command-line front end: synthesize, certify, simulate, montecarlo.

Exit codes: 0 success/certified, 1 input or usage error, 2 infeasible or
uncertified, 3 iteration limit.  A success exit always rests on a freshly
recomputed certificate margin check, never on solver-internal state, and an
infeasible synthesis verdict on a checked certificate of the alternative
system, whose bound is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .model import compose_integrated, region_pairs
from .sim import OnChange, Periodic, SimConfig, estimate_stability, simulate
from .synthesis import Scheme, certify_gains, check_bank, synthesize

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_ITERATION_LIMIT = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INPUT, not
    argparse's 2, which this program's exit codes give to an infeasible
    verdict.  Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache  # parsing leaves the parser as it was, so every call of main shares one
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mjls",
        description="Controller synthesis and simulation for two interdependent jump linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="solve the synthesis feasibility problem and write a gain bank")
    p_syn.add_argument("model", help="model JSON file")
    p_syn.add_argument("--scheme", required=True, choices=[s.value for s in Scheme])
    p_syn.add_argument(
        "--decay",
        type=float,
        default=0.0,
        help="demand a closed-loop contraction rate by shifting the dynamics (default 0)",
    )
    p_syn.add_argument("--out", required=True, help="gain bank output path")

    p_cert = sub.add_parser("certify", help="check a gain bank against a model")
    p_cert.add_argument("model")
    p_cert.add_argument("gains")

    # The arguments simulate and montecarlo share.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("model")
    shared.add_argument("gains")
    shared.add_argument("--x1", required=True, help="comma-separated initial state of system 1")
    shared.add_argument("--x2", required=True, help="comma-separated initial state of system 2")
    shared.add_argument("--horizon", type=float, default=10.0)
    shared.add_argument("--dt", type=float, default=1e-3)
    shared.add_argument(
        "--obs-policy",
        help="'onchange' or 'periodic:<seconds>' (default: periodic:<dt>, a refresh every step)",
    )
    shared.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    p_sim = sub.add_parser("simulate", parents=[shared], help="run one closed-loop trajectory and write a CSV trace")
    p_sim.add_argument("--out", required=True, help="trace CSV output path")

    p_mc = sub.add_parser("montecarlo", parents=[shared], help="estimate the stability functional over repeated runs")
    p_mc.add_argument("--runs", type=int, required=True)
    p_mc.add_argument("--out", required=True, help="report JSON output path")

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


def _check_out(path: str) -> None:
    """Reject an output path that no write can honour, before any work."""
    if Path(path).is_dir():
        raise ParseError(f"--out: {path} is a directory")
    if not Path(path).parent.is_dir():
        raise ParseError(f"--out: directory {Path(path).parent} does not exist")


def _binding(problem: LmiProblem, sol: LmiSolution) -> str:
    """The label and extreme eigenvalue of the constraint that misses its
    margin by the most."""
    c = int(np.argmax(sol.misses))
    label = [*problem.neg_labels, *problem.pos_labels][c]
    kind = "max" if c < len(sol.neg_margins) else "min"
    return f"{label}, {kind} eigenvalue {sol.margins[c]:.6e}"


def cmd_synthesize(args) -> int:
    if not math.isfinite(args.decay):
        raise ParseError(f"--decay: must be finite, got {args.decay}")
    model = load_model(args.model)
    outcome = synthesize(model, Scheme(args.scheme), decay=args.decay)

    for label, sol in zip(("problem 1", "problem 2"), outcome.solutions):
        print(
            f"{label}: {sol.status.value} after {sol.iterations} iterations, "
            f"worst violation {sol.worst_violation:.3e}"
        )
    if outcome.bank is None:
        for label, sol, problem in zip(("problem 1", "problem 2"), outcome.solutions, outcome.problems):
            if sol.status is not SolveStatus.FEASIBLE:
                print(f"{label}: binding constraint {_binding(problem, sol)}")
            if sol.certificate is not None:
                cert = sol.certificate
                print(f"{label}: any point meeting δ has ‖z‖₂ ≥ δ/ρ = {cert.bound:.3e} (ρ = {cert.rho:.3e})")
        return (
            EXIT_INFEASIBLE
            if outcome.worst_status is SolveStatus.INFEASIBLE
            else EXIT_ITERATION_LIMIT
        )

    bank, cert = outcome.bank, outcome.certificate
    worst_lmi = max(max(s.neg_margins) for s in outcome.solutions)
    save_bank(args.out, bank)
    print(f"gains written: {bank.size} -> {args.out}")
    print(f"worst constraint margin: {worst_lmi:.6e}")
    print(f"worst closed-loop form eigenvalue: {cert.worst:.6e}")
    print(f"certified: {'yes' if cert.certified else 'no'}")
    return EXIT_OK if cert.certified else EXIT_INFEASIBLE


def cmd_certify(args) -> int:
    model = load_model(args.model)
    bank = load_bank(args.gains)

    # compose_integrated validates the model before check_bank reads it.
    cert = certify_gains(compose_integrated(model), check_bank(model, bank))

    # psi_max is keyed by (mode, product cell m), and cell m is the m-th region pair.
    regions = [f"({m1},{m2})" for m1, m2 in region_pairs(model)]
    lines = ["closed-loop form max eigenvalues (mode, regions):"]
    lines += [
        f"  mode {mode}, regions {regions[cell - 1]}: {psi:+.6e}" for (mode, cell), psi in sorted(cert.psi_max.items())
    ]
    lines += [f"worst: {cert.worst:+.6e}", f"certified: {'yes' if cert.certified else 'no'}"]
    print("\n".join(lines))
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
    config = dataclasses.replace(config, obs_policy=policy)
    # A certificate bounds the loop that refreshes its observations every
    # step; one that holds them is a loop no certificate covers.
    if isinstance(policy, OnChange) or round(policy.period / config.dt) > 1:
        print(
            f"warning: --obs-policy {args.obs_policy} holds observations across steps; the bank's "
            f"certificate covers only a refresh every step (periodic:{config.dt:g}), not this loop",
            file=sys.stderr,
        )
    return model, bank, config, x1, x2


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


if __name__ == "__main__":
    run()
