"""Command-line front end: benchmark generation, solves and MPC runs.

Subcommands
-----------

``gen-mass-spring``
    Write a mass-spring benchmark QP to a file.

``solve``
    Solve a QP file (any of the three kinds) and print/serialize a report.
    ``--path`` selects the route for optimal-control QPs: ``ocp`` (direct
    Riccati backend), ``condense`` (dense solve of the fully condensed
    problem, expanded back), or ``partial:<N1>`` (partially condensed to
    blocks of N1 stages).  The residuals in the report, and the exit status,
    always refer to the original problem; reports are deterministic
    (timings are deliberately excluded).

``closed-loop``
    Simulate MPC on the exact discrete plant with warm-started solves.

Exit codes: 0 success, 1 solver did not reach the requested accuracy,
2 usage or file errors.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .errors import ClosedLoopFailed, InvalidConfig, MpcQpError, ParseError
from .ipm_core import Status, mode_preset
from .mass_spring import MassSpringConfig, gen_mass_spring, run_closed_loop
from .qp_io import qp_read, qp_write
from .solver import solve_path
from .view import compute_residuals

__all__ = ["main", "format_report"]

_REPORT_MAGIC = "mpcqp_report"
_REPORT_VERSION = 1


def _fmt(x):
    return repr(float(x))


def format_report(kind, fields, stats=None, residuals=None):
    """Key-per-line report text; deterministic for identical runs."""
    lines = [f"{_REPORT_MAGIC} {_REPORT_VERSION}", f"kind {kind}"]
    for key, val in fields:
        lines.append(f"{key} {val}")
    if residuals is not None:
        lines.append(f"res_g {_fmt(residuals.res_g)}")
        lines.append(f"res_b {_fmt(residuals.res_b)}")
        lines.append(f"res_d {_fmt(residuals.res_d)}")
        lines.append(f"res_m {_fmt(residuals.res_m)}")
        lines.append(f"mu {_fmt(residuals.mu)}")
    if stats is not None:
        lines.append(f"flops {stats.flops}")
        lines.append(f"trace {len(stats.trace)}")
        for r in stats.trace:
            lines.append(
                f"{r.it} {_fmt(r.alpha_aff)} {_fmt(r.alpha)} {_fmt(r.mu)} "
                f"{_fmt(r.sigma)} {_fmt(r.res_g)} {_fmt(r.res_b)} "
                f"{_fmt(r.res_d)} {_fmt(r.res_m)}"
            )
    return "\n".join(lines) + "\n"


def _parse_float_list(text):
    return [float(t) for t in text.split(",") if t]


def _build_parser():
    p = argparse.ArgumentParser(
        prog="mpcqp",
        description="structure-exploiting interior point QP solver for MPC",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-mass-spring", help="write a benchmark QP file")
    g.add_argument("--masses", type=int, required=True)
    g.add_argument("--horizon", type=int, required=True)
    g.add_argument("--ts", type=float, default=0.5)
    g.add_argument("--x0", type=str, default=None,
                   help="comma-separated initial state (default pattern)")
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="solve a QP file")
    s.add_argument("--qp", required=True)
    s.add_argument("--mode", default="balance",
                   choices=["speed_abs", "speed", "balance", "robust"])
    s.add_argument("--iter-max", type=int, default=30)
    s.add_argument("--tol", type=float, default=1e-6)
    s.add_argument("--warm-start", default="none",
                   choices=["none", "primal", "primal_dual"])
    s.add_argument("--path", default="ocp",
                   help="ocp | condense | partial:<N1> (OCP inputs only)")
    s.add_argument("--report", default=None, help="write the report here too")

    c = sub.add_parser("closed-loop", help="closed-loop MPC simulation")
    c.add_argument("--masses", type=int, required=True)
    c.add_argument("--horizon", type=int, required=True)
    c.add_argument("--steps", type=int, required=True)
    c.add_argument("--mode", default="balance",
                   choices=["speed_abs", "speed", "balance", "robust"])
    c.add_argument("--ts", type=float, default=0.5)
    c.add_argument("--tol", type=float, default=1e-6)
    c.add_argument("--compare-cold", action="store_true",
                   help="also solve each step cold for paired counts")
    c.add_argument("--out", default=None, help="per-step CSV output path")

    return p


def _cmd_gen(args):
    cfg = MassSpringConfig(
        masses=args.masses, horizon=args.horizon, ts=args.ts,
        x0=_parse_float_list(args.x0) if args.x0 else None,
    )
    qp = gen_mass_spring(cfg)
    qp_write(args.out, qp)
    print(f"wrote mass-spring QP (masses={args.masses}, horizon={args.horizon}) "
          f"to {args.out}")
    return 0


def _cmd_solve(args):
    qp = qp_read(args.qp)
    arg = mode_preset(args.mode).with_tol(args.tol)
    arg.iter_max = args.iter_max
    arg.warm_start = args.warm_start
    path = args.path
    rep, sol = solve_path(qp, path, arg)
    text = format_report(
        "solve",
        [
            ("qp", args.qp),
            ("solve_path", path),
            ("mode", args.mode),
            ("status", rep.status.value),
            ("iterations", rep.iterations),
        ],
        stats=rep.stats,
        residuals=compute_residuals(qp, sol),
    )
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    return 0 if rep.status is Status.Success else 1


def _cmd_closed_loop(args):
    cfg = MassSpringConfig(masses=args.masses, horizon=args.horizon, ts=args.ts)
    arg = mode_preset(args.mode).with_tol(args.tol)
    try:
        res = run_closed_loop(cfg, args.steps, arg,
                              compare_cold=args.compare_cold)
    except ClosedLoopFailed as exc:
        print(f"closed loop aborted: {exc}", file=sys.stderr)
        return 1
    rows = []
    for rec in res.records:
        row = {
            "step": rec.step,
            "status": rec.status,
            "iterations": rec.iterations,
            "state_norm": _fmt(float(np.linalg.norm(res.states[rec.step + 1]))),
        }
        if args.compare_cold:
            row["cold_iterations"] = rec.cold_iterations
        rows.append(row)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    total = res.total_iterations
    print(f"closed loop: {args.steps} steps, all Success, "
          f"total iterations {total}")
    if args.compare_cold:
        print(f"cold-start total iterations {res.total_cold_iterations}")
    print(f"state norm {np.linalg.norm(res.states[0]):.6f} -> "
          f"{np.linalg.norm(res.states[-1]):.6f}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-mass-spring":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "closed-loop":
            return _cmd_closed_loop(args)
        parser.error(f"unknown command {args.command}")
    except (ParseError, InvalidConfig, MpcQpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
