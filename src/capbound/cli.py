"""Batch command-line frontend.

Commands: solve-dmc, solve-ba, compare, perturb-solve, solve-poisson,
poisson-sweep.  Human-readable reports go to stdout with 6 significant
digits and are byte-identical across runs for a fixed configuration and
seed; wall-clock timings and progress checkpoints go to stderr.  --out
writes a machine-readable JSON report (full precision; the wall_time field
is the one non-deterministic entry) or, for sweeps, a plot-ready CSV.

Exit codes: 0 success, 1 argument/channel parse errors, 2 solver-reported
errors (infeasible constraints, violated positivity assumptions, ...).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from typing import Optional

import numpy as np

from .blahut_arimoto import ba_solve
from .channels import parse_channel_spec, solve_with_perturbation
from .continuous import _peak_from_db, poisson_sweep, solve_poisson
from .dual_solver import DualPoint, solve_capacity
from .errors import CapacityError, InvalidChannel
from .info_theory import CostConstraint, ProbVector


class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # solver errors, so parsing problems are rerouted to exit code 1.
    def error(self, message):
        raise _ParseError(message)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _bounded(convert, ok, rule: str):
    """An argparse type: ``convert(text)``, rejected unless ``ok`` holds."""

    def parse(text: str):
        try:
            x = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
        if not ok(x):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return x

    return parse


# NaN fails the comparison, so `--eps nan` and `--nu nan` are rejected; an
# infinite --eps, --nu or --perturb has no meaning and is rejected too.
_positive_float = _bounded(float, lambda x: 0 < x < math.inf, "positive and finite")
_positive_int = _bounded(int, lambda n: n > 0, "positive")
_non_negative_int = _bounded(int, lambda n: n >= 0, "positive or zero")
_tail_order = _bounded(float, lambda k: 0.0 < k < 1.0, "in (0, 1)")


def _load_cost(path: str, budget: float) -> CostConstraint:
    try:
        with open(path) as fh:
            vals = []
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    vals.extend(float(v) for v in line.split())
    except (OSError, ValueError) as exc:
        raise InvalidChannel(f"bad cost file {path!r}: {exc}") from exc
    return CostConstraint(costs=np.asarray(vals, dtype=float), budget=budget)


def _cost_from_args(args) -> Optional[CostConstraint]:
    if (args.cost is None) != (args.budget is None):
        raise _ParseError("--cost and --budget must be given together")
    return None if args.cost is None else _load_cost(args.cost, args.budget)


def _resolve_channel(spec: str, seed: Optional[int]):
    if spec.startswith("random:") and spec.count(",") == 1 and seed is not None:
        spec = f"{spec},{seed}"
    return parse_channel_spec(spec)


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def emit(k, lb, ub, gap):
        print(f"{k}\t{lb:.12g}\t{ub:.12g}\t{gap:.12g}", file=sys.stderr)

    return emit


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_lines(pairs) -> None:
    for key, val in pairs:
        print(f"{key}: {val}")


def _report_payload(rep) -> dict:
    """A report dataclass's fields, with ProbVector and DualPoint as lists."""
    payload = {}
    for field in dataclasses.fields(rep):
        value = getattr(rep, field.name)
        if isinstance(value, ProbVector):
            value = value.weights.tolist()
        elif isinstance(value, DualPoint):
            value = value.values.tolist()
        payload[field.name] = value
    return payload


def _cmd_solve_dmc(args) -> int:
    cost = _cost_from_args(args)
    W = _resolve_channel(args.channel, args.seed)
    rep = solve_capacity(W, cost=cost, epsilon=args.eps, stopping=args.stopping,
                         progress=_progress_printer(args.quiet))
    _report_lines([
        ("channel", args.channel),
        ("c_lb", _fmt(rep.c_lb)),
        ("c_ub", _fmt(rep.c_ub)),
        ("apriori_err", _fmt(rep.apriori_err)),
        ("aposteriori_err", _fmt(rep.aposteriori_err)),
        ("iterations", rep.iterations),
        ("constrained", rep.constrained),
    ])
    if not args.quiet:
        print(f"# wall time [s]: {rep.wall_time:.3f}", file=sys.stderr)
    if args.out:
        _write_json(args.out, _report_payload(rep))
    return 0


def _cmd_solve_ba(args) -> int:
    W = _resolve_channel(args.channel, args.seed)
    rep = ba_solve(W, args.eps)
    _report_lines([
        ("channel", args.channel),
        ("c_lb", _fmt(rep.c_lb)),
        ("c_ub", _fmt(rep.c_ub)),
        ("apriori_err", _fmt(rep.apriori_err)),
        ("iterations", rep.iterations),
    ])
    if not args.quiet:
        print(f"# wall time [s]: {rep.wall_time:.3f}", file=sys.stderr)
    if args.out:
        _write_json(args.out, _report_payload(rep))
    return 0


def _cmd_compare(args) -> int:
    W = _resolve_channel(args.channel, args.seed)
    dual = solve_capacity(W, epsilon=args.eps, stopping=args.stopping,
                          progress=_progress_printer(args.quiet))
    ba = ba_solve(W, args.eps)
    header = f"{'method':<8} {'c_lb':>12} {'c_ub':>12} {'apriori':>12} {'aposteriori':>12} {'iterations':>10}"
    print(header)
    print(f"{'dual':<8} {_fmt(dual.c_lb):>12} {_fmt(dual.c_ub):>12} "
          f"{_fmt(dual.apriori_err):>12} {_fmt(dual.aposteriori_err):>12} {dual.iterations:>10}")
    print(f"{'ba':<8} {_fmt(ba.c_lb):>12} {_fmt(ba.c_ub):>12} "
          f"{_fmt(ba.apriori_err):>12} {'-':>12} {ba.iterations:>10}")
    if not args.quiet:
        print(f"# wall time [s]: dual {dual.wall_time:.3f}, ba {ba.wall_time:.3f}",
              file=sys.stderr)
    if args.out:
        _write_json(args.out, {"dual": _report_payload(dual), "ba": _report_payload(ba)})
    return 0


def _cmd_perturb_solve(args) -> int:
    cost = _cost_from_args(args)
    W = _resolve_channel(args.channel, args.seed)
    res = solve_with_perturbation(W, args.perturb, args.eps, cost=cost,
                                  stopping=args.stopping,
                                  progress=_progress_printer(args.quiet))
    _report_lines([
        ("channel", args.channel),
        ("perturbation", _fmt(res.epsilon_perturb)),
        ("delta_norm_ub", _fmt(res.delta_norm_ub)),
        ("correction", _fmt(res.correction)),
        ("c_lb", _fmt(res.c_lb)),
        ("c_ub", _fmt(res.c_ub)),
        ("inner_c_lb", _fmt(res.inner.c_lb)),
        ("inner_c_ub", _fmt(res.inner.c_ub)),
        ("iterations", res.inner.iterations),
    ])
    if not args.quiet:
        print(f"# wall time [s]: {res.inner.wall_time:.3f}", file=sys.stderr)
    if args.out:
        payload = _report_payload(res.inner)
        payload.update({
            "perturbation": res.epsilon_perturb,
            "delta_norm_ub": res.delta_norm_ub,
            "correction": res.correction,
            "c_lb": res.c_lb,
            "c_ub": res.c_ub,
        })
        _write_json(args.out, payload)
    return 0


def _peak_from_args(args) -> float:
    if args.peak is not None:
        return args.peak
    if args.peak_db is not None:
        return _peak_from_db(args.peak_db)
    raise _ParseError("one of --peak or --peak-db is required")


def _cmd_solve_poisson(args) -> int:
    peak = _peak_from_args(args)
    missing = [flag for flag, value in (("--trunc-m", args.trunc_m),
                                        ("--iterations", args.iterations),
                                        ("--nu", args.nu)) if value is None]
    if missing:
        raise _ParseError(
            f"solve-poisson reproduces a run at pinned settings and needs "
            f"{', '.join(missing)}; for an auto-tuned, certified pair run "
            f"poisson-sweep --db-grid DB")
    rep = solve_poisson(
        peak, args.dark_current, M=args.trunc_m, iterations=args.iterations, nu=args.nu,
        tail_order=args.order_k, progress=_progress_printer(args.quiet),
    )
    lines = [
        ("peak", _fmt(rep.peak)),
        ("peak_db", _fmt(10.0 * math.log10(rep.peak))),
        ("dark_current", _fmt(rep.dark_current)),
        ("M", rep.M),
        ("nu", _fmt(rep.nu)),
        ("iterations", rep.iterations),
        ("c_lb", _fmt(rep.c_lb)),
        ("c_ub", _fmt(rep.c_ub)),
        ("trunc_error", _fmt(rep.trunc_error)),
        ("c_lb_certified", _fmt(rep.c_lb_certified)),
        ("c_ub_certified", _fmt(rep.c_ub_certified)),
        ("lapidoth_lb", _fmt(rep.lapidoth)),
    ]
    if rep.lapidoth < 0:
        lines.append(("lapidoth_lb_flag", "negative (vacuous; capacity is >= 0)"))
    _report_lines(lines)
    if not args.quiet:
        print(f"# wall time [s]: {rep.wall_time:.3f}", file=sys.stderr)
    if args.out:
        _write_json(args.out, _report_payload(rep))
    return 0


def _parse_db_grid(text: str):
    try:
        parts = [float(v) for v in text.split(":")]
    except ValueError as exc:
        raise _ParseError(f"bad --db-grid {text!r}") from exc
    if not all(map(math.isfinite, parts)):
        raise _ParseError(f"bad --db-grid {text!r}")
    if len(parts) == 1:
        return [parts[0]]
    if len(parts) == 2:
        start, stop, step = parts[0], parts[1], 1.0
    elif len(parts) == 3:
        start, stop, step = parts
    else:
        raise _ParseError(f"bad --db-grid {text!r}")
    if step <= 0 or stop < start:
        raise _ParseError(f"bad --db-grid {text!r}")
    n = int(round((stop - start) / step))
    return [start + i * step for i in range(n + 1)]


def _cmd_poisson_sweep(args) -> int:
    dbs = _parse_db_grid(args.db_grid)

    def note(db, rep):
        if not args.quiet:
            print(f"# {db} dB done (M={rep.M}, n={rep.iterations}, {rep.stop_reason})",
                  file=sys.stderr)

    rows = poisson_sweep(dbs, args.dark_current, epsilon=args.eps,
                         iteration_cap=args.iteration_cap, progress=note)
    columns = list(rows[0])
    print(",".join(columns))
    for row in rows:
        print(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row.values()))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
    return 0


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write machine-readable report to this path")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress and timing on stderr")


def _add_common(p: argparse.ArgumentParser, stopping: bool = True,
                eps_help="target accuracy in bits (default 1e-3)") -> None:
    p.add_argument("--eps", type=_positive_float, default=1e-3, help=eps_help)
    if stopping:
        p.add_argument("--stopping", choices=["apriori", "aposteriori"],
                       default="aposteriori")
    p.add_argument("--seed", type=int, default=None,
                   help="seed completing a 'random:N,M' channel spec")
    _add_output(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="capbound",
                     description="Certified channel-capacity bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-dmc", help="dual smoothing solve of a discrete channel")
    p.add_argument("channel", help="channel spec: bsc:p | bec:a | random:N,M,seed "
                                   "| file:path | awgnq:sigma,bins,A")
    _add_common(p)
    p.add_argument("--cost", help="file of per-input costs")
    p.add_argument("--budget", type=float, default=None, help="cost budget S")
    p.set_defaults(func=_cmd_solve_dmc)

    p = sub.add_parser("solve-ba", help="Blahut-Arimoto two-sided baseline solve")
    p.add_argument("channel")
    _add_common(p, stopping=False)
    p.set_defaults(func=_cmd_solve_ba)

    p = sub.add_parser("compare", help="dual solver vs Blahut-Arimoto side by side")
    p.add_argument("channel")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("perturb-solve",
                       help="solve a channel with zero entries via perturbation")
    p.add_argument("channel")
    _add_common(p)
    p.add_argument("--perturb", type=_positive_float, default=1e-6,
                   help="value replacing zero entries (default 1e-6)")
    p.add_argument("--cost", help="file of per-input costs")
    p.add_argument("--budget", type=float, default=None, help="cost budget S")
    p.set_defaults(func=_cmd_perturb_solve, stopping="apriori")

    p = sub.add_parser("solve-poisson",
                       help="peak-limited Poisson channel sandwich at pinned M, n and nu")
    _add_output(p)
    p.add_argument("--peak", type=float, default=None, help="peak power A")
    p.add_argument("--peak-db", type=float, default=None,
                   help="peak power in dB (A = 10^(dB/10))")
    p.add_argument("--dark-current", type=float, default=1.0)
    p.add_argument("--order-k", type=_tail_order, default=0.5,
                   help="tail order k in (0, 1) for the truncation bound (default 0.5)")
    p.add_argument("--trunc-m", type=_positive_int, default=None,
                   help="truncation level M (required)")
    p.add_argument("--iterations", type=_non_negative_int, default=None,
                   help="fast-gradient iteration count (required)")
    p.add_argument("--nu", type=_positive_float, default=None,
                   help="smoothing parameter (required)")
    p.set_defaults(func=_cmd_solve_poisson)

    p = sub.add_parser("poisson-sweep",
                       help="CSV sweep of the certified Poisson sandwich over peak powers")
    _add_common(p, stopping=False,
                eps_help="certified-gap target c_ub - c_lb in bits (default 1e-3)")
    p.add_argument("--db-grid", required=True,
                   help="start:stop:step peak powers in dB")
    p.add_argument("--dark-current", type=float, default=1.0)
    p.add_argument("--iteration-cap", type=_positive_int, default=30_000,
                   help="cap on the Blahut-Arimoto iterations per point (default 30000)")
    p.set_defaults(func=_cmd_poisson_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_ParseError, InvalidChannel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
