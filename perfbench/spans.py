"""Out-of-tree span tracer for the capbound benchmark.

The tracer replaces chosen module-level functions of capbound with timing
wrappers.  A function is replaced at *every* module attribute that is bound
to it, because capbound imports helpers by name (``_entropy_bits`` is looked
up in ``capbound.dual_solver``, ``solve_poisson`` in ``capbound.cli``), and a
wrapper installed only where the function is defined would never be called.
``uninstall`` puts every original back.

Spans are kept in memory as ``(layer, start, end, parent, solve)`` tuples and
written out once, after the measured passes.  A span's parent is the traced
span that was open when it started; its solve is the benchmark's solve
counter at that moment, so all spans of one solve share an identifier.
"""

from __future__ import annotations

import csv
import gzip
import statistics
import time
from collections import defaultdict

import numpy as np

import capbound
from capbound import blahut_arimoto, channels, cli, continuous, dual_solver, info_theory

_MODULES = (capbound, blahut_arimoto, channels, cli, continuous, dual_solver, info_theory)

# Traced layer name -> (defining module, attribute).  Names follow the
# modules; ``FastGradientState.step`` is a method and is replaced on its class.
TARGETS = {
    "dual_solver.solve_capacity": (dual_solver, "solve_capacity"),
    "dual_solver.solve_core": (dual_solver, "_solve_core"),
    "dual_solver.fgm_step": (dual_solver.FastGradientState, "step"),
    "dual_solver.project_ball": (dual_solver, "project_ball"),
    "dual_solver.softmax": (dual_solver, "_softmax"),
    "dual_solver.newton": (dual_solver, "_max_entropy_multipliers"),
    "dual_solver.hull_lp": (dual_solver, "_segment_lp_max"),
    "dual_solver.eval_F": (dual_solver, "eval_F"),
    "info_theory.entropy_bits": (info_theory, "_entropy_bits"),
    "info_theory.channel_diff_norm": (info_theory, "channel_diff_norm"),
    "blahut_arimoto.ba_solve": (blahut_arimoto, "ba_solve"),
    "channels.make_random": (channels, "make_random"),
    "channels.solve_with_perturbation": (channels, "solve_with_perturbation"),
    "continuous.solve_poisson": (continuous, "solve_poisson"),
    "continuous.poisson_sweep": (continuous, "poisson_sweep"),
    "continuous.solve_truncated": (continuous, "_solve_truncated"),
    "continuous.choose_truncation_level": (continuous, "choose_truncation_level"),
    "continuous.truncation_error_bound": (continuous, "truncation_error_bound"),
    "continuous.truncate": (continuous, "truncate"),
    "continuous.quadrature_doubling": (continuous, "_converged_truncation"),
    "continuous.refined_sup_f": (continuous, "refined_sup_f"),
    "cli.main": (cli, "main"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _note_solve_core(args, kwargs, rep):
    W = args[0]
    return {"cost": _arg(args, kwargs, 1, "cost") is not None,
            "epsilon": _arg(args, kwargs, 2, "epsilon"),
            "stopping": _arg(args, kwargs, 3, "stopping"),
            "iterations": rep.iterations, "gap": rep.aposteriori_err,
            "N": W.rows, "M": W.cols}


# Layers whose arguments or results feed a metric; the rest keep timing only.
_NOTES = {
    "dual_solver.solve_capacity":
        lambda a, kw, rep: {"cost": _arg(a, kw, 1, "cost") is not None},
    "dual_solver.solve_core": _note_solve_core,
    "blahut_arimoto.ba_solve": lambda a, kw, rep: {"iterations": rep.iterations},
    "continuous.solve_truncated":
        lambda a, kw, res: {"iterations": _arg(a, kw, 2, "n") + 1},
    "continuous.quadrature_doubling":
        lambda a, kw, res: {"nodes": res[0].nodes.size},
}


class Tracer:
    """Collects spans from wrapped capbound functions while installed."""

    def __init__(self):
        self.names = list(TARGETS)
        self.spans: list = []
        self.notes: dict[int, dict] = {}
        self.solve = 0
        self.passes = 0
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for idx, name in enumerate(self.names):
            owner, attr = TARGETS[name]
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original, _NOTES.get(name))
            holders = [owner] if isinstance(owner, type) else [
                m for m in _MODULES if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, key, original = self._saved.pop()
            setattr(holder, key, original)

    def _wrap(self, idx, fn, note):
        spans, stack, notes, clock = self.spans, self._stack, self.notes, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent, self.solve)
            if note is not None:
                notes[sid] = note(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write every span as one CSV row (gzip-compressed)."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "solve", "layer", "start_s", "end_s"])
            base = self.spans[0][1] if self.spans else 0.0
            for sid, (idx, t0, t1, parent, solve) in enumerate(self.spans):
                out.writerow([sid, parent, solve, self.names[idx],
                              f"{t0 - base:.9f}", f"{t1 - base:.9f}"])

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, as totals per traced pass."""
        passes = max(self.passes, 1)
        spans = self.spans
        dur = np.array([s[2] - s[1] for s in spans]) if spans else np.zeros(0)
        child = np.zeros(len(spans))
        for sid, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[sid]
        by_name = defaultdict(list)
        for sid, s in enumerate(spans):
            by_name[self.names[s[0]]].append(sid)

        def calls(name):
            return len(by_name[name]) / passes

        def total(name):
            return float(dur[by_name[name]].sum()) / passes if by_name[name] else 0.0

        def self_time(name):
            ids = by_name[name]
            return float((dur[ids] - child[ids]).sum()) / passes if ids else 0.0

        def per(x, y, scale=1.0):
            return scale * x / y if y else 0.0

        def parent_name(sid):
            p = spans[sid][3]
            return self.names[spans[p][0]] if p >= 0 else None

        core_ids = by_name["dual_solver.solve_core"]
        core = [self.notes[i] for i in core_ids if i in self.notes]
        iters = sum(n["iterations"] for n in core) / passes
        checkpoint_parents = [parent_name(i) for i in by_name["dual_solver.eval_F"]]
        checkpoints = checkpoint_parents.count("dual_solver.solve_core") / passes
        stopped = sum(1 for n in core if n["iterations"] > 0) / passes
        gap_ratios = [n["gap"] / n["epsilon"] for n in core if n["stopping"] == "aposteriori"]
        bytes_iters = sum(2 * n["N"] * n["M"] * 8 * n["iterations"] for n in core) / passes

        # The S_max pre-solve is the first of two _solve_core children of a
        # constrained solve_capacity.
        cores_of = defaultdict(list)
        for i in core_ids:
            if parent_name(i) == "dual_solver.solve_capacity":
                cores_of[spans[i][3]].append(i)
        presolves = [ids[0] for p, ids in cores_of.items()
                     if len(ids) == 2 and self.notes.get(p, {}).get("cost")]
        ba = [self.notes[i] for i in by_name["blahut_arimoto.ba_solve"] if i in self.notes]
        ba_iters = sum(n["iterations"] for n in ba) / passes
        st_iters = sum(self.notes[i]["iterations"]
                       for i in by_name["continuous.solve_truncated"] if i in self.notes) / passes
        nodes = [self.notes[i]["nodes"]
                 for i in by_name["continuous.quadrature_doubling"] if i in self.notes]

        return {
            "dual_solver.iterations": iters,
            "dual_solver.checkpoints": checkpoints,
            "dual_solver.checkpoint_useful_ratio": per(stopped, checkpoints),
            "dual_solver.gap_ratio_p50": statistics.median(gap_ratios) if gap_ratios else 0.0,
            "dual_solver.us_per_iter": per(total("dual_solver.solve_core"), iters, 1e6),
            "dual_solver.loop_self_us_per_iter":
                per(self_time("dual_solver.solve_core"), iters, 1e6),
            "dual_solver.bytes_per_iter": per(bytes_iters, iters),
            "dual_solver.fgm_step.calls": calls("dual_solver.fgm_step"),
            "dual_solver.fgm_step.us_per_call":
                per(total("dual_solver.fgm_step"), calls("dual_solver.fgm_step"), 1e6),
            "dual_solver.project_ball.calls": calls("dual_solver.project_ball"),
            "dual_solver.newton.calls": calls("dual_solver.newton"),
            "dual_solver.newton.us_per_call":
                per(total("dual_solver.newton"), calls("dual_solver.newton"), 1e6),
            "dual_solver.newton.s": total("dual_solver.newton"),
            "dual_solver.hull_lp.calls": calls("dual_solver.hull_lp"),
            "dual_solver.hull_lp.ms_per_call":
                per(total("dual_solver.hull_lp"), calls("dual_solver.hull_lp"), 1e3),
            "dual_solver.smax_presolve.s": float(dur[presolves].sum()) / passes,
            "dual_solver.smax_presolve.iterations":
                sum(self.notes[i]["iterations"] for i in presolves) / passes,
            "blahut_arimoto.ba_solve.s": total("blahut_arimoto.ba_solve"),
            "blahut_arimoto.iterations": ba_iters,
            "blahut_arimoto.us_per_iter": per(total("blahut_arimoto.ba_solve"), ba_iters, 1e6),
            "channels.solve_with_perturbation.s": total("channels.solve_with_perturbation"),
            "info_theory.channel_diff_norm.s": total("info_theory.channel_diff_norm"),
            "channels.make_random.s": total("channels.make_random"),
            "continuous.solve_truncated.s": total("continuous.solve_truncated"),
            "continuous.iterations": st_iters,
            "continuous.us_per_iter": per(total("continuous.solve_truncated"), st_iters, 1e6),
            "continuous.choose_truncation_level.s": total("continuous.choose_truncation_level"),
            "continuous.truncation_error_bound.calls": calls("continuous.truncation_error_bound"),
            "continuous.truncation_error_bound.s": total("continuous.truncation_error_bound"),
            "continuous.truncate.calls": calls("continuous.truncate"),
            "continuous.truncate.s": total("continuous.truncate"),
            "continuous.quadrature_doubling.s": total("continuous.quadrature_doubling"),
            "continuous.quad_nodes": statistics.fmean(nodes) if nodes else 0.0,
            "continuous.refined_sup_f.s": total("continuous.refined_sup_f"),
            "cli.main.calls": calls("cli.main"),
            "cli.self_s": self_time("cli.main"),
        }

