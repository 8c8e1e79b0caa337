"""The four capbound benchmark workloads: inputs, solves and their checks.

Every workload is a sequence of *passes*.  ``inputs(seed, k)`` builds the
inputs of pass ``k`` from the seed alone; ``run(inputs, rec, workdir)`` makes
the pass's solve calls through capbound's public entry points, timing each
with ``rec.solve`` and checking each result with ``rec.check``.
``check_once(rec, workdir)`` makes checked solves that are too slow to repeat
in every pass; they count as attempted but are not timed.  ``SPEED`` names
the reference kernel (see speed.py) whose slow-downs match the workload's.
Functions are looked up on their module at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
import traceback

import numpy as np

import capbound as cb
from capbound import cli


class Recorder:
    """Solve records of one pass: time, outcome, and certified gap.

    With a speed ``sampler`` running, the time its handler takes inside a
    solve call is left out of that call's time.
    """

    def __init__(self, tracer=None, sampler=None):
        self.records: list[dict] = []
        self.tracer = tracer
        self.sampler = sampler
        self.scale = None  # reference seconds per second, set after a sampled pass

    def _elapsed(self, t0: float, spent0: float) -> float:
        spent = self.sampler.spent - spent0 if self.sampler is not None else 0.0
        return time.perf_counter() - t0 - spent

    def solve(self, label, fn, *args, **kwargs):
        """Call ``fn`` and time it; a raised error is recorded, not propagated."""
        rec = {"solve": label, "s": 0.0, "ok": True, "errors": []}
        self.records.append(rec)
        if self.tracer is not None:
            self.tracer.solve += 1
        spent0 = self.sampler.spent if self.sampler is not None else 0.0
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failing solve is a measured outcome; the run goes on
            rec["s"] = self._elapsed(t0, spent0)
            rec["ok"] = False
            rec["errors"].append(traceback.format_exc())
            return None
        rec["s"] = self._elapsed(t0, spent0)
        return out

    def check(self, cond, message: str) -> None:
        """Mark the latest solve failed unless ``cond`` holds."""
        if not cond:
            self.records[-1]["ok"] = False
            self.records[-1]["errors"].append(message)

    def gap(self, value: float) -> None:
        """Certified gap of the latest solve, which ran to a fixed budget."""
        self.records[-1]["gap_bits"] = float(value)

    @property
    def wall_s(self) -> float:
        return sum(r["s"] for r in self.records)


def _relabel(W, seed: int, k: int):
    """Randomly permute the inputs and outputs of W; returns (W', row order)."""
    rng = np.random.default_rng([seed, k])
    rows = rng.permutation(W.rows)
    cols = rng.permutation(W.cols)
    return cb.ChannelMatrix(W.entries[rows][:, cols]), rows


def _check_sandwich(rec, rep, eps=None):
    rec.check(rep.c_lb <= rep.c_ub + 1e-9, f"c_lb {rep.c_lb!r} > c_ub {rep.c_ub!r}")
    if eps is not None:
        rec.check(rep.aposteriori_err <= eps, f"gap {rep.aposteriori_err!r} > eps {eps!r}")


def _check_intersect(rec, dual, ba):
    """Criterion 3: the dual and Blahut-Arimoto intervals both contain C."""
    rec.check(dual.c_lb - 1e-9 <= ba.c_lb + ba.apriori_err
              and ba.c_lb - 1e-9 <= dual.c_ub,
              f"dual [{dual.c_lb!r}, {dual.c_ub!r}] and BA "
              f"[{ba.c_lb!r}, {ba.c_lb + ba.apriori_err!r}] do not intersect")


class _Workload:
    SPEED = "interp"

    def check_once(self, rec, workdir):
        """Checked solves made once per run, outside the timed passes."""


class DmcSmall(_Workload):
    """The first twelve criterion-3 channels, dual + Blahut-Arimoto, one BEC."""

    # Criterion 3 draws N, M in [2, 64] and a make_random key from
    # default_rng(100).  The seed relabels these fixed channels instead of
    # drawing new ones: a solve's cost grows with M and log(1/min entry), so
    # fresh draws would make runs on different seeds incomparable.
    COUNT = 12
    SMOKE_COUNT = 3
    EPS = 1e-2
    BEC_EPS = 0.01

    def __init__(self, smoke: bool):
        rng = np.random.default_rng(100)
        self.channels = [(int(rng.integers(2, 65)), int(rng.integers(2, 65)),
                          int(rng.integers(0, 1 << 30)))
                         for _ in range(self.SMOKE_COUNT if smoke else self.COUNT)]

    def inputs(self, seed, k):
        return ([_relabel(cb.make_random(n, m, key), seed, k)[0]
                 for n, m, key in self.channels], cb.make_bec(0.4))

    def run(self, inputs, rec, workdir):
        channels, bec = inputs
        for W in channels:
            dual = rec.solve("dual", cb.solve_capacity, W, epsilon=self.EPS,
                             stopping="aposteriori")
            if dual is not None:
                _check_sandwich(rec, dual, self.EPS)
            ba = rec.solve("ba", cb.ba_solve, W, self.EPS)
            if ba is not None and dual is not None:
                _check_intersect(rec, dual, ba)
        pert = rec.solve("perturbation", cb.solve_with_perturbation, bec, 1e-6,
                         self.BEC_EPS, stopping="apriori")
        if pert is not None:
            _check_sandwich(rec, pert)
            _check_sandwich(rec, pert.inner, self.BEC_EPS)
            rec.check(pert.c_lb - 1e-9 <= 0.6 <= pert.c_ub + 1e-9,
                      f"BEC(0.4) capacity 0.6 outside [{pert.c_lb!r}, {pert.c_ub!r}]")
            rec.gap(pert.c_ub - pert.c_lb)


class DmcCost(_Workload):
    """One cost-constrained solve of a relabelled 2-input channel."""

    # make_random(2, 2, 32) with costs (0, 1) and budget 1/4.  A binary-input
    # channel's capacity-achieving input puts mass in [1/e, 1 - 1/e] on each
    # input, so the budget always binds.  Every entry of this channel is at
    # least 1/e, so the dual radius is the smallest a 2 x 2 channel can have
    # and the S_max pre-solve stops at its first checkpoint (81,610
    # iterations); the constrained solve then runs 815.  The seed relabels
    # inputs (with their costs) and outputs, which keeps both counts fixed.
    N, M, KEY = 2, 2, 32
    BUDGET_FRACTION = 0.25
    EPS = 1e-4

    def __init__(self, smoke: bool):
        pass

    def inputs(self, seed, k):
        W, rows = _relabel(cb.make_random(self.N, self.M, self.KEY), seed, k)
        costs = np.arange(self.N, dtype=float)[rows]
        return W, cb.CostConstraint(costs, self.BUDGET_FRACTION * (self.N - 1))

    def run(self, inputs, rec, workdir):
        W, cost = inputs
        rep = rec.solve("constrained", cb.solve_capacity, W, cost=cost,
                        epsilon=self.EPS, stopping="aposteriori")
        if rep is None:
            return
        _check_sandwich(rec, rep, self.EPS)
        rec.check(rep.constrained, "cost constraint was dropped")
        spent = float(cost.costs @ rep.p_hat.weights)
        rec.check(abs(spent - cost.budget) <= 1e-6,
                  f"s.p_hat = {spent!r}, budget {cost.budget!r}")


class DmcLarge(_Workload):
    """The 10^4 x 100 criterion-9 channel: a priori, a posteriori and BA."""

    SPEED = "matvec"

    # make_random(10_000, 100, 1) is the criterion-9 instance.  The seed
    # relabels inputs and outputs, which changes neither the capacity nor the
    # iteration schedule.  The a priori solve runs at eps = 32 (1264
    # iterations) rather than eps = 1 (28960), and the a posteriori one at
    # eps = 0.3 (952 iterations, its first checkpoint) rather than 0.1
    # (2849), so that a run holds about ten passes.
    SHAPE = (10_000, 100)
    SMOKE_SHAPE = (1_000, 20)
    KEY = 1
    APRIORI_EPS = 32.0
    EPS = 0.3
    BA_EPS = 0.1

    def __init__(self, smoke: bool):
        self.shape = self.SMOKE_SHAPE if smoke else self.SHAPE

    def inputs(self, seed, k):
        return _relabel(cb.make_random(*self.shape, self.KEY), seed, k)[0]

    def run(self, W, rec, workdir):
        apriori = rec.solve("apriori", cb.solve_capacity, W,
                            epsilon=self.APRIORI_EPS, stopping="apriori")
        if apriori is not None:
            _check_sandwich(rec, apriori, self.APRIORI_EPS)
            rec.gap(apriori.c_ub - apriori.c_lb)
        apost = rec.solve("aposteriori", cb.solve_capacity, W, epsilon=self.EPS,
                          stopping="aposteriori")
        if apost is not None:
            _check_sandwich(rec, apost, self.EPS)
        ba = rec.solve("ba", cb.ba_solve, W, self.BA_EPS)
        if ba is not None:
            for dual in (apriori, apost):
                if dual is not None:
                    _check_intersect(rec, dual, ba)


def _run_cli(argv) -> int:
    """capbound.cli.main in-process, its report to stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Poisson(_Workload):
    """Criterion-8 reference points and dB sweep, through capbound.cli."""

    # (dB, M, iterations, nu, reference c_ub, reference c_lb) from criterion 8.
    REFERENCE = [(0, 16, 40_000, 0.0026, 0.1191, 0.1058),
                 (5, 25, 70_000, 0.0029, 0.5192, 0.5010)]
    # A pass times the criterion-8 sweep grid, 0 to 14 dB in steps of 2, one
    # poisson-sweep call per point, at an iteration cap of 4,000 rather than
    # 12,000, so that a run holds about seven passes.  The reference solves
    # (40,000 and 70,000 iterations, together twice a pass) are solved and
    # checked once per run.
    SWEEP_DB = tuple(range(0, 15, 2))
    SWEEP_CAP = 4_000
    SMOKE_SWEEP_DB = (0, 2)
    SMOKE_SWEEP_CAP = 2_000

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def inputs(self, seed, k):
        # No random input: the settings are the published reference runs.
        if self.smoke:
            return self.SMOKE_SWEEP_DB, self.SMOKE_SWEEP_CAP
        return self.SWEEP_DB, self.SWEEP_CAP

    def check_once(self, rec, workdir):
        for db, M, n, nu, want_ub, want_lb in self.REFERENCE[:1] if self.smoke else self.REFERENCE:
            out = workdir / f"poisson-{db}dB.json"
            rc = rec.solve(f"solve-poisson-{db}dB", _run_cli, [
                "solve-poisson", "--peak-db", str(db), "--trunc-m", str(M),
                "--iterations", str(n), "--nu", str(nu), "--quiet", "--out", str(out)])
            if rc is None:
                continue
            rec.check(rc == 0, f"exit code {rc}")
            if rc != 0:
                continue
            rep = json.loads(out.read_text())
            rec.check(rep["c_lb"] <= rep["c_ub"] + 1e-9, "c_lb > c_ub")
            rec.check(rep["c_lb_certified"] <= rep["c_ub_certified"] + 1e-9,
                      "certified c_lb > c_ub")
            rec.check(abs(rep["c_ub"] - want_ub) <= 0.01 and abs(rep["c_lb"] - want_lb) <= 0.01,
                      f"{db} dB: [{rep['c_lb']!r}, {rep['c_ub']!r}] not within 0.01 "
                      f"of [{want_lb}, {want_ub}]")
            rec.gap(rep["c_ub_certified"] - rep["c_lb_certified"])

    def run(self, inputs, rec, workdir):
        grid, cap = inputs
        out = workdir / "poisson-sweep.csv"
        for db in grid:
            rc = rec.solve(f"poisson-sweep-{db}dB", _run_cli, [
                "poisson-sweep", "--db-grid", f"{db}:{db}:1", "--iteration-cap", str(cap),
                "--quiet", "--out", str(out)])
            if rc is None:
                continue
            rec.check(rc == 0, f"exit code {rc}")
            if rc != 0:
                continue
            with out.open(newline="") as fh:
                table = list(csv.DictReader(fh))
            rec.check(len(table) == 1, f"sweep at {db} dB has {len(table)} rows, expected 1")
            for row in table:
                rec.check(float(row["c_lb"]) <= float(row["c_ub"]) + 1e-9,
                          f"sweep {row['A_dB']} dB: c_lb > c_ub")


WORKLOADS = {"dmc-small": DmcSmall, "dmc-cost": DmcCost,
             "dmc-large": DmcLarge, "poisson": Poisson}
