"""capbound benchmark: certificate workloads, end-to-end and per-layer metrics.

Run from the root of a capbound checkout; capbound is imported from ./src.

    python3 perfbench/run.py --workload dmc-small [--seed 1] [--seconds 25] [--trace 0]
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --smoke             # reduced inputs, never for claims

An untraced run (``--trace 0``) repeats passes of the workload until
``--seconds`` is spent and reports the end-to-end metrics, with times in
reference seconds: scaled by the host's speed, sampled while they were
measured (see speed.py).  A traced run (``--trace 1``) alternates an untraced
and a traced pass over the same inputs, reports the per-layer metrics of the
traced passes and the tracing overhead, and writes every span to
perfbench/results/.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; lines before it are a
readable table.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("dmc-small", "dmc-cost", "dmc-large", "poisson")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_PROBES = 5
SETUP_SPEED_S = 0.3


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _single_thread_blas() -> None:
    """One BLAS thread, so the load is one thread; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _load():
    """Import capbound from this checkout's src/, then the workloads."""
    src = ROOT / "src"
    if not (src / "capbound" / "__init__.py").is_file():
        sys.exit(f"error: no capbound package under {src}; run from a capbound checkout")
    sys.path.insert(0, str(src))
    import capbound
    if Path(capbound.__file__).resolve().parent != (src / "capbound").resolve():
        sys.exit(f"error: imported capbound from {capbound.__file__}, not {src}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# Environment record


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    for line in _read("/proc/self/maps").splitlines():
        lib = line.split()[-1] if line.split() else ""
        if "openblas" not in lib.lower() or ".so" not in lib:
            continue
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": _nproc(),
        "cpu": cpu,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# Measurement


def _setup_probe(args) -> None:
    """In a fresh process: import capbound and build pass-0 inputs.

    Prints the seconds this took, then the same in reference seconds, scaled
    by the host's speed over the SETUP_SPEED_S seconds that follow.
    """
    t0 = time.perf_counter()
    wl = _load()
    wl.WORKLOADS[args.workload](args.smoke).inputs(args.seed, 0)
    seconds = time.perf_counter() - t0
    import speed
    print(repr(seconds), repr(seconds * speed.scale_now("interp", SETUP_SPEED_S)))


def _setup_s(args, probes: int) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of ``probes`` set-ups, each in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(probes):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        raw, scaled = out.stdout.strip().splitlines()[-1].split()
        times.append((float(raw), float(scaled)))
    return times


def _keep_going(start: float, done: int, seconds: float) -> bool:
    """True while one more pass of the average length fits in the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def _pass(wl, workload, seed, k, workdir, tracer=None, sampler=None):
    """Pass k: build its inputs, run the solves, return the Recorder.

    With a speed sampler, the Recorder's ``scale`` turns the pass's seconds
    into reference seconds, from the samples taken while its solves ran.
    """
    gc.collect()
    inputs = workload.inputs(seed, k)
    rec = wl.Recorder(tracer, sampler)
    first = len(sampler.samples) if sampler is not None else 0
    workload.run(inputs, rec, workdir)
    if sampler is not None:
        rec.scale = sampler.scale(first)
    return rec


def _measure(wl, workload, seed, seconds, workdir):
    """Untraced passes, each on its own inputs, until the time budget is spent."""
    import speed
    passes = []
    start = time.perf_counter()
    with speed.Sampler(workload.SPEED) as sampler:
        while not passes or _keep_going(start, len(passes), seconds):
            passes.append(_pass(wl, workload, seed, len(passes), workdir, sampler=sampler))
    return passes


def _trace(wl, workload, seed, seconds, workdir):
    """Pairs of untraced and traced passes over the pass-0 inputs."""
    import spans
    tracer = spans.Tracer()
    pairs = []
    start = time.perf_counter()
    while not pairs or _keep_going(start, len(pairs), seconds):
        plain = _pass(wl, workload, seed, 0, workdir)
        tracer.solve = 0  # solve 0 holds the spans of input generation
        tracer.install()
        try:
            traced = _pass(wl, workload, seed, 0, workdir, tracer)
        finally:
            tracer.uninstall()
        tracer.passes += 1
        pairs.append((plain, traced))
    return tracer, pairs


def _percentile_note(values: list[float]) -> str:
    """Highest of p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[q - 1]
            return f"p{q} {cut:.4g} s"
    return "too few for a tail percentile"


def _end_to_end(setup, passes, records):
    """End-to-end metrics and the table rows (name, value, unit, note)."""
    walls = [rec.wall_s for rec in passes]
    times = [r["s"] for rec in passes for r in rec.records]
    scaled_walls = [rec.wall_s * rec.scale for rec in passes]
    scaled_times = [r["s"] * rec.scale for rec in passes for r in rec.records]
    scales = [rec.scale for rec in passes]
    gaps = [r["gap_bits"] for r in records if "gap_bits" in r]
    failed = sum(not r["ok"] for r in records)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "wall_s": statistics.median(scaled_walls),
        "solve_s_p50": statistics.median(scaled_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rows = [
        ("setup_s", metrics["setup_s"], "s",
         f"reference seconds; median of {len(setup)} fresh processes"),
        ("wall_s", metrics["wall_s"], "s", f"reference seconds; median of {len(walls)} passes"),
        ("solve_s_p50", metrics["solve_s_p50"], "s",
         f"reference seconds; n={len(scaled_times)} solves; {_percentile_note(scaled_times)}"),
        ("setup_s_measured", statistics.median(raw for raw, _ in setup), "s",
         f"median of {len(setup)} fresh processes"),
        ("wall_s_measured", statistics.median(walls), "s", f"median of {len(walls)} passes"),
        ("solve_s_p50_measured", statistics.median(times), "s",
         f"n={len(times)} solves; {_percentile_note(times)}"),
        ("speed_scale", statistics.median(scales), "ratio",
         f"reference / measured seconds, median of {len(scales)} passes, "
         f"range {min(scales):.3g} to {max(scales):.3g}"),
    ]
    if gaps:
        rows.append(("gap_bits", statistics.median(gaps), "bits",
                     f"median of {len(gaps)} fixed-budget solves"))
    rows += [("failed_frac", failed / len(records), "ratio", f"{failed} of {len(records)} solves"),
             ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "ru_maxrss of this process")]
    return metrics, rows


def _per_layer(tracer, pairs):
    """Per-layer metrics of the traced passes and the tracing overhead."""
    untraced = statistics.median(p.wall_s for p, _ in pairs)
    traced = statistics.median(t.wall_s for _, t in pairs)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = statistics.median(t.wall_s - p.wall_s for p, t in pairs)
    print(f"# {len(pairs)} pass pair(s): untraced wall_s {untraced:.4f} s, "
          f"traced wall_s {traced:.4f} s, tracing overhead {metrics['trace.overhead_s']:.4f} s")
    units = _declared("per_layer")
    return metrics, [(name, value, units[name], "") for name, value in metrics.items()]


def _run_one(args) -> int:
    setup = _setup_s(args, 1 if args.smoke else SETUP_PROBES)
    wl = _load()
    workload = wl.WORKLOADS[args.workload](args.smoke)
    env = _environment()
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        once = wl.Recorder()
        workload.check_once(once, workdir)
        if args.trace:
            tracer, pairs = _trace(wl, workload, args.seed, args.seconds, workdir)
            passes = [rec for pair in pairs for rec in pair]
        else:
            passes = _measure(wl, workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [dict(r, pass_index=i) for i, rec in enumerate(passes) for r in rec.records]
    records += [dict(r, pass_index=None) for r in once.records]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    for r in records:
        for err in r["errors"]:
            print(f"# FAILED {r['solve']}: {err.strip()}", file=sys.stderr)

    print(f"# capbound benchmark: workload {args.workload}, seed {args.seed} "
          f"(default {DEFAULT_SEED}), {args.seconds:g} s, trace {args.trace}"
          + (" -- SMOKE MODE, not for claims" if args.smoke else ""))
    print("# env " + " ".join(f"{k}={v!r}" if isinstance(v, str) and " " in v else f"{k}={v}"
                              for k, v in env.items()))
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        metrics, rows = _per_layer(tracer, pairs)
        tracer.write(RESULTS / f"{tag}.spans.csv.gz")
    else:
        metrics, rows = _end_to_end(setup, passes, records)
    for name, value, unit, note in rows:
        print(f"{name:40s} {value:14.6g}  {unit:10s} {note}".rstrip())

    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "environment": env, "setup_s_samples": setup, "metrics": metrics,
        "pass_scales": [rec.scale for rec in passes],
        "solves": records}, indent=1))
    units = _declared("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        sys.exit(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process; one combined table and JSON line."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {out.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per run (default {DEFAULT_SECONDS}; smoke 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, same checks; runs in under 30 s, never for claims")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required unless --smoke is given")
        args.workload = "all"
    if args.seconds is None:
        args.seconds = 1 if args.smoke else DEFAULT_SECONDS
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _single_thread_blas()
    if args.setup_probe:
        _setup_probe(args)
        return 0
    if not (ROOT / "src" / "capbound" / "__init__.py").is_file():
        sys.exit(f"error: no capbound package under {ROOT / 'src'}; run from a capbound checkout")
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
