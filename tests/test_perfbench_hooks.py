"""The benchmark's span tracer still finds and counts the functions it wraps.

perfbench/spans.py replaces capbound functions by module attribute name, so
a rename in capbound would otherwise only show up as missing trace metrics.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np

import capbound as cb
from capbound import continuous, dual_solver, info_theory

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_count():
    spans = _load_spans()
    solve_poisson = continuous.solve_poisson
    for name, (owner, attr) in spans.TARGETS.items():
        assert callable(getattr(owner, attr, None)), name

    tracer = spans.Tracer()
    tracer.install()
    try:
        cb.solve_capacity(cb.make_random(4, 3, seed=5), epsilon=1e-2)
        # capbound resolves its Poisson names from capbound.continuous on
        # each access, so a call through the package is traced too.
        assert cb.solve_poisson.__wrapped__ is solve_poisson
        cb.solve_poisson(1.0, 1.0, M=8, iterations=200, nu=0.05)
    finally:
        tracer.uninstall()
    tracer.passes = 1
    metrics = tracer.layer_metrics()
    for key in ("dual_solver.iterations", "dual_solver.checkpoints",
                "continuous.iterations"):
        assert metrics[key] > 0, key
    assert not hasattr(cb.solve_capacity, "__wrapped__")
    assert cb.solve_poisson is continuous.solve_poisson is solve_poisson


def test_every_truncation_grid_is_a_span(monkeypatch):
    # Node doubling builds its candidate grids through truncate, so the
    # traced span count is the number of grids built, candidates included.
    grids = []
    gl_grid = continuous._gl_grid

    def counted(*args):
        grids.append(args)
        return gl_grid(*args)

    monkeypatch.setattr(continuous, "_gl_grid", counted)
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        rep = cb.solve_poisson(1.0, 1.0, M=8, iterations=200, nu=0.05)
    finally:
        tracer.uninstall()
    tracer.passes = 1
    metrics = tracer.layer_metrics()
    assert len(grids) >= 2
    assert metrics["continuous.truncate.calls"] == len(grids)
    assert rep.quad_nodes in {args[2] for args in grids}


def test_inner_loop_layers_are_traced(monkeypatch):
    # The stacked fast-gradient step still goes through the traced
    # FastGradientState.step, project_ball and _softmax, so the per-layer
    # table keeps its rows for them, on the a posteriori path and on the
    # a priori one that dmc-small's perturbed BEC solve takes, with the
    # input term in one block and streamed through one-row blocks, whose
    # softmaxes the caller and the worker thread split.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(info_theory, "_split_pays", lambda: True)
    spans = _load_spans()
    for block_bytes, stopping, eps in ((info_theory._BLOCK_BYTES, "aposteriori", 1e-2),
                                       (info_theory._BLOCK_BYTES, "apriori", 0.1),
                                       (8 * 3, "aposteriori", 1e-2), (8 * 3, "apriori", 0.1)):
        monkeypatch.setattr(info_theory, "_BLOCK_BYTES", block_bytes)
        tracer = spans.Tracer()
        tracer.install()
        try:
            rep = cb.solve_capacity(cb.make_random(4, 3, seed=5), epsilon=eps,
                                    stopping=stopping)
        finally:
            tracer.uninstall()
        tracer.passes = 1
        metrics = tracer.layer_metrics()
        steps = rep.iterations + 1
        assert metrics["dual_solver.fgm_step.calls"] == steps, stopping
        assert metrics["dual_solver.project_ball.calls"] == 2 * steps, stopping
        names = [tracer.names[s[0]] for s in tracer.spans]
        assert names.count("dual_solver.softmax") >= 2 * steps, stopping


def test_spans_nest_with_the_worker_on(monkeypatch):
    # The worker thread takes row blocks of the input term and calls no
    # traced function, so the tracer's one span stack stays the caller's:
    # every span closes, and each opens and closes within its parent.
    monkeypatch.setattr(info_theory, "_BLOCK_BYTES", 8 * 6 * 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(info_theory, "_split_pays", lambda: True)
    W = cb.make_random(400, 6, seed=1)
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        cb.solve_capacity(W, epsilon=1e-2)
        cb.ba_solve(W, 1e-3, "aposteriori")
    finally:
        tracer.uninstall()
    assert tracer.spans and None not in tracer.spans
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names.count("dual_solver.softmax") > 0
    for sid, (_, t0, t1, parent, _) in enumerate(tracer.spans):
        assert t0 <= t1
        if parent >= 0:
            _, p0, p1, _, _ = tracer.spans[parent]
            assert parent < sid and p0 <= t0 and t1 <= p1


def test_smax_presolve_is_a_ba_span():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        cb.solve_capacity(cb.make_random(2, 2, seed=32),
                          cost=cb.CostConstraint(np.array([0.0, 1.0]), 0.25),
                          epsilon=1e-2)
    finally:
        tracer.uninstall()
    names = [tracer.names[s[0]] for s in tracer.spans]

    def children(layer):
        return [names[s[3]] for sid, s in enumerate(tracer.spans)
                if names[sid] == layer and s[3] >= 0]

    assert names.count("dual_solver.solve_capacity") == 1
    # The cost-tilted start of the dual is the one Blahut-Arimoto solve:
    # no S_max pre-solve runs before it.
    assert children("blahut_arimoto.ba_solve") == ["dual_solver.solve_core"]
    assert names.count("blahut_arimoto.ba_solve") == 1
    assert children("dual_solver.solve_core") == ["dual_solver.solve_capacity"]
    assert names.count("dual_solver.solve_core") == 1


def test_one_sup_span_per_poisson_solve():
    # The pinned dual solve and each sweep point take their certified
    # supremum from one refined_sup_f call, so its span times every sup.
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        cb.solve_poisson(1.0, 1.0, M=8, iterations=200, nu=0.05)
        cb.poisson_sweep([0.0, 2.0])
    finally:
        tracer.uninstall()
    names = [tracer.names[s[0]] for s in tracer.spans]
    parents = [names[s[3]] for sid, s in enumerate(tracer.spans)
               if names[sid] == "continuous.refined_sup_f"]
    assert parents == ["continuous.solve_poisson",
                       "continuous.poisson_sweep", "continuous.poisson_sweep"]
