"""Report invariants raise CertificateViolated, also when asserts are stripped."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capbound as cb
from capbound.dual_solver import DualPoint
from capbound.errors import CertificateViolated

SRC = Path(__file__).resolve().parents[1] / "src"

_INVERTED_REPORT = """
import numpy as np
from capbound.dual_solver import DualPoint, SolveReport
from capbound.errors import CertificateViolated
from capbound.info_theory import ProbVector
try:
    SolveReport(c_lb=0.6, c_ub=0.5, apriori_err=0.0, aposteriori_err=0.0,
                iterations=0, p_hat=ProbVector.uniform(2),
                lambda_hat=DualPoint(np.zeros(2), 1.0), wall_time=0.0, nu=1.0)
except CertificateViolated:
    print("CertificateViolated")
"""


def _solve_report(c_lb, c_ub, gap):
    return cb.SolveReport(c_lb=c_lb, c_ub=c_ub, apriori_err=0.0, aposteriori_err=gap,
                          iterations=0, p_hat=cb.ProbVector.uniform(2),
                          lambda_hat=DualPoint(np.zeros(2), 1.0), wall_time=0.0, nu=1.0)


def test_solve_report_check_survives_python_O():
    # -O strips assert statements, including this test's own, so the
    # inverted report is built in a child interpreter.
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-O", "-c", _INVERTED_REPORT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "CertificateViolated"


@pytest.mark.parametrize("c_lb,c_ub,gap", [(0.6, 0.5, 0.0), (0.5, 0.6, -0.1),
                                           (float("nan"), 0.5, 0.0)])
def test_solve_report_rejects_broken_sandwich(c_lb, c_ub, gap):
    with pytest.raises(CertificateViolated):
        _solve_report(c_lb, c_ub, gap)


def test_perturbed_solve_rejects_inverted_bounds():
    inner = _solve_report(0.5, 0.5, 0.0)
    with pytest.raises(cb.CapacityError):
        cb.PerturbedSolve(epsilon_perturb=1e-6, delta_norm_ub=0.0, correction=0.0,
                          inner=inner, c_lb=0.7, c_ub=0.6)


def test_poisson_report_rejects_inverted_bounds():
    rep = cb.solve_poisson(1.0, 1.0, M=8, iterations=200, nu=0.05)
    for broken in (dict(c_lb=rep.c_ub + 1.0),
                   dict(c_lb_certified=rep.c_ub_certified + 1.0),
                   dict(c_ub_certified=float("nan"))):
        with pytest.raises(CertificateViolated):
            cb.PoissonReport(**dict(vars(rep), **broken))
