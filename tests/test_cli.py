import csv
import json
import math

import pytest

from capbound.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(key)


class TestSolveDmc:
    def test_bsc_sandwich(self, capsys):
        code, out, _ = run_cli(capsys, ["solve-dmc", "bsc:0.1", "--eps", "1e-3", "--quiet"])
        assert code == 0
        truth = 1.0 + 0.1 * math.log2(0.1) + 0.9 * math.log2(0.9)
        assert float(grab(out, "c_lb")) <= truth + 1e-6
        assert float(grab(out, "c_ub")) >= truth - 1e-6
        assert abs(float(grab(out, "c_lb")) - 0.5310) < 2e-3

    def test_deterministic_stdout(self, capsys):
        args = ["solve-dmc", "random:8,5,3", "--eps", "0.01", "--quiet"]
        _, out1, _ = run_cli(capsys, args)
        _, out2, _ = run_cli(capsys, args)
        assert out1 == out2

    def test_zero_entry_channel_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["solve-dmc", "bec:0.4", "--quiet"])
        assert code == 2
        assert "Assumption 1" in err and "perturb-solve" in err

    def test_bad_spec_exit_1(self, capsys):
        code, _, err = run_cli(capsys, ["solve-dmc", "nonsense:1", "--quiet"])
        assert code == 1

    def test_bad_flag_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, ["solve-dmc"])
        assert code == 1

    def test_json_out(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, _, _ = run_cli(capsys, ["solve-dmc", "bsc:0.2", "--eps", "1e-3",
                                      "--quiet", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["c_lb"] <= payload["c_ub"]
        assert len(payload["p_hat"]) == 2

    def test_seed_completes_random_spec(self, capsys):
        code1, out1, _ = run_cli(capsys, ["solve-dmc", "random:6,4", "--seed", "9",
                                          "--eps", "0.02", "--quiet"])
        code2, out2, _ = run_cli(capsys, ["solve-dmc", "random:6,4,9",
                                          "--eps", "0.02", "--quiet"])
        assert code1 == code2 == 0
        assert grab(out1, "c_lb") == grab(out2, "c_lb")

    def test_cost_file(self, capsys, tmp_path):
        costs = tmp_path / "costs.txt"
        costs.write_text("0.0 1.0\n")
        code, out, _ = run_cli(capsys, ["solve-dmc", "bsc:0.1", "--eps", "1e-3",
                                        "--cost", str(costs), "--budget", "0.2",
                                        "--quiet"])
        assert code == 0
        assert grab(out, "constrained") == "True"


class TestPerturbSolve:
    def test_bec_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, ["perturb-solve", "bec:0.4",
                                        "--perturb", "1e-6", "--eps", "0.01",
                                        "--quiet"])
        assert code == 0
        assert float(grab(out, "c_ub")) == pytest.approx(0.6000, abs=2e-3)
        assert float(grab(out, "c_lb")) == pytest.approx(0.5999, abs=2e-3)

    def test_positive_channel_zero_correction(self, capsys):
        code, out, _ = run_cli(capsys, ["perturb-solve", "bsc:0.3",
                                        "--perturb", "1e-4", "--eps", "0.01",
                                        "--quiet"])
        assert code == 0
        assert float(grab(out, "correction")) == 0.0


class TestCompare:
    def test_table_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["compare", "bsc:0.1", "--eps", "1e-3", "--quiet"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[:3] == ["method", "c_lb", "c_ub"]
        assert lines[1].startswith("dual") and lines[2].startswith("ba")

    def test_ba_iterations_double_when_eps_halves(self, capsys):
        _, out1, _ = run_cli(capsys, ["compare", "random:16,4,7", "--eps", "0.1", "--quiet"])
        _, out2, _ = run_cli(capsys, ["compare", "random:16,4,7", "--eps", "0.05", "--quiet"])
        n1 = int(out1.splitlines()[2].split()[-1])
        n2 = int(out2.splitlines()[2].split()[-1])
        assert (n1, n2) == (40, 80)

    def test_intervals_agree(self, capsys):
        code, out, _ = run_cli(capsys, ["compare", "random:12,6,2", "--eps", "1e-3", "--quiet"])
        rows = out.splitlines()
        dual_lb, dual_ub = float(rows[1].split()[1]), float(rows[1].split()[2])
        ba_lb, ba_err = float(rows[2].split()[1]), float(rows[2].split()[3])
        assert dual_lb - 1e-6 <= ba_lb + ba_err
        assert ba_lb - 1e-6 <= dual_ub


class TestPoisson:
    def test_solve_poisson_cli(self, capsys):
        code, out, _ = run_cli(capsys, ["solve-poisson", "--peak-db", "0",
                                        "--trunc-m", "16", "--iterations", "1200",
                                        "--nu", "0.01", "--quiet"])
        assert code == 0
        assert float(grab(out, "c_lb")) <= float(grab(out, "c_ub"))
        assert grab(out, "M") == "16"

    def test_peak_flag_required(self, capsys):
        code, _, err = run_cli(capsys, ["solve-poisson", "--quiet"])
        assert code == 1
        assert "--peak" in err

    @pytest.mark.parametrize("given, missing", [
        ([], ["--trunc-m", "--iterations", "--nu"]),
        (["--trunc-m", "16", "--nu", "0.01"], ["--iterations"]),
    ])
    def test_pins_required(self, capsys, given, missing):
        # solve-poisson only reproduces runs at a pinned M, n and nu; it
        # names the missing pins and points at the auto-tuned sweep.
        code, out, err = run_cli(capsys, ["solve-poisson", "--peak-db", "0", "--quiet", *given])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        named = [flag for flag in ("--trunc-m", "--iterations", "--nu") if flag in err]
        assert named == missing
        assert "poisson-sweep --db-grid" in err

    @pytest.mark.parametrize("grid", ["30", "300"])
    def test_sweep_refuses_uncertifiable_peak(self, capsys, grid):
        code, out, err = run_cli(capsys, ["poisson-sweep", "--db-grid", grid, "--quiet"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "underflows" in err

    def test_tail_overflow_is_not_a_crash(self, capsys):
        # At 30 dB and M = 1001 the closed-form tail bound is inf, not an
        # OverflowError; the kernel floor then underflows, a solver error.
        code, out, err = run_cli(capsys, ["solve-poisson", "--peak-db", "30", "--trunc-m",
                                          "1001", "--iterations", "1", "--nu", "0.05",
                                          "--quiet"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: Assumption 3 violated")

    def test_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, ["poisson-sweep", "--db-grid", "0:2:1", "--quiet",
                                        "--out", str(out_path)])
        assert code == 0
        header = "A_dB,M,iterations,c_lb,c_ub,E,lapidoth_lb"
        lines = out.strip().splitlines()
        assert lines[0] == header
        assert len(lines) == 4
        file_lines = out_path.read_text().strip().splitlines()
        assert file_lines[0] == header
        assert len(file_lines) == 4
        with out_path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                assert float(row["c_lb"]) <= float(row["c_ub"])
                assert float(row["c_ub"]) - float(row["c_lb"]) <= 1e-3

    def test_sweep_progress_names_stop_reason(self, capsys):
        code, _, err = run_cli(capsys, ["poisson-sweep", "--db-grid", "0:2:2",
                                        "--iteration-cap", "20"])
        assert code == 0
        notes = [line for line in err.splitlines() if line.startswith("#")]
        assert notes == ["# 0.0 dB done (M=14, n=20, cap)", "# 2.0 dB done (M=16, n=20, cap)"]

    def test_sweep_deterministic(self, capsys):
        args = ["poisson-sweep", "--db-grid", "0:1:1", "--iteration-cap", "800", "--quiet"]
        _, out1, _ = run_cli(capsys, args)
        _, out2, _ = run_cli(capsys, args)
        assert out1 == out2


class TestProgressStream:
    def test_checkpoint_lines_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, ["solve-dmc", "bsc:0.1", "--eps", "1e-4"])
        assert code == 0
        rows = [l for l in err.splitlines() if "\t" in l]
        assert rows, "expected checkpoint lines on stderr"
        fields = rows[0].split("\t")
        assert len(fields) == 4
        int(fields[0]); [float(v) for v in fields[1:]]


class TestBlahutArimotoUpperBound:
    def test_compare_ba_row_upper_bound(self, capsys):
        code, out, _ = run_cli(capsys, ["compare", "random:12,6,2", "--eps", "1e-3", "--quiet"])
        assert code == 0
        rows = out.splitlines()
        dual_lb = float(rows[1].split()[1])
        ba_lb, ba_ub = float(rows[2].split()[1]), float(rows[2].split()[2])
        assert ba_ub >= dual_lb - 1e-6
        assert ba_ub >= ba_lb

    def test_compare_json_has_ba_upper_bound(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.json"
        code, _, _ = run_cli(capsys, ["compare", "bsc:0.1", "--eps", "1e-2",
                                      "--quiet", "--out", str(out_path)])
        assert code == 0
        ba = json.loads(out_path.read_text())["ba"]
        assert ba["c_lb"] <= ba["c_ub"] + 1e-9

    def test_solve_ba_prints_upper_bound(self, capsys, tmp_path):
        out_path = tmp_path / "ba.json"
        code, out, _ = run_cli(capsys, ["solve-ba", "bsc:0.1", "--eps", "1e-3",
                                        "--quiet", "--out", str(out_path)])
        assert code == 0
        truth = 1.0 + 0.1 * math.log2(0.1) + 0.9 * math.log2(0.9)
        assert float(grab(out, "c_lb")) <= truth + 1e-6
        assert float(grab(out, "c_ub")) >= truth - 1e-6
        payload = json.loads(out_path.read_text())
        assert payload["c_lb"] - 1e-12 <= truth <= payload["c_ub"] + 1e-12


class TestStopReasonJson:
    def test_solve_dmc(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, _, _ = run_cli(capsys, ["solve-dmc", "bsc:0.1", "--eps", "1e-2",
                                      "--quiet", "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["stop_reason"] == "gap<=eps"

    def test_solve_dmc_apriori(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, _, _ = run_cli(capsys, ["solve-dmc", "bsc:0.1", "--eps", "1e-2",
                                      "--stopping", "apriori", "--quiet",
                                      "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["stop_reason"] == "apriori_n"

    def test_compare(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.json"
        code, _, _ = run_cli(capsys, ["compare", "bsc:0.1", "--eps", "1e-2",
                                      "--quiet", "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["dual"]["stop_reason"] == "gap<=eps"

    def test_solve_ba(self, capsys, tmp_path):
        out_path = tmp_path / "ba.json"
        code, _, _ = run_cli(capsys, ["solve-ba", "bsc:0.2", "--eps", "1e-2",
                                      "--quiet", "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["stop_reason"] == "apriori_n"

    def test_perturb_solve(self, capsys, tmp_path):
        out_path = tmp_path / "pert.json"
        code, out, _ = run_cli(capsys, ["perturb-solve", "bec:0.4", "--eps", "0.05",
                                        "--quiet", "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["stop_reason"] == "apriori_n"
        assert "stop_reason" not in out


class TestSizeOneAlphabets:
    # One input or one output symbol: the capacity is 0, and every command
    # returns a sandwich around it within eps.
    MATRICES = {"1x3": "1 3\n0.2 0.3 0.5\n", "3x1": "3 1\n1\n1\n1\n", "1x1": "1 1\n1\n"}

    @pytest.mark.parametrize("shape", sorted(MATRICES))
    @pytest.mark.parametrize("command", ["solve-dmc", "solve-ba", "compare", "perturb-solve"])
    def test_zero_capacity_sandwich(self, capsys, tmp_path, shape, command):
        eps = 1e-3
        spec = tmp_path / "W.txt"
        spec.write_text(self.MATRICES[shape])
        out_path = tmp_path / "rep.json"
        code, _, _ = run_cli(capsys, [command, f"file:{spec}", "--eps", str(eps), "--quiet",
                                      "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        for rep in (payload["dual"], payload["ba"]) if command == "compare" else (payload,):
            assert rep["c_lb"] <= 1e-9
            assert rep["c_ub"] <= eps
            assert rep["c_lb"] <= rep["c_ub"]


class TestArgumentChecks:
    @pytest.mark.parametrize("command", ["solve-dmc", "perturb-solve"])
    @pytest.mark.parametrize("given", ["cost", "budget"])
    def test_cost_and_budget_come_together(self, capsys, tmp_path, command, given):
        costs = tmp_path / "costs.txt"
        costs.write_text("0.0 1.0\n")
        flags = ["--cost", str(costs)] if given == "cost" else ["--budget", "0.3"]
        code, out, err = run_cli(capsys, [command, "bsc:0.1", "--eps", "1e-2", "--quiet",
                                          *flags])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--cost and --budget" in err

    @pytest.mark.parametrize("argv", [
        ["solve-dmc", "bsc:0.1", "--eps", "0"],
        ["solve-dmc", "bsc:0.1", "--eps=-1e-3"],
        ["solve-ba", "bsc:0.1", "--eps", "0"],
        ["compare", "bsc:0.1", "--eps", "-0.01"],
        ["perturb-solve", "bec:0.4", "--eps", "0"],
        ["perturb-solve", "bec:0.4", "--perturb", "0"],
        ["perturb-solve", "bec:0.4", "--perturb=-1e-6"],
        ["poisson-sweep", "--db-grid", "0:0:1", "--eps", "-0.1"],
        ["solve-dmc", "bsc:0.1", "--eps", "nan"],
        ["solve-poisson", "--peak-db", "0", "--nu", "0"],
        ["solve-poisson", "--peak-db", "0", "--nu=-1"],
        ["solve-poisson", "--peak-db", "0", "--nu", "nan"],
        ["solve-poisson", "--peak-db", "0", "--trunc-m", "0"],
        ["solve-poisson", "--peak-db", "0", "--iterations=-5"],
        ["poisson-sweep", "--db-grid", "0:0:1", "--iteration-cap=-1"],
        ["poisson-sweep", "--db-grid", "0:0:1", "--iteration-cap=-3"],
        ["perturb-solve", "bec:0.4", "--perturb", "nan"],
        ["poisson-sweep", "--db-grid", "0:0:1", "--eps", "nan"],
        ["solve-dmc", "bsc:0.1", "--eps", "inf"],
        ["compare", "bsc:0.1", "--eps", "inf"],
        ["solve-poisson", "--peak-db", "0", "--nu", "inf"],
        ["perturb-solve", "bec:0.4", "--perturb", "inf"],
    ])
    def test_non_positive_value_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, argv + ["--quiet"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: argument --") and "must be positive" in err


    @pytest.mark.parametrize("value", ["0", "1", "-0.5", "nan"])
    def test_order_k_outside_unit_interval(self, capsys, value):
        code, out, err = run_cli(capsys, ["solve-poisson", "--peak-db", "0",
                                          "--order-k", value, "--quiet"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: argument --order-k: must be in (0, 1)")

    @pytest.mark.parametrize("argv", [
        ["solve-poisson", "--peak", "nan"],
        ["solve-poisson", "--peak", "inf"],
        ["solve-poisson", "--peak-db", "nan"],
        ["solve-poisson", "--peak-db", "0", "--dark-current", "nan"],
        ["poisson-sweep", "--db-grid", "nan"],
        ["poisson-sweep", "--db-grid", "0:inf:1"],
        ["poisson-sweep", "--db-grid", "0", "--dark-current", "nan"],
        ["poisson-sweep", "--db-grid", "0", "--dark-current", "inf"],
        # Finite, but 10^(dB/10) overflows a float.
        ["solve-poisson", "--peak-db", "4000"],
        ["poisson-sweep", "--db-grid", "4000"],
    ])
    def test_non_finite_poisson_input_rejected(self, capsys, argv):
        # The solve-poisson settings keep a solve short should one start.
        if argv[0] == "solve-poisson":
            argv = argv + ["--trunc-m", "8", "--iterations", "50", "--nu", "0.05"]
        code, out, err = run_cli(capsys, argv + ["--quiet"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestJsonReports:
    # Each --out report is its result dataclass's fields; perturb-solve adds
    # the outer sandwich and compare nests the two solvers' reports.
    SOLVE = {"c_lb", "c_ub", "apriori_err", "aposteriori_err", "iterations", "nu",
             "constrained", "s_max_estimate", "stop_reason", "p_hat", "lambda_hat",
             "wall_time"}
    BA = {"c_lb", "c_ub", "apriori_err", "iterations", "p", "wall_time", "stop_reason"}
    POISSON = {"peak", "dark_current", "M", "nu", "iterations", "tail_order",
               "trunc_error", "mutual_info", "dual_value", "g_sup", "g_nu", "iota",
               "c_lb", "c_ub", "c_lb_certified", "c_ub_certified", "lapidoth",
               "gamma_M", "quad_nodes", "quadrature_converged", "wall_time"}

    @pytest.mark.parametrize("argv, keys", [
        (["solve-dmc", "bsc:0.1", "--eps", "1e-2"], SOLVE),
        (["solve-ba", "bsc:0.1", "--eps", "1e-2"], BA),
        (["compare", "bsc:0.1", "--eps", "1e-2"], {"dual": SOLVE, "ba": BA}),
        (["perturb-solve", "bec:0.4", "--eps", "0.05"],
         SOLVE | {"perturbation", "delta_norm_ub", "correction"}),
        (["solve-poisson", "--peak-db", "0", "--trunc-m", "8", "--iterations", "100",
          "--nu", "0.05"], POISSON),
    ])
    def test_key_sets(self, capsys, tmp_path, argv, keys):
        out_path = tmp_path / "rep.json"
        code, _, _ = run_cli(capsys, argv + ["--quiet", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        if isinstance(keys, dict):
            assert {k: set(v) for k, v in payload.items()} == keys
        else:
            assert set(payload) == keys
