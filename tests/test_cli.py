import os
import subprocess
import sys

import numpy as np
import pytest

import thpalloc
from thpalloc.baselines import Architecture
from thpalloc.channel import scenario_preset
from thpalloc.cli import build_parser, load_config_file, main, parse_arch_list
from thpalloc.sim import DropResult


def run_main(args):
    return main(args)


class TestParsing:
    def test_fig5_command_parses(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--scenario", "S3", "--rho", "0.05,0.1,0.25,0.5",
             "--drops", "200", "--seed", "7", "--arch", "all",
             "--out", str(tmp_path / "fig5.csv")])
        assert args.scenario == "S3"
        assert args.rho == [0.05, 0.1, 0.25, 0.5]
        assert args.drops == 200
        assert args.seed == 7

    def test_users_axis_parses(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--scenario", "S1", "--users", "8,16,24,32",
             "--rho", "0.25", "--out", str(tmp_path / "o.csv")])
        assert args.users == [8, 16, 24, 32]

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        code = run_main(["sweep", "--scenario", "S9",
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "S1" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tmp_path):
        assert run_main(["sweep", "--scenario", "S1", "--frobnicate",
                         "--out", str(tmp_path / "o.csv")]) == 1

    def test_arch_list(self):
        assert parse_arch_list("all") == list(Architecture)
        assert parse_arch_list("ZfTx,ThpTx") == [Architecture.ZF_TX,
                                                 Architecture.THP_TX]
        with pytest.raises(ValueError):
            parse_arch_list("Nonsense")

    def test_bad_workers_env_is_usage_error(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("THPALLOC_WORKERS", "abc")
        assert run_main(["--help"]) == 0
        out = tmp_path / "o.csv"
        argv = ["sweep", "--scenario", "S3", "--drops", "1",
                "--arch", "ThpTxLinRx", "--out", str(out)]
        assert run_main(argv) == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()
        assert run_main(argv + ["--workers", "1"]) == 0  # flag beats env

    def test_drops_must_be_positive(self, tmp_path, capsys):
        code = run_main(["sweep", "--scenario", "S1", "--drops", "0",
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1


class TestConfigHelpers:
    def test_config_for_users_quota_floor(self):
        base = scenario_preset("S1", rho=0.25)
        cfg = base.with_users(24, 0.25)
        assert cfg.num_users == 24
        assert cfg.quota == (5,) * 24  # floor(64 * 2 / 24)
        assert cfg.mse_budget[0] == pytest.approx(5 * 1 * 0.25)

    def test_config_for_users_too_many(self):
        base = scenario_preset("S3", rho=0.25)
        with pytest.raises(ValueError, match="too many users"):
            base.with_users(64, 0.25)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# comment line\n"
            "num_subcarriers = 8\n"
            "num_users = 4\n"
            "tx_antennas = 4\n"
            "rx_antennas = 2\n"
            "streams_per_user = 2\n"
            "quota = 2\n"
            "mse_budget = 1.0\n"
            "rng_seed = 5\n")
        cfg = load_config_file(path)
        assert cfg.num_subcarriers == 8
        assert cfg.quota == (2, 2, 2, 2)
        assert cfg.mse_budget == (1.0, 1.0, 1.0, 1.0)
        assert cfg.rng_seed == 5

    def test_config_file_bad_key(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("num_subcarriers = 8\nbogus_field = 3\n")
        with pytest.raises(ValueError, match="bad config file"):
            load_config_file(path)


class TestEndToEnd:
    def test_small_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_main(["sweep", "--scenario", "S3", "--rho", "0.25,0.5",
                         "--drops", "2", "--seed", "3",
                         "--arch", "ThpTxLinRx,ZfTx", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("axis,architecture,mean_power_db,stderr_db,"
                            "drops,infeasible_rate,seed")
        assert len(lines) == 1 + 2 * 2  # 2 axis points x 2 architectures
        assert "rho=0.25" in capsys.readouterr().out

    def test_detail_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        detail = tmp_path / "detail.csv"
        code = run_main(["sweep", "--scenario", "S3", "--rho", "0.25",
                         "--drops", "3", "--arch", "ThpTxLinRx",
                         "--out", str(out), "--detail", str(detail)])
        assert code == 0
        lines = detail.read_text().strip().splitlines()
        assert lines[0] == "axis,architecture,drop,power_db,feasible"
        assert len(lines) == 1 + 3

    def test_seed_reproducibility_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--scenario", "S2", "--rho", "0.25", "--drops", "2",
                "--seed", "11", "--arch", "all"]
        assert run_main(argv + ["--out", str(a)]) == 0
        assert run_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w3.csv"
        argv = ["sweep", "--scenario", "S3", "--rho", "0.25", "--drops", "3",
                "--seed", "2", "--arch", "ThpTxLinRx,LinTxLinRx"]
        assert run_main(argv + ["--workers", "1", "--out", str(a)]) == 0
        assert run_main(argv + ["--workers", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("error")  # the warning line, not numpy's
    def test_point_without_feasible_drop_warns(self, tmp_path, capsys,
                                               monkeypatch):
        # the point keeps its nan row and the exit code stays 0, but
        # stderr names it with its infeasible rate
        run_drop = thpalloc.sim.run_drop

        def infeasible_at_16_users(config, channels, architecture):
            if config.num_users == 16:
                return DropResult(architecture=architecture, feasible=False)
            return run_drop(config, channels, architecture)

        monkeypatch.setattr(thpalloc.sim, "run_drop", infeasible_at_16_users)
        out = tmp_path / "o.csv"
        code = run_main(["sweep", "--scenario", "S3", "--users", "8,16",
                         "--drops", "2", "--arch", "ZfTx", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: users=16: no feasible drop (infeasible rate 1)"]
        rows = out.read_text().splitlines()
        assert rows[1].startswith("8,ZfTx,") and "nan" not in rows[1]
        assert rows[2] == "16,ZfTx,nan,0,2,1,0"

    @pytest.mark.parametrize("bad_line", ["min_user_distance_m = 150",
                                          "pdp_taps = 0"])
    def test_invalid_config_file_exits_2_promptly(self, tmp_path, bad_line):
        # a child process, so a hang fails on the timeout instead of
        # stalling the suite
        path = tmp_path / "scenario.cfg"
        path.write_text("num_subcarriers = 8\nnum_users = 4\n"
                        "tx_antennas = 4\nrx_antennas = 2\n"
                        "streams_per_user = 2\nquota = 2\n"
                        "mse_budget = 1.0\ncell_radius_m = 100\n"
                        f"{bad_line}\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(thpalloc.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "thpalloc.cli", "sweep", "--config",
             str(path), "--drops", "1", "--out", str(tmp_path / "o.csv")],
            env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert "error" in proc.stderr
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_non_finite_rho_exits_2(self, tmp_path, capsys, rho):
        out = tmp_path / "o.csv"
        code = run_main(["sweep", "--scenario", "S1", "--rho", rho,
                         "--drops", "2", "--out", str(out)])
        assert code == 2
        assert "mse_budget" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_noise_variance_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_text("num_subcarriers = 8\nnum_users = 4\n"
                        "tx_antennas = 4\nrx_antennas = 2\n"
                        "streams_per_user = 2\nquota = 2\n"
                        "mse_budget = 1.0\nnoise_variance = nan\n")
        out = tmp_path / "o.csv"
        code = run_main(["sweep", "--config", str(path), "--drops", "2",
                         "--out", str(out)])
        assert code == 2
        assert "noise_variance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError("singular")])
    def test_numerical_failure_exits_2(self, tmp_path, capsys, monkeypatch,
                                       error):
        # per-drop failures become infeasible drops; one that escapes the
        # sweep is a runtime error, not a traceback
        def failing_sweep(*args, **kwargs):
            raise error
        monkeypatch.setattr(thpalloc.cli, "run_sweep", failing_sweep)
        code = run_main(["sweep", "--scenario", "S3", "--drops", "1",
                         "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o.csv").exists()

    def test_numerical_failure_in_one_drop_finishes_sweep(self, tmp_path,
                                                          fail_first_svd):
        detail = tmp_path / "detail.csv"
        code = run_main(["sweep", "--scenario", "S3", "--drops", "2",
                         "--arch", "ThpTxLinRx", "--out",
                         str(tmp_path / "o.csv"), "--detail", str(detail)])
        assert code == 0
        assert [line.rsplit(",", 1)[1]
                for line in detail.read_text().splitlines()[1:]] == ["0", "1"]

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        code = run_main(["sweep", "--scenario", "S3", "--rho", "0.25",
                         "--drops", "1", "--arch", "ThpTxLinRx",
                         "--out", str(tmp_path / "missing_dir" / "o.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy's modules cost set-up time; the assignment solver imports
    # its matcher on first use, and nothing else may pull scipy in
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(thpalloc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, thpalloc.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
