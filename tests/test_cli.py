import argparse
import contextlib
import dataclasses
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thpalloc
from thpalloc.baselines import Architecture
from thpalloc.channel import ScenarioConfig, scenario_preset
from thpalloc.cli import build_parser, load_config_file, main, parse_arch_list
from thpalloc.sim import DropResult


def run_main(args):
    return main(args)


def s1_detail_rows(tmp_path, capsys, rhos):
    """The --detail rows of a one-drop S1 sweep over the rho list `rhos`."""
    path = tmp_path / f"{rhos}.csv"
    code = run_main(["sweep", "--scenario", "S1", "--rho", rhos, "--drops",
                     "1", "--out", str(tmp_path / "o.csv"),
                     "--detail", str(path)])
    assert code == 0, capsys.readouterr().err
    return path.read_text().splitlines()[1:]


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

    def test_arch_list(self, tmp_path, capsys):
        assert parse_arch_list("all") == list(Architecture)
        assert parse_arch_list("ZfTx,ThpTx") == [Architecture.ZF_TX,
                                                 Architecture.THP_TX]
        with pytest.raises(ValueError):
            parse_arch_list("Nonsense")
        # a list of no architecture parses, and the sweep rejects it
        out = tmp_path / "o.csv"
        assert run_main(["sweep", "--scenario", "S1", "--arch", ",",
                         "--out", str(out)]) == 1
        assert ("error: at least one architecture required"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_workers_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run_main(["sweep", "--scenario", "S3", "--drops", "1",
                         "--workers", "abc", "--out", str(out)]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_parser_built_once_per_process(self, tmp_path):
        # main reuses one parser; a run in between leaves no state in it
        assert build_parser() is build_parser()
        a = ["sweep", "--scenario", "S3", "--drops", "1", "--arch",
             "ThpTxLinRx", "--out", str(tmp_path / "a.csv")]
        b = ["sweep", "--scenario", "S1", "--users", "8", "--rho", "0.5",
             "--seed", "3", "--arch", "ZfTx", "--out", str(tmp_path / "b.csv"),
             "--detail", str(tmp_path / "b-detail.csv")]
        assert run_main(a) == 0
        first = (tmp_path / "a.csv").read_bytes()
        assert run_main(b) == 0 and run_main(a) == 0
        assert (tmp_path / "a.csv").read_bytes() == first

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

    def test_config_file_own_budgets_and_seed(self, tmp_path, capsys):
        # without --rho and --seed a config file is swept at its own
        # budgets and seed, and its per-stream rho labels the axis
        def sweep(budget, *extra, code=0):
            cfg = tmp_path / "q3.cfg"
            cfg.write_text("num_subcarriers = 12\nnum_users = 6\n"
                           "tx_antennas = 6\nrx_antennas = 2\n"
                           "streams_per_user = 1\nquota = 2\n"
                           f"mse_budget = {budget}\nrng_seed = 4\n")
            out = tmp_path / "o.csv"
            assert run_main(["sweep", "--config", str(cfg), "--drops", "2",
                             "--arch", "all", "--out", str(out),
                             *extra]) == code
            return [row.split(",") for row in
                    out.read_text().splitlines()[1:]] if code == 0 else None

        low, high = sweep("1.0"), sweep("7.0")
        assert [row[0] for row in low] == ["0.5"] * 4
        assert [row[0] for row in high] == ["3.5"] * 4
        assert {row[-1] for row in low + high} == {"4"}
        for a, b in zip(low, high):  # every cost scales as 1/budget
            assert float(a[2]) - float(b[2]) == pytest.approx(
                10 * np.log10(7.0), rel=1e-9)
        assert sweep("1.0", "--rho", "0.5", "--seed", "4") == low
        assert sweep("1.0", "--seed", "5") != low
        mixed = "1.0,2.0,1.0,2.0,1.0,2.0"
        assert [row[0] for row in sweep(mixed)] == ["nan"] * 4
        # a users axis shares one rho: the file's if every user has the
        # same, else the one --rho gives
        assert [row[0] for row in sweep("1.0", "--users", "6")] == ["6"] * 4
        capsys.readouterr()
        sweep(mixed, "--users", "6", code=2)
        assert "--users needs --rho" in capsys.readouterr().err
        assert sweep(mixed, "--users", "6", "--rho", "0.5") == \
            sweep("1.0", "--users", "6")

    def test_preset_defaults_are_rho_quarter_seed_zero(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--scenario", "S1", "--drops", "2"]
        assert run_main(argv + ["--out", str(a)]) == 0
        assert run_main(argv + ["--rho", "0.25", "--seed", "0",
                                "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_reproducibility_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--scenario", "S2", "--rho", "0.25", "--drops", "2",
                "--seed", "11", "--arch", "all"]
        assert run_main(argv + ["--out", str(a)]) == 0
        assert run_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        # values below 2 run in-process, like 1
        argv = ["sweep", "--scenario", "S3", "--rho", "0.25", "--drops", "3",
                "--seed", "2", "--arch", "ThpTxLinRx,LinTxLinRx"]
        outputs = []
        for workers in ("1", "3", "0", "-1"):
            out = tmp_path / f"w{workers}.csv"
            assert run_main(argv + ["--workers", workers, "--out",
                                    str(out)]) == 0
            outputs.append(out.read_bytes())
        assert len(set(outputs)) == 1

    @pytest.mark.filterwarnings("error")  # the warning line, not numpy's
    def test_point_without_feasible_drop_warns(self, tmp_path, capsys,
                                               monkeypatch):
        # the point keeps its nan row and the exit code stays 0, but
        # stderr names it with its infeasible rate
        run_drop = thpalloc.sim.run_drop

        def infeasible_at_16_users(config, channels, architecture, *,
                                   memo=None):
            if config.num_users == 16:
                return DropResult(architecture=architecture, feasible=False)
            return run_drop(config, channels, architecture, memo=memo)

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
                                          "min_user_distance_m = 100",
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

    def test_quota_sum_over_any_group_exits_2(self, tmp_path, capsys):
        # users 0 and 2 need 3 of 4 subcarriers each and may share a
        # group on some drop, so the file is rejected before any drop
        path = tmp_path / "scenario.cfg"
        path.write_text("num_subcarriers = 4\nnum_users = 4\n"
                        "tx_antennas = 2\nrx_antennas = 1\n"
                        "streams_per_user = 1\nquota = 3,1,3,1\n"
                        "mse_budget = 1.0\n")
        out = tmp_path / "o.csv"
        assert run_main(["sweep", "--config", str(path), "--drops", "1",
                         "--out", str(out)]) == 2
        assert "quota sum" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("quota", ["2.5", "2,2.5,2,2", "nan", "inf"])
    def test_non_integer_quota_exits_2(self, tmp_path, capsys, quota):
        path = tmp_path / "scenario.cfg"
        path.write_text("\n".join(_lines(quota=quota)) + "\n")
        out = tmp_path / "o.csv"
        assert run_main(["sweep", "--config", str(path), "--drops", "1",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err
        assert not out.exists()

    def test_no_users_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run_main(["sweep", "--scenario", "S1", "--users", "0",
                         "--drops", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: num_users must be >= 1, got 0"]
        assert not out.exists()

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

    def test_budgets_of_extreme_ratio_run(self, tmp_path, capsys):
        # budgets 1e-300 and 1e300 give finite price weights (2e300 and
        # 2e-300), though their ratio overflows: the sweep's budget class
        # must not re-validate a config built from that ratio
        path = tmp_path / "scenario.cfg"
        path.write_text("num_subcarriers = 4\nnum_users = 2\n"
                        "tx_antennas = 2\nrx_antennas = 1\n"
                        "streams_per_user = 1\nquota = 2\n"
                        "mse_budget = 1e-300,1e300\n")
        out = tmp_path / "o.csv"
        code = run_main(["sweep", "--config", str(path), "--drops", "2",
                         "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == len(Architecture)
        assert all(np.isfinite(float(row[2])) for row in rows)

    @pytest.mark.parametrize("rhos", ["1e-290,1e290", "1e-300,1e20"])
    def test_budget_class_rescale_out_of_range_runs(self, tmp_path, capsys,
                                                    rhos):
        # each pair shares a budget class, but the rescale between them
        # underflows to 0 or to the subnormal 1e-320: each point must be
        # solved as if alone
        both = s1_detail_rows(tmp_path, capsys, rhos)
        assert both == sum((s1_detail_rows(tmp_path, capsys, rho)
                            for rho in rhos.split(",")), [])
        assert all(np.isfinite(float(row.split(",")[3])) for row in both)

    @pytest.mark.parametrize("rhos", ["1e-5,1e-307", "1e-307,1e-5"])
    def test_budget_class_reuses_only_feasible_finite_results(
            self, tmp_path, capsys, rhos):
        # rho 1e-307 overflows the total power; rescaled from 1e-5 it
        # once was a feasible +inf dB, and 1e-5 rescaled from it
        # infeasible: each point must be solved as if alone
        both = s1_detail_rows(tmp_path, capsys, rhos)
        assert both == sum((s1_detail_rows(tmp_path, capsys, rho)
                            for rho in rhos.split(",")), [])
        for row in both:
            axis, _, _, power = row.split(",")[:4]
            assert np.isfinite(float(power)) == (axis == "1e-05")

    def test_overflowing_budget_is_infeasible_without_warning(self, tmp_path,
                                                              capsys):
        # at rho 1e-307 prices and bills overflow to +inf: every drop is
        # infeasible, and numpy prints no overflow warning
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_main(["sweep", "--scenario", "S1", "--rho", "1e-307",
                             "--drops", "1", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == len(Architecture)
        assert all(row[2] == "nan" and row[5] == "1" for row in rows)

    def test_decay_above_one_runs_without_overflow(self, tmp_path, capsys):
        # a decay of 1e50 over 8 taps once overflowed the last tap's power
        path = tmp_path / "scenario.cfg"
        path.write_text("\n".join(_lines(pdp_decay="1e50")) + "\n")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_main(["sweep", "--config", str(path), "--drops", "2",
                             "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows and all(np.isfinite(float(row[2])) for row in rows)

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


_BUDGETS = ("0", "1e-320", "nan") + ("0.25", "1.0", "4") * 3
_MALFORMED = ("garbage", "= 3", "num_users = x", "quota = 1,,2",
              "unknown_key = 1", "mse_budget", "num_users = 2.5")
# a valid 2x1 scenario with N = 4, K = 4 and quota 2, for the repros
_SMALL = dict(num_subcarriers=4, num_users=4, tx_antennas=2, rx_antennas=1,
              streams_per_user=1, quota=2, mse_budget=1.0)


def _lines(**fields):
    fields = dict(_SMALL, **fields)
    return [f"{key} = {value}" for key, value in fields.items()]


@st.composite
def config_files(draw):
    """Lines of a small config file: a scenario that mostly passes
    construction (counts in 1..8, Q groups of N_R antennas each, one
    quota and budget or one per user, mixed, a cell radius in 1..8 and a
    least user distance up to it), then as often as not one
    field set to any value in -1..8, a budget of 0, 1e-320 or NaN, a
    noise variance, a missing field or a malformed line."""
    rx = draw(st.integers(1, 4))
    groups = draw(st.integers(1, 8 // rx))
    users = groups * draw(st.integers(1, 8 // groups))
    subcarriers = draw(st.integers(1, 8))
    per_user = draw(st.sampled_from([1, users]))
    radius = draw(st.integers(1, 8))
    fields = dict(
        num_subcarriers=subcarriers, num_users=users,
        tx_antennas=rx * groups, rx_antennas=rx,
        streams_per_user=draw(st.integers(1, rx)),
        pdp_taps=draw(st.integers(1, 8)), rng_seed=draw(st.integers(0, 8)),
        cell_radius_m=radius,
        min_user_distance_m=draw(st.integers(0, radius)),
        quota=",".join(str(draw(st.integers(
            1, max(1, subcarriers * groups // users))))
            for _ in range(per_user)),
        mse_budget=",".join(draw(st.sampled_from(_BUDGETS))
                            for _ in range(per_user)))
    if draw(st.booleans()):
        fields[draw(st.sampled_from(sorted(fields)))] = draw(
            st.integers(-1, 8))
    if draw(st.integers(0, 3)) == 0:
        fields["noise_variance"] = draw(st.sampled_from(["-1", "0", "2.5"]))
    if draw(st.integers(0, 5)) == 0:
        del fields[draw(st.sampled_from(sorted(fields)))]
    lines = [f"{key} = {value}" for key, value in fields.items()]
    if draw(st.integers(0, 5)) == 0:
        lines.append(draw(st.sampled_from(_MALFORMED)))
    return draw(st.permutations(lines))


@settings(max_examples=150)
@given(lines=config_files())
@example(lines=_lines())
@example(lines=_lines(num_subcarriers=12, num_users=6, tx_antennas=6,
                      rx_antennas=2, quota="1,2,1,2,2,1"))
@example(lines=_lines(num_users=0))
@example(lines=_lines(quota="0,2,2,2"))
@example(lines=_lines(quota="-1,2,2,2"))
@example(lines=_lines(num_subcarriers=0))
@example(lines=_lines(streams_per_user=0))
@example(lines=_lines(rx_antennas=0))
@example(lines=_lines(mse_budget=1e-320))
@example(lines=_lines(num_users=2, mse_budget="1e-300,1e300"))
@example(lines=_lines(pdp_decay=-1))
@example(lines=_lines(pdp_decay="nan"))
@example(lines=_lines(pathloss_exponent=-4))
@example(lines=_lines(pathloss_exponent=2000))
@example(lines=_lines(pdp_decay=1e50))
@example(lines=_lines(pdp_decay=1e300))
def test_fuzzed_config_files_exit_cleanly(lines):
    # any file: no exception out of main, a documented exit code, one
    # error line with exit code 2, and a CSV only on success
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "fuzz.cfg"), os.path.join(tmp, "o.csv")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = main(["sweep", "--config", path, "--drops", "1",
                         "--arch", "all", "--out", out])
        assert code in (0, 1, 2)
        assert os.path.exists(out) == (code == 0)
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    assert len(errors) == (code == 2)


@settings(max_examples=40)
@given(rhos=st.lists(st.floats(-308.0, 308.0).map(lambda e: 10.0 ** e),
                     min_size=1, max_size=3))
@example(rhos=[1e-290, 1e290])
@example(rhos=[1e-307, 1e-5])
@example(rhos=[1e300, 1e-300])
@example(rhos=[1e-300, 1e-20, 1e300])
def test_fuzzed_rho_lists_exit_cleanly(rhos):
    # any rho magnitudes from 1e-308 to 1e308, shared budget class or
    # not: a documented exit code, and no exception or math domain error
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "o.csv")
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = main(["sweep", "--scenario", "S1", "--rho",
                         ",".join(repr(r) for r in rhos), "--drops", "1",
                         "--arch", "all", "--out", out])
        assert code in (0, 1, 2)
        assert os.path.exists(out) == (code == 0)
    assert "math domain error" not in err.getvalue()
    assert "Traceback" not in err.getvalue()


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


def test_serial_run_loads_no_process_pool(tmp_path):
    # the process pool is imported only by a run with --workers > 1, so
    # a serial run never loads multiprocessing; a pool started from a
    # process that had not imported it gives the serial run's bytes
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(thpalloc.__file__)))
    code = ("import sys, thpalloc.cli\n"
            "print('concurrent.futures.process' in sys.modules)\n"
            f"out = {str(tmp_path)!r}\n"
            "for w in ('1', '2'):\n"
            "    assert thpalloc.cli.main(['sweep', '--scenario', 'S3',\n"
            "        '--drops', '2', '--workers', w, '--out',\n"
            "        f'{out}/w{w}.csv', '--detail', f'{out}/d{w}.csv']) == 0\n"
            "    print('concurrent.futures.process' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines()
              if line in ("False", "True")]
    assert loaded == ["False", "False", "True"]
    for name in ("w", "d"):
        assert ((tmp_path / f"{name}1.csv").read_bytes()
                == (tmp_path / f"{name}2.csv").read_bytes())


ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestReadme:
    """README.md states the CLI contract and the layout of today's code."""

    @property
    def text(self):
        return (ROOT / "README.md").read_text()

    def shell_lines(self):
        """The lines of the fenced sh blocks, continuations joined."""
        blocks = re.findall(r"^```sh\n(.*?)^```$", self.text, re.M | re.S)
        return "\n".join(blocks).replace("\\\n", " ").splitlines()

    def test_at_most_250_lines(self):
        assert len(self.text.splitlines()) <= 250

    def test_commands_parse(self):
        commands = [shlex.split(line, comments=True)
                    for line in self.shell_lines()
                    if line.startswith("thpalloc")]
        assert len(commands) >= 3
        for argv in commands:
            build_parser().parse_args(argv[1:])

    def test_every_option_is_named(self):
        sweep = next(action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)
                     ).choices["sweep"]
        options = [option for action in sweep._actions
                   for option in action.option_strings
                   if option.startswith("--") and option != "--help"]
        assert options
        for option in options:
            assert re.search(f"`{option}[ `]", self.text), option

    def test_csv_headers_are_the_written_ones(self, tmp_path):
        out, detail = tmp_path / "o.csv", tmp_path / "d.csv"
        assert run_main(["sweep", "--scenario", "S1", "--arch", "ThpTx",
                         "--drops", "1", "--out", str(out),
                         "--detail", str(detail)]) == 0
        headers = [line for line in self.text.splitlines()
                   if line.startswith("axis,architecture,")]
        assert headers == [out.read_text().splitlines()[0],
                           detail.read_text().splitlines()[0]]

    def test_every_config_key_is_named(self):
        for field in dataclasses.fields(ScenarioConfig):
            assert f"`{field.name}`" in self.text, field.name

    def test_every_module_and_tool_is_named(self):
        package = pathlib.Path(thpalloc.__file__).parent
        modules = [path.name for path in package.glob("*.py")
                   if path.name != "__init__.py"]
        tools = [f"tools/{path.name}" for path in (ROOT / "tools").glob("*.py")]
        assert len(modules) > 1 and tools
        for name in modules + tools:
            assert re.search(rf"\b{re.escape(name)}\b", self.text), name
