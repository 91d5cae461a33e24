import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import thpalloc
from thpalloc import sim
from oracles import thp_bills
from thpalloc.assignment import InfeasibleAssignmentError, solve_assignment
from thpalloc.baselines import Architecture
from thpalloc.channel import (ChannelSet, ScenarioConfig, generate_drop,
                              scenario_preset)
from thpalloc.sim import (build_plans, link_level_verify, qam_symbols,
                          run_drop, run_sweep)


def tiny_config(**overrides):
    base = dict(num_subcarriers=8, num_users=4, tx_antennas=4, rx_antennas=2,
                streams_per_user=2, quota=(2, 2, 2, 2),
                mse_budget=(1.0, 1.0, 1.0, 1.0), rng_seed=0)
    base.update(overrides)
    return ScenarioConfig(**base)


ALL_ARCHS = tuple(Architecture)


def placement(result, num_subcarriers):
    """The users of a result on each subcarrier, in placement order."""
    placed = [[] for _ in range(num_subcarriers)]
    for users, assignment in zip(result.partition.groups,
                                 result.assignments):
        for n, j in np.argwhere(assignment.a).tolist():
            placed[n].append(users[j])
    return placed


@pytest.fixture
def solve_counts(monkeypatch):
    """Count the sweep's calls of sim.generate_drop and sim.run_drop."""
    counts = {"generate_drop": 0, "run_drop": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(sim, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sim, name, counted)
    return counts


# scenarios whose architectures share null-space prices and channel
# factors: the three presets (Q = 2) and two with Q = 3, where
# LinTxLinRx's third round meets another placement than the proposed
# scheme's; in the second, L < N_R, so ZfTx prices its first L rows
# without the factors
SHARING_SCENARIOS = {
    "S1": lambda: scenario_preset("S1", num_users=16),
    "S2": lambda: scenario_preset("S2"),
    "S3": lambda: scenario_preset("S3", num_users=16),
    "Q3": lambda: tiny_config(num_users=6, tx_antennas=6, quota=(4,) * 6,
                              mse_budget=(0.5,) * 6, rng_seed=24),
    "Q3-L1": lambda: tiny_config(num_subcarriers=12, num_users=6,
                                 tx_antennas=6, streams_per_user=1,
                                 quota=(2,) * 6, mse_budget=(1.0,) * 6),
}


def price_keys(memo):
    """The null-space price entries of a run_drop memo."""
    return {key for key in memo if key[0] == "prices"}


def assert_same_result(got, want):
    """Equal feasibility, assignments and total power, bit for bit."""
    assert got.feasible == want.feasible
    assert len(got.assignments) == len(want.assignments)
    for a, b in zip(got.assignments, want.assignments):
        np.testing.assert_array_equal(a.a, b.a)
    assert got.total_power == want.total_power or (
        math.isnan(got.total_power) and math.isnan(want.total_power))


class TestRunDrop:
    def test_forced_assignment(self):
        # one user per group, quota = N: every subcarrier is forced
        cfg = tiny_config(num_users=2, quota=(8, 8), mse_budget=(1.0, 1.0))
        channels = generate_drop(cfg, 0)
        res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
        assert res.feasible
        assert sum(int(a.a.sum()) for a in res.assignments) == 16
        total = cfg.symbol_variance * sum(a.total_cost
                                          for a in res.assignments)
        assert res.total_power == pytest.approx(total, rel=1e-9)

    def test_quota_satisfied_per_user(self):
        cfg = tiny_config(rng_seed=1)
        channels = generate_drop(cfg, 0)
        for arch in ALL_ARCHS:
            res = run_drop(cfg, channels, arch)
            assert res.feasible
            counts = {k: 0 for k in range(cfg.num_users)}
            for users, assignment in zip(res.partition.groups,
                                         res.assignments):
                for k, placed in zip(users, assignment.a.sum(axis=0)):
                    counts[k] += int(placed)
            assert all(counts[k] == cfg.quota[k] for k in counts)

    def test_analytic_mse_equals_budget(self):
        cfg = tiny_config(rng_seed=2)
        channels = generate_drop(cfg, 0)
        res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
        # verify from the transceivers themselves: per-user sum over its
        # subcarriers of sigma^2 * tr(G G^H) equals gamma_k
        sums = np.zeros(cfg.num_users)
        for plan in build_plans(cfg, channels, res):
            if plan is None:
                continue
            for k, g in zip(plan.users, plan.receiver):
                sums[k] += cfg.noise_variance * float(
                    np.trace(g @ g.conj().T).real)
        np.testing.assert_allclose(sums, cfg.mse_budget, rtol=1e-9)

    def test_power_accounting_identity(self):
        cfg = tiny_config(rng_seed=3)
        channels = generate_drop(cfg, 0)
        res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
        # tr(U^H U) = tr(F^H F), as F = V0 U with orthonormal V0
        tr_sum = sum(float(np.trace(f.conj().T @ f).real)
                     for plan in build_plans(cfg, channels, res)
                     if plan is not None
                     for f in plan.forward)
        assert res.total_power == pytest.approx(
            cfg.symbol_variance * tr_sum, rel=1e-9)
        assert res.power_db == pytest.approx(
            10 * math.log10(res.total_power / cfg.noise_variance))

    def test_doubling_budget_lowers_power(self):
        cfg = tiny_config(rng_seed=4)
        channels = generate_drop(cfg, 0)
        for arch in ALL_ARCHS:
            lo = run_drop(cfg, channels, arch)
            hi = run_drop(cfg.with_rho(1.0), channels, arch)
            base = run_drop(cfg.with_rho(0.5), channels, arch)
            assert hi.total_power < base.total_power
            assert lo.feasible and hi.feasible

    @given(preset=st.sampled_from(["S1", "S2", "S3"]),
           drop=st.integers(0, 50),
           rhos=st.lists(st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
                         min_size=2, max_size=2, unique=True))
    def test_power_scales_inversely_with_budget(self, preset, drop, rhos):
        # every cost model is exactly homogeneous of degree -1 in gamma,
        # so rho moves no assignment and shifts power_db by a constant
        rho1, rho2 = rhos
        cfg = scenario_preset(preset, num_users=8, rho=rho1)
        channels = generate_drop(cfg, drop)
        for arch in ALL_ARCHS:
            a = run_drop(cfg, channels, arch)
            b = run_drop(cfg.with_rho(rho2), channels, arch)
            assert a.feasible and b.feasible
            for ga, gb in zip(a.assignments, b.assignments):
                np.testing.assert_array_equal(ga.a, gb.a)
            assert b.power_db - a.power_db == pytest.approx(
                -10 * math.log10(rho2 / rho1), abs=1e-9)

    @given(preset=st.sampled_from(["S1", "S2", "S3"]),
           drop=st.integers(0, 50), data=st.data())
    def test_user_permutation_equivariance(self, preset, drop, data):
        # relabelling the users relabels the partition and the placement
        # and changes no cost
        cfg = scenario_preset(preset, num_users=8)
        perm = data.draw(st.permutations(range(cfg.num_users)))
        channels = generate_drop(cfg, drop)
        moved = ChannelSet(matrices=channels.matrices[:, perm],
                           user_positions=channels.user_positions[perm],
                           drop_id=drop)
        moved_cfg = dataclasses.replace(
            cfg, quota=tuple(cfg.quota[k] for k in perm),
            mse_budget=tuple(cfg.mse_budget[k] for k in perm))
        for arch in ALL_ARCHS:
            a = run_drop(cfg, channels, arch)
            b = run_drop(moved_cfg, moved, arch)
            assert a.feasible and b.feasible
            assert [[perm[i] for i in g] for g in b.partition.groups] == \
                [list(g) for g in a.partition.groups]
            for ga, gb in zip(a.assignments, b.assignments):
                np.testing.assert_array_equal(ga.a, gb.a)
            assert [gb.total_cost for gb in b.assignments] == \
                pytest.approx([ga.total_cost for ga in a.assignments],
                              rel=1e-12)
            assert b.power_db == pytest.approx(a.power_db, rel=1e-12)

    def test_proposed_never_above_linear(self):
        # THP feedback only relaxes the linear scheme's projections
        for seed in range(5):
            cfg = tiny_config(rng_seed=10 + seed)
            channels = generate_drop(cfg, 0)
            prop = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
            lin = run_drop(cfg, channels, Architecture.LIN_TX_LIN_RX)
            assert prop.total_power <= lin.total_power * (1 + 1e-9)

    def test_thp_final_power_bills_proposed_placement_exactly(self):
        # with N_R = L = 1 the stacked QR precoder's |r_kk| is the norm of
        # h_k projected off the earlier-placed users, i.e. the proposed
        # scheme's gain, so ThpTx's final power on the proposed placement
        # is the proposed power; the per-drop ordering of criterion 7
        # rests on this identity
        cfg = tiny_config(tx_antennas=2, rx_antennas=1, streams_per_user=1,
                          quota=(3, 3, 3, 3), mse_budget=(0.3, 0.5, 0.7, 0.9))
        for drop in range(3):
            channels = generate_drop(cfg, drop)
            res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
            assert res.feasible
            thp = 0.0
            for n, plan in enumerate(build_plans(cfg, channels, res)):
                if plan is None:
                    continue
                users = list(plan.users)
                thp += sum(thp_bills(
                    channels.matrices[n][users],
                    [cfg.mse_budget[k] for k in users],
                    [cfg.quota[k] for k in users],
                    cfg.noise_variance, cfg.streams_per_user))
            assert thp == pytest.approx(
                res.total_power / cfg.symbol_variance, rel=1e-12)

    def test_infeasible_reported_not_fatal(self):
        # more users per group than the transmit space supports on any
        # subcarrier cannot happen by config validation; force it with a
        # quota sum equal to N so a rank-deficient stack would be needed
        cfg = tiny_config(num_users=2, quota=(8, 8), mse_budget=(1.0, 1.0))
        flat = generate_drop(cfg, 0)
        broken = flat.matrices.copy()
        broken[:, 1] = broken[:, 0]  # second group duplicates the first
        channels = ChannelSet(matrices=broken,
                              user_positions=flat.user_positions, drop_id=0)
        res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
        assert not res.feasible
        assert res.infeasible_reason
        assert res.order is None

    # ThpTx is left out: its pricing and billing take no SVD
    @pytest.mark.parametrize("arch", [Architecture.THP_TX_LIN_RX,
                                      Architecture.ZF_TX,
                                      Architecture.LIN_TX_LIN_RX])
    def test_numerical_failure_makes_drop_infeasible(self, arch,
                                                     fail_first_svd):
        cfg = tiny_config(rng_seed=14)
        channels = generate_drop(cfg, 0)
        res = run_drop(cfg, channels, arch)
        assert not res.feasible
        assert "LinAlgError" in res.infeasible_reason

    @pytest.mark.parametrize("preset", ["S1", "S2", "S3"])
    def test_carried_power_bills_final_stacks(self, preset):
        # LinTxLinRx carries each stack's bill from the round that grew it
        # and ZfTx, priced in null spaces, bills its final stacks; both
        # equal the oracle's bill, and LinTxLinRx's prices are the growth
        # of that bill, so they add up to it
        cfg = scenario_preset(preset, num_users=16)
        for drop in range(3):
            channels = generate_drop(cfg, drop)
            for arch in (Architecture.ZF_TX, Architecture.LIN_TX_LIN_RX):
                res = run_drop(cfg, channels, arch)
                assert res.feasible
                assert res.total_power == pytest.approx(
                    oracles.baseline_final_power(
                        cfg, channels, placement(res, cfg.num_subcarriers),
                        arch), rel=1e-12)
                if arch is Architecture.LIN_TX_LIN_RX:
                    assert res.total_power == pytest.approx(
                        cfg.symbol_variance * sum(a.total_cost
                                                  for a in res.assignments),
                        rel=1e-12)

    @pytest.mark.parametrize("preset", ["S1", "S2", "S3"])
    def test_no_pseudo_inverse(self, preset, monkeypatch):
        # every stack and THP diagonal block is factored once; pinv would
        # factor it a second time
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.pinv called")

        monkeypatch.setattr(np.linalg, "pinv", refuse)
        cfg = scenario_preset(preset, num_users=8)
        channels = generate_drop(cfg, 0)
        results = {arch: run_drop(cfg, channels, arch) for arch in ALL_ARCHS}
        assert all(res.feasible for res in results.values())
        plans = build_plans(cfg, channels,
                            results[Architecture.THP_TX_LIN_RX])
        assert any(plan is not None for plan in plans)

    @pytest.mark.parametrize("preset, users", [("S1", 8), ("S1", 32),
                                               ("S2", None), ("S3", 32)])
    def test_partition_quality_is_channel_quality(self, preset, users,
                                                  monkeypatch):
        # channel_quality's one array pass must give the per-user
        # reference's values bit for bit, so no tie in the partition can
        # move
        seen = []
        partition = sim.partition_worst_first

        def spy(quality, group_count):
            seen.append(quality)
            return partition(quality, group_count)

        monkeypatch.setattr(sim, "partition_worst_first", spy)
        cfg = scenario_preset(preset, **({"num_users": users} if users
                                         else {}))
        for d in range(5):
            channels = generate_drop(cfg, d)
            run_drop(cfg, channels, Architecture.ZF_TX)
            loop = np.array([oracles.channel_quality(channels, k)
                             for k in range(cfg.num_users)])
            assert seen[-1].tobytes() == loop.tobytes()

    @pytest.mark.parametrize("scenario", sorted(SHARING_SCENARIOS))
    def test_shared_memo_matches_lone_solves(self, scenario):
        # a sweep prices each drop through one memo for all architectures;
        # in either order every result equals the architecture's lone solve
        # (the memo also holds the partition and the assignments; only its
        # price keys are compared here)
        cfg = SHARING_SCENARIOS[scenario]()
        diverged = False
        for drop in range(3):
            channels = generate_drop(cfg, drop)
            lone = {arch: run_drop(cfg, channels, arch) for arch in ALL_ARCHS}
            keys = {}
            for arch in ALL_ARCHS:
                memo = {}
                run_drop(cfg, channels, arch, memo=memo)
                keys[arch] = price_keys(memo)
            for order in (ALL_ARCHS, ALL_ARCHS[::-1]):
                memo = {}
                for arch in order:
                    assert_same_result(run_drop(cfg, channels, arch,
                                                memo=memo), lone[arch])
                assert price_keys(memo) == set().union(*keys.values())
                assert len(price_keys(memo)) < sum(map(len, keys.values()))
            diverged |= (keys[Architecture.THP_TX_LIN_RX]
                         != keys[Architecture.LIN_TX_LIN_RX])
        assert diverged == (cfg.group_count > 2)

    def test_shared_memo_solves_each_cost_matrix_once(self, monkeypatch):
        # on MISO links the first group's cost matrix is the same for the
        # proposed scheme, ThpTx and LinTxLinRx, so one memo solves it
        # once: 4 solves per drop instead of 6, each result bit-equal to
        # the lone solve
        calls = []
        solve = sim.solve_assignment

        def counted(costs, quotas):
            calls.append(None)
            return solve(costs, quotas)

        monkeypatch.setattr(sim, "solve_assignment", counted)
        cfg = scenario_preset("S1", num_users=16)
        archs = (Architecture.THP_TX_LIN_RX, Architecture.THP_TX,
                 Architecture.LIN_TX_LIN_RX)
        for drop in range(3):
            channels = generate_drop(cfg, drop)
            del calls[:]
            lone = {arch: run_drop(cfg, channels, arch) for arch in archs}
            assert len(calls) == 2 * len(archs)
            del calls[:]
            memo = {}
            for arch in archs:
                shared = run_drop(cfg, channels, arch, memo=memo)
                assert_same_result(shared, lone[arch])
                assert shared.order.tobytes() == lone[arch].order.tobytes()
            assert len(calls) == 4
            assert all(not a.a.flags.writeable
                       for a in shared.assignments)

    def test_shared_memo_derives_each_placements_buckets_once(self,
                                                             monkeypatch):
        # the four architectures of an S3 drop meet some placements more
        # than once; one memo splits each into its buckets (np.count_nonzero
        # of the placed users, in run_drop's part of sim only there) once
        splits, placements = [], []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def count_nonzero(self, *args, **kwargs):
                splits.append(None)
                return np.count_nonzero(*args, **kwargs)

        def spy(order, memo, _buckets=sim._buckets):
            placements.append(order.tobytes())
            return _buckets(order, memo)

        monkeypatch.setattr(sim, "np", CountingNumpy())
        monkeypatch.setattr(sim, "_buckets", spy)
        cfg = scenario_preset("S3", num_users=16)
        channels = generate_drop(cfg, 0)
        memo = {}
        for arch in ALL_ARCHS:
            assert run_drop(cfg, channels, arch, memo=memo).feasible
        assert len(splits) == len(set(placements)) < len(placements)

    def test_shared_memo_keeps_hall_infeasibility(self):
        # the two weakest users (group 0) can use only subcarriers 0 and 1
        # and need two each: counting passes, Hall fails; a group served
        # from the memo gives the lone solve's reason, and the memoized
        # error its blocking users
        cfg = tiny_config(rng_seed=3)
        drop = generate_drop(cfg, 0)
        weak = list(run_drop(cfg, drop, Architecture.ZF_TX).partition.groups[0])
        matrices = drop.matrices.copy()
        matrices[2:, weak] = 0.0
        channels = ChannelSet(matrices=matrices,
                              user_positions=drop.user_positions, drop_id=0)
        memo = {}
        for arch in ALL_ARCHS:
            lone = run_drop(cfg, channels, arch)
            shared = run_drop(cfg, channels, arch, memo=memo)
            assert not lone.feasible and not shared.feasible
            assert shared.infeasible_reason == lone.infeasible_reason
            assert "quotas cannot be met" in shared.infeasible_reason
        errors = {key: value for key, value in memo.items()
                  if key[0] == "assignment"}
        # the proposed scheme's and LinTxLinRx's first groups share one
        assert len(errors) == len(ALL_ARCHS) - 1
        for (_, costs, quotas), error in errors.items():
            assert isinstance(error, InfeasibleAssignmentError)
            costs = np.frombuffer(costs).reshape(-1, len(quotas))
            with pytest.raises(InfeasibleAssignmentError) as fresh:
                solve_assignment(costs, quotas)
            assert str(error) == str(fresh.value)
            assert error.blocking_users == fresh.value.blocking_users

    def test_infeasible_reason_names_users_not_columns(self):
        # the solver names columns of the group's cost matrix; the
        # reason names those users. User 3 has a channel on subcarrier 0
        # only but needs 2; this drop partitions as ((0, 3), (1, 2)), so
        # the reason names user 3 (not 1), while the memoized error
        # keeps the solver's own column
        cfg = ScenarioConfig(num_users=4, quota=(2,) * 4,
                             mse_budget=(1.0,) * 4, tx_antennas=2,
                             rx_antennas=1, streams_per_user=1,
                             num_subcarriers=4, bandwidth_hz=1e6)
        channels = generate_drop(cfg, 0)
        h = channels.matrices.copy()
        h[1:, 3] = 0.0
        channels = dataclasses.replace(channels, matrices=h)
        memo = {}
        for arch in ALL_ARCHS:
            res = run_drop(cfg, channels, arch, memo=memo)
            assert res.partition.groups == ((0, 3), (1, 2))
            assert res.infeasible_reason == ("quotas cannot be met for "
                                             "users [3]")
        errors = [value for key, value in memo.items()
                  if key[0] == "assignment"
                  and isinstance(value, InfeasibleAssignmentError)]
        assert errors and all(e.blocking_users == [1] for e in errors)

    def test_overflowing_total_is_not_rank_deficiency(self):
        # a budget of 1e-307 gives a finite weight of 2e307 and finite
        # prices and bills, but the drop's total power overflows; at 1e-300
        # the same drop is feasible
        def config(budget):
            return ScenarioConfig(num_subcarriers=4, num_users=4,
                                  tx_antennas=2, rx_antennas=1,
                                  streams_per_user=1, quota=(2,) * 4,
                                  mse_budget=(budget,) * 4)

        channels = generate_drop(config(1.0), 0)
        for arch in Architecture:
            res = run_drop(config(1e-307), channels, arch)
            assert not res.feasible
            assert res.infeasible_reason == "total transmit power overflows"
            res = run_drop(config(1e-300), channels, arch)
            assert res.feasible and math.isfinite(res.total_power)

    @pytest.mark.parametrize("arch", ALL_ARCHS, ids=lambda a: a.value)
    def test_overflowing_final_bills_are_not_rank_deficiency(self, arch):
        # at rho 1e-308 ThpTx's blind prices of this S1 drop are finite,
        # but its final bills overflow to +inf; so do the other totals.
        # Every architecture reads an overflow, none a lost rank
        cfg = scenario_preset("S1", rho=1e-308)
        res = run_drop(cfg, generate_drop(cfg, 0), arch)
        assert not res.feasible
        assert res.infeasible_reason == "total transmit power overflows"

    def test_rank_deficient_final_stack_reads_rank_deficiency(self):
        # ThpTx prices each user alone, so it places two users with the
        # same channel on the one subcarrier; their final stack has rank
        # 1, and its bills are +inf at any price weight, here 1e300
        cfg = ScenarioConfig(num_subcarriers=1, num_users=2, tx_antennas=2,
                             rx_antennas=1, streams_per_user=1,
                             quota=(1, 1), mse_budget=(1e-300, 1e-300))
        channels = generate_drop(cfg, 0)
        h = channels.matrices.copy()
        h[:, 1] = h[:, 0]
        res = run_drop(cfg, dataclasses.replace(channels, matrices=h),
                       Architecture.THP_TX)
        assert not res.feasible
        assert res.infeasible_reason == ("final precoder stack is rank "
                                         "deficient on some subcarrier")

    def test_drop_that_hung_the_solver_returns(self):
        # this S3 drop once sent the sparse matcher into an endless loop;
        # a child process, so a hang fails on the timeout instead of
        # stalling the suite
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(thpalloc.__file__)))
        code = ("from thpalloc.baselines import Architecture\n"
                "from thpalloc.channel import generate_drop, scenario_preset\n"
                "from thpalloc.sim import run_drop\n"
                "cfg = scenario_preset('S3', num_users=32, rng_seed=3)\n"
                "res = run_drop(cfg, generate_drop(cfg, 5), Architecture.ZF_TX)\n"
                "print(res.feasible, res.power_db)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        feasible, power_db = proc.stdout.split()
        assert feasible == "True" and math.isfinite(float(power_db))


class TestRunSweep:
    def test_single_drop_reduces_to_run_drop(self):
        cfg = tiny_config(rng_seed=6)
        res = run_sweep([(0.5, cfg.with_rho(0.5))], drops=1,
                        architectures=[Architecture.THP_TX_LIN_RX])
        direct = run_drop(cfg.with_rho(0.5), generate_drop(cfg, 0),
                          Architecture.THP_TX_LIN_RX)
        assert res.power_db[0, 0, 0] == pytest.approx(direct.power_db)

    def test_mean_monotone_in_rho(self):
        cfg = tiny_config(rng_seed=7)
        pts = [(r, cfg.with_rho(r)) for r in (0.25, 0.5, 1.0)]
        res = run_sweep(pts, drops=5, architectures=ALL_ARCHS)
        means = res.mean_power_db
        for a in range(len(ALL_ARCHS)):
            assert means[0, a] > means[1, a] > means[2, a]

    def test_paired_feasibility_mask(self):
        cfg = tiny_config(rng_seed=8)
        pts = [(0.5, cfg.with_rho(0.5))]
        res = run_sweep(pts, drops=4, architectures=ALL_ARCHS)
        assert res.feasible.shape == (1, 4)
        assert np.isfinite(res.power_db[0][:, res.feasible[0]]).all()

    def test_worker_count_does_not_change_values(self):
        cfg = tiny_config(rng_seed=9)
        pts = [(0.5, cfg.with_rho(0.5)), (1.0, cfg.with_rho(1.0))]
        serial = run_sweep(pts, drops=4, architectures=ALL_ARCHS, workers=1)
        parallel = run_sweep(pts, drops=4, architectures=ALL_ARCHS,
                             workers=3)
        np.testing.assert_array_equal(serial.power_db, parallel.power_db)
        np.testing.assert_array_equal(serial.feasible, parallel.feasible)

    @pytest.mark.parametrize("preset", ["S1", "S2", "S3"])
    def test_rho_sweep_solves_each_drop_once(self, preset, solve_counts):
        # the rho points of a drop share one solve; each point must still
        # equal a direct solve, so a rho-dependent cost model fails here
        base = scenario_preset(preset, num_users=8)
        pts = [(r, base.with_rho(r)) for r in (0.05, 0.1, 0.25, 0.5)]
        res = run_sweep(pts, drops=2, architectures=ALL_ARCHS)
        assert solve_counts == {"generate_drop": 2,
                                "run_drop": 2 * len(ALL_ARCHS)}
        for d in range(2):
            channels = generate_drop(base, d)
            for p, (_, cfg) in enumerate(pts):
                for a, arch in enumerate(ALL_ARCHS):
                    direct = run_drop(cfg, channels, arch)
                    swept = res.power_db[p, a, d]
                    assert math.isfinite(swept) == direct.feasible
                    if direct.feasible:
                        assert swept == pytest.approx(direct.power_db,
                                                      rel=1e-12)

    def test_other_axes_solve_each_point(self, solve_counts):
        cfg = tiny_config(rng_seed=15)
        uneven = dataclasses.replace(cfg, mse_budget=(2.0, 1.0, 1.0, 1.0))
        users = [(2.0, cfg.with_users(2, 0.5)), (4.0, cfg.with_users(4, 0.5))]
        for pts in ([(1.0, cfg), (2.0, uneven)], users):
            solve_counts.update(generate_drop=0, run_drop=0)
            res = run_sweep(pts, drops=2, architectures=ALL_ARCHS)
            assert solve_counts == {"generate_drop": 2 * 2,
                                    "run_drop": 2 * 2 * len(ALL_ARCHS)}
            for p, (_, point) in enumerate(pts):
                for d in range(2):
                    channels = generate_drop(point, d)
                    direct = [run_drop(point, channels, arch).power_db
                              for arch in ALL_ARCHS]
                    np.testing.assert_array_equal(res.power_db[p, :, d],
                                                  direct)

    def test_budget_ratio_out_of_range_is_its_own_class(self, solve_counts):
        # budgets 1e-300 and 1e300 are valid, but their ratio to the first
        # overflows (or underflows): each such point is solved alone, even
        # next to an equal point, and equals its direct solve
        cfg = ScenarioConfig(num_subcarriers=4, num_users=2, tx_antennas=2,
                             rx_antennas=1, streams_per_user=1, quota=(2, 2),
                             mse_budget=(1e-300, 1e300))
        flipped = dataclasses.replace(cfg, mse_budget=(1e300, 1e-300))
        pts = [(1.0, cfg), (2.0, flipped), (3.0, cfg)]
        res = run_sweep(pts, drops=2, architectures=ALL_ARCHS)
        assert solve_counts == {"generate_drop": 3 * 2,
                                "run_drop": 3 * 2 * len(ALL_ARCHS)}
        for p, (_, point) in enumerate(pts):
            for d in range(2):
                channels = generate_drop(point, d)
                direct = [run_drop(point, channels, arch).power_db
                          for arch in ALL_ARCHS]
                np.testing.assert_array_equal(res.power_db[p, :, d], direct)
        assert np.isfinite(res.power_db).all()

    def test_memo_shared_within_one_budget_class(self, monkeypatch):
        # the architectures of one drop and budget class share a memo; a
        # memo never serves another class, drop or config
        seen = []
        lone = sim.run_drop

        def spy(config, channels, architecture, *, memo=None):
            seen.append((config, channels.drop_id, memo))
            return lone(config, channels, architecture, memo=memo)

        monkeypatch.setattr(sim, "run_drop", spy)
        cfg = tiny_config(rng_seed=15)
        uneven = dataclasses.replace(cfg, mse_budget=(2.0, 1.0, 1.0, 1.0))
        pts = [(0.5, cfg.with_rho(0.5)), (1.0, uneven), (2.0, cfg)]
        run_sweep(pts, drops=2, architectures=ALL_ARCHS)
        memos = {id(memo): memo for _, _, memo in seen}
        assert len(memos) == 2 * 2 and None not in memos.values()
        for memo in memos.values():
            uses = [(config, drop) for config, drop, m in seen if m is memo]
            assert len(uses) == len(ALL_ARCHS) and len(set(uses)) == 1

    def test_summary_arrays_derived_once_and_read_only(self):
        # the summary CSV and the console read the same arrays
        cfg = tiny_config(rng_seed=9)
        res = run_sweep([(0.5, cfg.with_rho(0.5)), (1.0, cfg.with_rho(1.0))],
                        drops=3, architectures=ALL_ARCHS)
        for name in ("mean_power_db", "stderr_db"):
            summary = getattr(res, name)
            assert summary is getattr(res, name)
            assert summary.shape == (2, len(ALL_ARCHS))
            assert not summary.flags.writeable
            with pytest.raises(ValueError):
                summary[0, 0] = 0.0

    def test_pool_sized_to_drops(self, monkeypatch):
        # a pool forks no more workers than there are drops, and a single
        # worker runs in this process; the fake pool forks nothing
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        cfg = tiny_config(rng_seed=9)
        pts = [(0.5, cfg.with_rho(0.5))]
        for drops, workers in ((2, 64), (1, 8), (3, 2)):
            res = run_sweep(pts, drops=drops, architectures=ALL_ARCHS,
                            workers=workers)
            assert res.feasible.shape == (1, drops)
        assert sizes == [2, 2]

    def test_numerical_failure_does_not_abort_sweep(self, fail_first_svd):
        cfg = tiny_config(rng_seed=14)
        res = run_sweep([(0.5, cfg.with_rho(0.5))], drops=3,
                        architectures=ALL_ARCHS)
        assert res.feasible.tolist() == [[False, True, True]]


# link-level scenarios by name, built for a constellation size M: the
# three presets and one with Q = 3 co-channel users per subcarrier
LINK_SCENARIOS = {
    "S1": lambda m: scenario_preset("S1", rng_seed=21, constellation_size=m),
    # 60 slots on 64 subcarriers: one-user subcarriers follow two-user ones
    "S1-K24": lambda m: scenario_preset("S1", num_users=24, rng_seed=21,
                                        constellation_size=m),
    "S2": lambda m: scenario_preset("S2", rho=0.05, rng_seed=55,
                                    constellation_size=m),
    "S3": lambda m: scenario_preset("S3", rng_seed=23, constellation_size=m),
    "Q3": lambda m: tiny_config(num_users=6, tx_antennas=6, quota=(4,) * 6,
                                mse_budget=(0.5,) * 6, rng_seed=24,
                                constellation_size=m),
    # L < N_R: tall diagonal blocks H_p F_p, Q = 2 and Q = 3
    "4x2-L1": lambda m: tiny_config(streams_per_user=1, quota=(4,) * 4,
                                    rng_seed=25, constellation_size=m),
    "6x2-L1": lambda m: tiny_config(num_users=6, tx_antennas=6,
                                    streams_per_user=1, quota=(4,) * 6,
                                    mse_budget=(0.5,) * 6, rng_seed=26,
                                    constellation_size=m),
}


class TestBuildPlans:
    @pytest.mark.parametrize("scenario", sorted(LINK_SCENARIOS))
    def test_plans_match_scalar_reference(self, scenario):
        # the batched plans equal the one-pair-at-a-time reference: same
        # users in the same order, F, G and B within rel 1e-12
        cfg = LINK_SCENARIOS[scenario](16)
        for drop in range(3):
            channels = generate_drop(cfg, drop)
            res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
            assert res.feasible
            got = build_plans(cfg, channels, res)
            want = oracles.build_plans(cfg, channels, res)
            assert len(got) == len(want) == cfg.num_subcarriers
            assert max(len(p.users) for p in got
                       if p is not None) == cfg.group_count
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if g is None:
                    continue
                assert g.users == w.users
                for a, b in ((g.forward, w.forward), (g.receiver, w.receiver),
                             (g.b_matrix, w.b_matrix)):
                    assert a.shape == b.shape
                    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


class TestLinkLevel:
    def test_qam_symbol_variance(self):
        rng = np.random.default_rng(0)
        for m in (4, 16, 64):
            d = qam_symbols(rng, m, 200000)
            assert np.mean(np.abs(d) ** 2) == pytest.approx(
                2 * (m - 1) / 3, rel=0.02)

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    @pytest.mark.parametrize("shape", [7, (3, 50), (2, 0)])
    def test_qam_draws_equal_rng_choice(self, m, shape):
        # the link-level reference results depend on this draw stream
        rng, ref = np.random.default_rng(m), np.random.default_rng(m)
        levels = np.arange(-(math.isqrt(m) - 1), math.isqrt(m), 2)
        d = qam_symbols(rng, m, shape)
        want = (ref.choice(levels, shape)
                + 1j * ref.choice(levels, shape))
        assert d.shape == want.shape and d.dtype == want.dtype
        assert d.tobytes() == want.tobytes()
        assert rng.standard_normal(4).tobytes() == \
            ref.standard_normal(4).tobytes()

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    @pytest.mark.parametrize("scenario", sorted(LINK_SCENARIOS))
    def test_stacked_chain_matches_per_position_reference(self, scenario, m):
        cfg = LINK_SCENARIOS[scenario](m)
        channels = generate_drop(cfg, m % 5)
        res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
        assert res.feasible
        assert max(len(p.users) for p in build_plans(cfg, channels, res)
                   if p is not None) == cfg.group_count
        noisy = link_level_verify(cfg, channels, res, num_symbols=150, seed=m)
        np.testing.assert_allclose(
            noisy, oracles.link_level_verify(cfg, channels, res, 150, seed=m),
            rtol=1e-12, atol=0)
        # noiseless errors are rounding residue, so compare on the scale
        # of the noisy errors
        exact = link_level_verify(cfg, channels, res, num_symbols=150,
                                  seed=m, noiseless=True)
        ref = oracles.link_level_verify(cfg, channels, res, 150, seed=m,
                                        noiseless=True)
        np.testing.assert_allclose(exact, ref, rtol=0,
                                   atol=1e-12 * noisy.min())

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    @pytest.mark.parametrize("scenario", sorted(LINK_SCENARIOS))
    def test_chain_is_bit_equal_to_stacked_reference(self, scenario, m):
        # the chain reuses its buffers across subcarriers with 1..Q users;
        # rows left in them from a fuller subcarrier would change the bytes
        cfg = LINK_SCENARIOS[scenario](m)
        channels = generate_drop(cfg, m % 5)
        res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
        assert res.feasible
        for noiseless in (False, True):
            got = link_level_verify(cfg, channels, res, num_symbols=150,
                                    seed=m, noiseless=noiseless)
            want = oracles.stacked_link_level_verify(
                cfg, channels, res, 150, seed=m, noiseless=noiseless)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_symbols", [0, -1])
    def test_rejects_fewer_than_one_symbol(self, num_symbols):
        cfg = tiny_config(rng_seed=11)
        channels = generate_drop(cfg, 0)
        res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
        with pytest.raises(ValueError, match="num_symbols"):
            link_level_verify(cfg, channels, res, num_symbols)

    def test_noiseless_chain_is_exact(self):
        cfg = tiny_config(rng_seed=11)
        channels = generate_drop(cfg, 0)
        res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
        err = link_level_verify(cfg, channels, res, num_symbols=200,
                                noiseless=True)
        assert np.max(err) < 1e-18

    def test_noisy_chain_matches_budget(self):
        cfg = tiny_config(rng_seed=12, constellation_size=64,
                          mse_budget=(0.4, 0.4, 0.4, 0.4))
        channels = generate_drop(cfg, 0)
        res = run_drop(cfg, channels, Architecture.THP_TX_LIN_RX)
        err = link_level_verify(cfg, channels, res, num_symbols=20000,
                                seed=1)
        np.testing.assert_allclose(err, cfg.mse_budget, rtol=0.08)

    def test_requires_proposed_plans(self):
        cfg = tiny_config(rng_seed=13)
        channels = generate_drop(cfg, 0)
        res = run_drop(cfg, channels, Architecture.ZF_TX)
        with pytest.raises(ValueError, match="proposed"):
            link_level_verify(cfg, channels, res, 10)
