import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
import thpalloc
from thpalloc import channel
from thpalloc.channel import (ScenarioConfig, generate_drop, pdp_powers,
                              scenario_preset)


def small_config(**overrides) -> ScenarioConfig:
    base = dict(num_subcarriers=8, num_users=4, tx_antennas=4, rx_antennas=2,
                streams_per_user=2, quota=(2, 2, 2, 2),
                mse_budget=(1.0, 1.0, 1.0, 1.0))
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioPreset:
    def test_s1_dimensions(self):
        cfg = scenario_preset("S1")
        assert (cfg.tx_antennas, cfg.rx_antennas) == (2, 1)
        assert cfg.bandwidth_hz == 10e6
        assert cfg.num_subcarriers == 64
        assert cfg.streams_per_user == 1
        assert cfg.quota == (8,) * 16

    def test_s3_dimensions(self):
        cfg = scenario_preset("S3")
        assert (cfg.tx_antennas, cfg.rx_antennas) == (8, 4)
        assert cfg.bandwidth_hz == 2.5e6
        assert cfg.num_subcarriers == 16
        assert cfg.streams_per_user == 4
        assert cfg.quota == (2,) * 16

    def test_s2_channels_per_user(self):
        cfg = scenario_preset("S2")
        assert cfg.group_count == 2
        assert cfg.quota == (4,) * 16
        assert cfg.quota[0] * cfg.streams_per_user == 8

    def test_budget_scales_with_rho(self):
        for sid in ("S1", "S2", "S3"):
            cfg = scenario_preset(sid, rho=0.25)
            # every preset carries 8 channels per user -> budget 8 * rho
            assert cfg.mse_budget == pytest.approx((2.0,) * 16)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="S1"):
            scenario_preset("S9")

    def test_symbol_variance(self):
        assert small_config().symbol_variance == pytest.approx(10.0)
        assert small_config(constellation_size=64).symbol_variance == \
            pytest.approx(42.0)

    def test_group_count_is_antenna_ratio(self):
        assert scenario_preset("S1").group_count == 2
        assert scenario_preset("S2").group_count == 2
        assert scenario_preset("S3").group_count == 2

    def test_with_rho(self):
        cfg = small_config().with_rho(0.5)
        assert cfg.mse_budget == pytest.approx((2.0,) * 4)

    def test_price_weight_is_noise_times_quota_over_budget(self):
        mixed = small_config(quota=(1, 2, 3, 2), noise_variance=1.7,
                             mse_budget=(0.3, 0.7, 1.1, 0.9))
        for cfg in [scenario_preset(s) for s in ("S1", "S2", "S3")] + [mixed]:
            want = [cfg.noise_variance * (n / g)
                    for n, g in zip(cfg.quota, cfg.mse_budget)]
            assert cfg.price_weight.tolist() == want  # bit for bit

    def test_price_weight_derived_once_and_read_only(self):
        cfg = small_config(mse_budget=(0.3, 0.7, 1.1, 0.9))
        assert cfg.price_weight is cfg.price_weight
        with pytest.raises(ValueError, match="read-only"):
            cfg.price_weight[0] = 1.0
        # a replaced config derives its own; equality and hashing see
        # the fields only
        looser = dataclasses.replace(cfg, mse_budget=(0.6, 1.4, 2.2, 1.8))
        np.testing.assert_array_equal(looser.price_weight,
                                      cfg.price_weight / 2)
        assert dataclasses.replace(cfg) == cfg
        assert hash(dataclasses.replace(cfg)) == hash(cfg)


class TestConfigValidation:
    def test_streams_exceed_receive_antennas(self):
        with pytest.raises(ValueError, match="receive antennas"):
            small_config(streams_per_user=4, tx_antennas=8, rx_antennas=3,
                         num_users=4)

    def test_streams_exceed_transmit_space(self):
        with pytest.raises(ValueError, match="transmit space|receive"):
            small_config(streams_per_user=3, rx_antennas=2)

    def test_users_not_divisible_by_groups(self):
        with pytest.raises(ValueError, match="divisible"):
            small_config(num_users=3, quota=(2, 2, 2),
                         mse_budget=(1.0, 1.0, 1.0))

    def test_group_quota_exceeds_subcarriers(self):
        with pytest.raises(ValueError, match="quota sum"):
            small_config(quota=(5, 4, 2, 2))
        # groups form per drop: users 0 and 2 may share one, 6 > 4
        with pytest.raises(ValueError, match="quota sum"):
            small_config(num_subcarriers=4, tx_antennas=2, rx_antennas=1,
                         streams_per_user=1, quota=(3, 1, 3, 1))

    @pytest.mark.parametrize("field, value", [
        ("num_subcarriers", 0), ("num_users", 0), ("rx_antennas", 0),
        ("streams_per_user", 0), ("quota", (0, 2, 2, 2)),
        ("quota", (-1, 2, 2, 2))])
    def test_count_below_one(self, field, value):
        # checked before group_count divides by rx_antennas, and before a
        # drop replicates a negative quota
        with pytest.raises(ValueError, match=">= 1"):
            small_config(**{field: value})

    @pytest.mark.parametrize("quota", [(2.5, 3.9), (2, math.nan),
                                       (math.inf, 2), (2.0, 2.5)])
    def test_non_integer_quota(self, quota):
        # a quota prices as n_k but assigns int(n_k) subcarriers: rejected
        with pytest.raises(ValueError, match="quotas must be integers"):
            ScenarioConfig(num_subcarriers=8, num_users=2, tx_antennas=2,
                           rx_antennas=1, streams_per_user=1, quota=quota,
                           mse_budget=(1.0, 1.0))

    @pytest.mark.parametrize("quota", [(2, 3), (2.0, 3.0),
                                       (np.int64(2), np.int32(3))])
    def test_integer_valued_quota_accepted(self, quota):
        cfg = ScenarioConfig(num_subcarriers=8, num_users=2, tx_antennas=2,
                             rx_antennas=1, streams_per_user=1, quota=quota,
                             mse_budget=(1.0, 1.0))
        np.testing.assert_array_equal(cfg.price_weight, [2.0, 3.0])

    @pytest.mark.parametrize("users", [0, -2])
    def test_with_users_needs_a_user(self, users):
        with pytest.raises(ValueError, match="num_users must be >= 1"):
            small_config().with_users(users, 0.25)

    def test_price_weight_overflow(self):
        # quota / 1e-320 overflows: rejected, and without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="price weight"):
                small_config(mse_budget=(1e-320, 1.0, 1.0, 1.0))

    def test_nonpositive_budget(self):
        with pytest.raises(ValueError, match="positive"):
            small_config(mse_budget=(1.0, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget(self, budget):
        # NaN compares False with everything, so `g <= 0` let it through
        with pytest.raises(ValueError, match="mse_budget.*finite"):
            small_config(mse_budget=(1.0, budget, 1.0, 1.0))

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_noise_variance(self, noise):
        with pytest.raises(ValueError, match="noise_variance.*finite"):
            small_config(noise_variance=noise)

    def test_bad_constellation(self):
        with pytest.raises(ValueError, match="constellation_size"):
            small_config(constellation_size=32)

    def test_no_pdp_taps(self):
        with pytest.raises(ValueError, match="pdp_taps"):
            small_config(pdp_taps=0)

    def test_nonpositive_cell_radius(self):
        with pytest.raises(ValueError, match="cell_radius_m"):
            small_config(cell_radius_m=0.0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_cell_radius(self, radius):
        # an infinite cell made the position sampler's draw raise
        # OverflowError, a traceback out of the CLI
        with pytest.raises(ValueError, match="cell_radius_m"):
            small_config(cell_radius_m=radius)

    @pytest.mark.parametrize("distance", [-1.0, 150.0])
    def test_min_user_distance_outside_cell(self, distance):
        # beyond the radius, the placement sampler could never accept
        with pytest.raises(ValueError, match="min_user_distance_m"):
            small_config(cell_radius_m=100.0, min_user_distance_m=distance)

    @pytest.mark.parametrize("distance", [100.0, 99.5])
    def test_min_user_distance_leaves_no_ring(self, distance):
        # the sampler keeps the points of a square that fall in the ring;
        # under 1% of the square (or none) it would take (almost) forever
        with pytest.raises(ValueError, match="min_user_distance_m"):
            small_config(cell_radius_m=100.0, min_user_distance_m=distance)

    def test_narrowest_ring_draws_promptly(self):
        # the narrowest ring construction accepts (r0/R = 0.993, 1.1% of
        # the square): a drop's positions in a child process, so a hang
        # fails on the timeout instead of stalling the suite
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(thpalloc.__file__)))
        code = ("import numpy as np\n"
                "from thpalloc.channel import ScenarioConfig, generate_drop\n"
                "cfg = ScenarioConfig(num_subcarriers=64, num_users=64,\n"
                "    tx_antennas=2, rx_antennas=1, streams_per_user=1,\n"
                "    quota=(2,) * 64, mse_budget=(1.0,) * 64,\n"
                "    cell_radius_m=100.0, min_user_distance_m=99.3)\n"
                "for drop in range(20):\n"
                "    d = np.hypot(*generate_drop(cfg, drop).user_positions.T)\n"
                "    assert d.size == 64 and (d >= 99.3).all(), d\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("field, value", [
        ("pdp_decay", -1.0), ("pdp_decay", math.nan), ("pdp_decay", math.inf),
        ("pathloss_exponent", -4.0), ("pathloss_exponent", math.nan),
        ("pathloss_exponent", math.inf)])
    def test_bad_pdp_decay_or_pathloss_exponent(self, field, value):
        # a negative or NaN decay failed only at the first drop (a zero
        # or NaN tap sum), and a negative exponent ran with path gain
        # growing with distance
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_config(**{field: value})

    def test_zero_pdp_decay_and_pathloss_exponent_accepted(self):
        # a zero decay is the derived default; a zero exponent gives every
        # distance the cell edge's gain
        cfg = small_config(pdp_decay=0.0, pathloss_exponent=0.0)
        assert cfg.pdp_decay == small_config().pdp_decay
        near, far = (generate_drop(cfg, 0, positions=np.tile([d, 0.0], (4, 1)))
                     for d in (30.0, 90.0))
        np.testing.assert_array_equal(near.matrices, far.matrices)

    def test_default_pdp_decay_is_20db_over_taps(self):
        cfg = small_config()
        assert cfg.pdp_decay ** (cfg.pdp_taps - 1) == pytest.approx(0.01)


class TestGenerateDrop:
    def test_reproducible(self):
        cfg = small_config(rng_seed=11)
        a = generate_drop(cfg, 3)
        b = generate_drop(cfg, 3)
        assert np.array_equal(a.matrices, b.matrices)
        assert np.array_equal(a.user_positions, b.user_positions)

    def test_distinct_drops_differ(self):
        cfg = small_config(rng_seed=11)
        a = generate_drop(cfg, 0)
        b = generate_drop(cfg, 1)
        assert not np.array_equal(a.matrices, b.matrices)

    def test_single_tap_is_flat(self):
        cfg = small_config(pdp_taps=1)
        ch = generate_drop(cfg, 0)
        for n in range(1, cfg.num_subcarriers):
            np.testing.assert_allclose(ch.matrices[n], ch.matrices[0],
                                       rtol=1e-12)

    def test_pdp_energy_normalized(self):
        # extreme decays too: powers count from the largest tap, so a
        # decay above 1 cannot overflow the last tap
        for taps, decay in [(8, 0.5), (1, 1.0), (16, 0.9), (4, 0.05),
                            (8, 1e-300), (8, 1.0), (8, 1e50), (8, 1e300)]:
            p = pdp_powers(taps, decay)
            assert np.all(np.isfinite(p))
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shapes_and_finite(self):
        cfg = small_config()
        ch = generate_drop(cfg, 0)
        assert ch.matrices.shape == (8, 4, 2, 4)
        assert np.all(np.isfinite(ch.matrices))
        assert ch.drop_id == 0

    def test_positions_inside_cell(self):
        cfg = small_config(rng_seed=5)
        for d in range(20):
            pos = generate_drop(cfg, d).user_positions
            dist = np.hypot(pos[:, 0], pos[:, 1])
            assert np.all(dist >= cfg.min_user_distance_m)
            assert np.all(dist <= cfg.cell_radius_m)

    @pytest.mark.parametrize("min_distance", [0.0, 10.0, 90.0])
    def test_positions_take_one_at_a_time_draws(self, monkeypatch,
                                                min_distance):
        # one rejection sample per unplaced user at a time never draws
        # past the last acceptance: the positions, and the generator the
        # fading starts from, are those of one sample at a time
        drop_rng = channel._drop_rng
        first_normal = []

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def uniform(self, *args):
                return self.rng.uniform(*args)

            def standard_normal(self, shape):
                out = self.rng.standard_normal(shape)
                first_normal.append(out.flat[0])
                return out

        monkeypatch.setattr(channel, "_drop_rng",
                            lambda seed, drop: Spy(drop_rng(seed, drop)))
        for seed in range(40):
            cfg = small_config(num_users=8, quota=(1,) * 8,
                               mse_budget=(1.0,) * 8, rng_seed=seed,
                               min_user_distance_m=min_distance)
            first_normal.clear()
            got = generate_drop(cfg, seed % 5).user_positions
            rng = drop_rng(seed, seed % 5)
            np.testing.assert_array_equal(got,
                                          oracles.user_positions(rng, cfg))
            assert first_normal[0] == rng.standard_normal()

    def test_pathloss_scaling_on_pinned_positions(self):
        # same fading realization, two position sets -> exact beta-law ratio
        cfg = small_config(rng_seed=7)
        near = np.tile([30.0, 0.0], (4, 1))
        far = np.tile([90.0, 0.0], (4, 1))
        h_near = generate_drop(cfg, 0, positions=near).matrices
        h_far = generate_drop(cfg, 0, positions=far).matrices
        ratio = (np.abs(h_near) ** 2).sum() / (np.abs(h_far) ** 2).sum()
        assert ratio == pytest.approx(3.0 ** cfg.pathloss_exponent,
                                      rel=1e-12)

    def test_cell_edge_unit_mean_energy(self):
        # Monte Carlo check of the unit-gain normalization at the edge
        cfg = small_config(rng_seed=13)
        edge = np.tile([cfg.cell_radius_m, 0.0], (4, 1))
        acc = 0.0
        drops = 400
        for d in range(drops):
            h = generate_drop(cfg, d, positions=edge).matrices
            acc += (np.abs(h) ** 2).mean()
        assert acc / drops == pytest.approx(1.0, rel=0.02)



class TestDropTables:
    @pytest.mark.parametrize("config", [
        scenario_preset("S1", rng_seed=3), scenario_preset("S2", rng_seed=4),
        scenario_preset("S3", num_users=32, rng_seed=5),
        small_config(pdp_taps=1, rng_seed=6),
        small_config(pdp_decay=3.0, rng_seed=7),
        small_config(pdp_decay=1e50, rng_seed=8),
        small_config(num_subcarriers=12, pdp_taps=5, rng_seed=9),
        small_config(num_subcarriers=7, pdp_taps=8, rng_seed=10),
    ], ids=["S1", "S2", "S3", "one-tap", "decay-3", "decay-1e50",
            "N12-T5", "N7-T8"])
    def test_drop_equals_per_drop_formula(self, config):
        # the tables give the bytes of phases and amplitudes computed
        # afresh for each drop, on the table's first and later drops
        channel._drop_tables.cache_clear()
        for drop in range(3):
            got = generate_drop(config, drop).matrices
            want = oracles.channel_matrices(config, drop)
            assert got.tobytes() == want.tobytes()

    def test_tables_are_read_only(self):
        generate_drop(small_config(), 0)
        for table in channel._drop_tables(8, 8, small_config().pdp_decay):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_configs_share_one_entry_but_for_n_taps_and_decay(self):
        # seeds, user counts and budgets share one table; a different N,
        # tap count or decay gets its own
        channel._drop_tables.cache_clear()
        assert channel._drop_tables.cache_info().currsize == 0
        base = scenario_preset("S1")
        for config in [base, dataclasses.replace(base, rng_seed=9),
                       base.with_users(8, 0.25), base.with_users(32, 0.05),
                       base.with_rho(1e-3)]:
            generate_drop(config, 1)
        assert channel._drop_tables.cache_info().currsize == 1
        generate_drop(dataclasses.replace(base, pdp_decay=0.5), 0)
        generate_drop(dataclasses.replace(base, pdp_taps=4), 0)
        generate_drop(scenario_preset("S2"), 0)
        assert channel._drop_tables.cache_info().currsize == 4
