"""Batched pricing against the scalar references of `oracles`.

`run_drop` prices each group round with one batched call per stack
size. These tests replay every round with the one-pair-at-a-time
references and require the same cost matrices (rel 1e-12 and identical
+inf masks) and the same final power, for all four architectures, on
small valid scenarios beyond the presets (Q = 3 and 4, L < N_R, mixed
quotas and budgets, groups of one user) and on rank-deficient channels.

The rank-one closed forms (one row, one column, one placed row) are
checked against the LAPACK factorizations they replace, and against a
50-digit reference for nearly parallel rows; the ZfTx bills against a
60-digit pseudo-inverse up to condition number 1e10. The per-drop channel
factors (`sim._factors`) are checked against the factorizations they
replace, and counted, as are the projected channels' singular values
that the proposed scheme and ZfTx share; ZfTx's inverse route is checked
against the pinv oracle, 60 digits and rank loss. The premises of the
short sums are pinned byte for byte: `loading._sum_last` against
`x.sum(axis=-1)`, `pricing_tail`'s norms against `np.linalg.norm`, and
`_row_norms` against re^2 + im^2.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from thpalloc import baselines, loading, sim
from thpalloc.baselines import Architecture
from thpalloc.channel import (ChannelSet, ScenarioConfig, generate_drop,
                              scenario_preset)
from thpalloc.loading import (RANK_TOL, _null_spaces, projected_costs,
                              singular_gains)

# (N_T, N_R, L): Q = 2, 3 and 4, with L = N_R and L < N_R
ANTENNAS = [(4, 2, 2), (4, 2, 1), (6, 2, 2), (6, 2, 1), (4, 1, 1),
            (8, 4, 2), (2, 1, 1)]


@st.composite
def scenarios(draw):
    tx, rx, streams = draw(st.sampled_from(ANTENNAS))
    q = tx // rx
    per_group = draw(st.integers(1, 3))
    k_users = q * per_group
    n_sub = draw(st.integers(3 * per_group, 12))
    quota = tuple(draw(st.lists(st.integers(1, 3), min_size=k_users,
                                max_size=k_users)))
    budget = tuple(draw(st.lists(st.floats(0.2, 2.0), min_size=k_users,
                                 max_size=k_users)))
    return ScenarioConfig(num_subcarriers=n_sub, num_users=k_users,
                          tx_antennas=tx, rx_antennas=rx,
                          streams_per_user=streams, quota=quota,
                          mse_budget=budget,
                          rng_seed=draw(st.integers(0, 1000)))


# K = Q = 4: one user per group, so each later round prices one candidate
# against a stack of two or more placed rows
SINGLE_USER_GROUPS = ScenarioConfig(num_subcarriers=8, num_users=4,
                                    tx_antennas=8, rx_antennas=2,
                                    streams_per_user=2, quota=(2,) * 4,
                                    mse_budget=(1.0,) * 4)


def degrade(channels, how):
    """Make some channels rank deficient: user 1 copies user 0's channel,
    or user 0's channel is zero, on every other subcarrier."""
    h = channels.matrices.copy()
    if how == "duplicate":
        h[::2, 1] = h[::2, 0]
    elif how == "zero":
        h[::2, 0] = 0.0
    return ChannelSet(matrices=h, user_positions=channels.user_positions,
                      drop_id=channels.drop_id)


def replay(config, channels, architecture):
    """Run the pipeline, recording each round's cost matrix and
    assignment, and price the same rounds with the scalar references.
    Returns (result, batched matrices, reference matrices, reference
    final power)."""
    seen, solved = [], []
    solve = sim.solve_assignment

    def spy(costs, quotas):
        seen.append(np.array(costs))
        solved.append(solve(costs, quotas))
        return solved[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "solve_assignment", spy)
        result = sim.run_drop(config, channels, architecture)
    placed = [[] for _ in range(config.num_subcarriers)]
    reference, committed = [], 0.0
    for users, assignment in itertools.zip_longest(
            result.partition[:len(seen)], solved):
        costs = np.array([oracles.cost_row(config, channels.matrices[n],
                                           placed[n], list(users),
                                           architecture)
                          for n in range(config.num_subcarriers)])
        reference.append(costs)
        if assignment is not None:
            chosen = assignment.astype(bool)
            committed += float(np.sum(costs[chosen]))
            for n, j in np.argwhere(chosen).tolist():
                placed[n].append(users[j])
    if result.feasible:  # the carried placement, padded with -1
        np.testing.assert_array_equal(result.order, [
            users + [-1] * (config.group_count - len(users))
            for users in placed])
    if architecture is Architecture.THP_TX_LIN_RX:
        final = config.symbol_variance * committed
    else:
        final = oracles.baseline_final_power(config, channels, placed,
                                             architecture)
    return result, seen, reference, final


def assert_same_prices(batched, reference):
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                   equal_nan=True)


def assert_same_final_power(result, reference_power):
    if result.feasible:
        assert result.total_power == pytest.approx(reference_power,
                                                   rel=1e-12)
    elif not result.infeasible_reason.startswith("quotas"):
        # every group was placed: the final stack itself was unpriceable
        assert not math.isfinite(reference_power)
        assert result.infeasible_reason.startswith("final precoder stack "
                                                   "is rank deficient")


@settings(max_examples=50)
@given(config=scenarios(), drop=st.integers(0, 20),
       how=st.sampled_from(["none", "duplicate", "zero"]))
@example(config=SINGLE_USER_GROUPS, drop=8, how="none")
@example(config=SINGLE_USER_GROUPS, drop=8, how="duplicate")
@example(config=SINGLE_USER_GROUPS, drop=8, how="zero")
@pytest.mark.parametrize("arch", list(Architecture), ids=lambda a: a.value)
def test_rounds_match_scalar_references(arch, config, drop, how):
    channels = degrade(generate_drop(config, drop), how)
    result, batched, reference, final = replay(config, channels, arch)
    assert_same_prices(batched, reference)
    assert_same_final_power(result, final)


@pytest.mark.parametrize("how", ["duplicate", "zero"])
@pytest.mark.parametrize("arch", list(Architecture), ids=lambda a: a.value)
def test_rank_deficient_channels_price_infinite(arch, how):
    # the two users of the fixture sit in different groups, so the second
    # group is priced against a rank-deficient stack; ThpTx prices blind
    # and meets it only in its final stack
    config = ScenarioConfig(num_subcarriers=8, num_users=2, tx_antennas=4,
                            rx_antennas=2, streams_per_user=2, quota=(4, 4),
                            mse_budget=(1.0, 1.0), rng_seed=3)
    channels = degrade(generate_drop(config, 0), how)
    result, batched, reference, final = replay(config, channels, arch)
    assert len(batched) == 2
    assert np.isinf(np.concatenate(reference)).any() or math.isinf(final)
    assert_same_prices(batched, reference)
    assert_same_final_power(result, final)


@settings(max_examples=100)
@given(stacks=st.integers(1, 4), size=st.integers(1, 4),
       antennas=st.sampled_from(ANTENNAS), seed=st.integers(0, 10_000),
       how=st.sampled_from(["none", "duplicate", "zero"]))
def test_bills_match_scalar_references(stacks, size, antennas, seed, how):
    tx, rx, streams = antennas
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((stacks, size, rx, tx))
         + 1j * rng.standard_normal((stacks, size, rx, tx)))
    if how == "duplicate" and size > 1:
        h[0, -1] = h[0, 0]
    elif how == "zero":
        h[0, -1] = 0.0
    budgets = rng.uniform(0.2, 2.0, (stacks, size))
    quotas = rng.integers(1, 4, (stacks, size))
    pairs = [(baselines.zf_bills, oracles.zf_bills),
             (baselines.thp_bills, oracles.thp_bills)]
    if (size - 1) * rx < tx:  # the scalar null-space basis needs room
        pairs.append((factor_order_bills, oracles.linear_bills))
    for batched, scalar in pairs:
        got = batched(h, oracles.weight(budgets, quotas, 0.7), streams)
        want = np.array([scalar(h[b], budgets[b], quotas[b], 0.7, streams)
                         for b in range(stacks)])
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def factor_order_bills(stacks, weights, streams, first=None):
    """`baselines.linear_bills` of the first `first` users (all by
    default) of stacks (..., c, N_R, N_T) in placement order, regathered
    by `baselines.linear_order`."""
    order = baselines.linear_order(np.arange(stacks.shape[-3]), first)
    return baselines.linear_bills(stacks[..., order, :, :],
                                  weights[..., order], streams)


LINEAR_GATHER_CONFIGS = {
    "S3 K=16": scenario_preset("S3", num_users=16),
    "S3 K=32": scenario_preset("S3", num_users=32),
    "S1 K=24": scenario_preset("S1", num_users=24),
    "q3.cfg": ScenarioConfig(num_subcarriers=12, num_users=6, tx_antennas=6,
                             rx_antennas=2, streams_per_user=1,
                             quota=(2,) * 6, mse_budget=(1.0,) * 6),
}


@pytest.mark.parametrize("name", LINEAR_GATHER_CONFIGS)
def test_linear_bills_gathered_once_match_two_gathers(name, monkeypatch):
    # LinTxLinRx's bills gather each grown stack from h once, in factor
    # order: every bill a drop asks for (each round's grown stacks, and
    # each final stack's users at weights 1 and 0) has the bytes of
    # gathering the placement-order stacks and regathering them
    config = LINEAR_GATHER_CONFIGS[name]
    bills, seen = sim._bills, []

    def spy(config, h, rows, users, architecture, scale=1.0, first=None):
        got = bills(config, h, rows, users, architecture, scale, first)
        stacks = h[rows.reshape((-1,) + (1,) * (users.ndim - 1)), users]
        want = factor_order_bills(stacks, config.price_weight[users] * scale,
                                  config.streams_per_user, first)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        seen.append(first)
        return got

    monkeypatch.setattr(sim, "_bills", spy)
    for drop in range(2):
        channels = generate_drop(config, drop)
        result = sim.run_drop(config, channels, Architecture.LIN_TX_LIN_RX)
        assert result.feasible
        for rows, stack in sim._buckets(result.order, {}):
            for scale in (1.0, 0.0):
                sim._bills(config, channels.matrices, rows, stack,
                           Architecture.LIN_TX_LIN_RX, scale)
    assert None in seen and any(seen)


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def conditioned_stacks(rng, antennas, users, conds):
    """One stack (users, N_R, N_T) per condition number in `conds`: the
    stacked first-L rows have singular values geometric from 1 to
    1/cond; the rows past L (ignored by ZfTx) are random."""
    tx, rx, streams = antennas
    rows = users * streams
    out = gaussian(rng, len(conds), users, rx, tx)
    for b, cond in enumerate(conds):
        u = np.linalg.qr(gaussian(rng, rows, rows))[0]
        v = np.linalg.qr(gaussian(rng, tx, rows))[0]
        h = (u * np.geomspace(1.0, 1.0 / cond, rows)) @ v.conj().T
        out[b, :, :streams] = h.reshape(users, streams, tx)
    return out


# (N_T, N_R, L): Q = 2 and 3, with L = N_R and L < N_R
ZF_ANTENNAS = [(4, 2, 2), (4, 2, 1), (8, 4, 4), (8, 4, 2), (6, 2, 2),
               (6, 2, 1), (3, 1, 1)]


@pytest.mark.parametrize("antennas", ZF_ANTENNAS)
def test_zf_bills_match_pseudo_inverse_columns(antennas):
    # ZfTx bills from U and s of one SVD; the oracle takes the column
    # norms of pinv(h). They must agree up to condition number 1e11, and
    # split full rank from deficient at the same RANK_TOL cut.
    tx, rx, streams = antennas
    rng = np.random.default_rng(tx * 100 + rx * 10 + streams)
    conds = list(np.geomspace(1e2, 1e11, 10))
    # the last user's price in the null space of the others, as run_drop
    # prices a ZfTx candidate, factors other matrices than the oracle, so
    # past condition number ~1e3 the two agree only to the forward error
    # of pinv, ~cond * eps (both are that far from a 60-digit reference);
    # at 0.9 * RANK_TOL its rank rule still passes the projected channel
    drift = np.maximum(1e-12, 8 * np.array(conds) * np.finfo(float).eps)
    edge = [1.0 / (1.1 * RANK_TOL), 1.0 / (0.9 * RANK_TOL)]
    for users in range(1, tx // rx + 1):
        if users * streams < 2:  # one row has no condition number
            continue
        stacks = conditioned_stacks(rng, antennas, users, conds + edge)
        budgets = rng.uniform(0.2, 2.0, stacks.shape[:2])
        quotas = rng.integers(1, 4, stacks.shape[:2])
        weights = oracles.weight(budgets, quotas, 0.7)
        got = baselines.zf_bills(stacks, weights, streams)
        want = np.array([oracles.zf_bills(stacks[b], budgets[b], quotas[b],
                                          0.7, streams)
                         for b in range(len(stacks))])
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        assert np.isinf(got).any(axis=-1).tolist() == [False] * 11 + [True]
        np.testing.assert_allclose(got[:10], want[:10], rtol=1e-12, atol=0.0)
        h = baselines.restrict_rows(stacks, streams)
        alone = projected_costs(
            h[:, :-1].reshape(len(h), -1, tx), h[:, -1:], weights[:, -1:],
            streams, baselines.zf_gains)[:, 0]
        assert np.isinf(alone).tolist() == [False] * 11 + [users == 1]
        if users == 1:  # nothing placed: the same SVD as the stack's bill
            np.testing.assert_allclose(alone[:10], want[:10, -1],
                                       rtol=1e-12, atol=0.0)
        np.testing.assert_array_less(
            np.abs(alone[:10] - want[:10, -1]) / want[:10, -1], drift)


@pytest.mark.parametrize("antennas", ZF_ANTENNAS)
def test_zf_bills_are_accurate(antennas):
    # the ZfTx bills against the exact pseudo-inverse column norms of the
    # same stacks, h^H (h h^H)^-1 in 60 digits: within 8 * cond * eps up
    # to condition number 1e10 (the pinv oracle only shows agreement)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    tx, rx, streams = antennas
    rng = np.random.default_rng(tx * 100 + rx * 10 + streams)
    conds = np.geomspace(1e2, 1e10, 9)

    def exact_norms(h):  # column norms of pinv(h), h (R, N_T)
        m = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row]
                           for row in h])
        pinv = m.transpose_conj() * mpmath.inverse(m * m.transpose_conj())
        return [mpmath.norm(pinv.column(j)) for j in range(pinv.cols)]

    for users in range(1, tx // rx + 1):
        if users * streams < 2:  # one row has no condition number
            continue
        stacks = conditioned_stacks(rng, antennas, users, conds)
        budgets = rng.uniform(0.2, 2.0, stacks.shape[:2])
        quotas = rng.integers(1, 4, stacks.shape[:2])
        got = baselines.zf_bills(stacks, oracles.weight(budgets, quotas, 0.7),
                                 streams)
        h = baselines.restrict_rows(stacks, streams).reshape(len(conds), -1,
                                                             tx)
        for b, cond in enumerate(conds):
            norms = exact_norms(h[b])
            for k in range(users):
                want = (0.7 * int(quotas[b, k]) / mpmath.mpf(budgets[b, k])
                        * sum(norms[k * streams:(k + 1) * streams]) ** 2)
                assert float(abs(got[b, k] - want) / want) < (
                    8 * cond * np.finfo(float).eps)


@settings(max_examples=100)
@given(tx=st.sampled_from([2, 3, 4, 8]), batch=st.integers(1, 4),
       m=st.integers(1, 3), seed=st.integers(0, 10_000),
       scale=st.integers(-150, 150),
       how=st.sampled_from(["none", "duplicate", "zero"]))
def test_rank_one_closed_forms_match_lapack(tx, batch, m, seed, scale, how):
    # the four rank-one closed forms (a row's norm as its singular value,
    # ZF inverse gain and |r_11|; the residual off one placed row) against
    # the LAPACK factorizations they replace, from 1e-150 to 1e150
    rng = np.random.default_rng(seed)
    placed = gaussian(rng, batch, 1, tx) * 10.0 ** scale
    h = gaussian(rng, batch, m, 1, tx) * 10.0 ** scale
    if how == "duplicate":  # the first candidate is the placed row
        h[:, 0, 0] = placed[:, 0]
    elif how == "zero":  # a zero placed row, and a zero candidate
        placed[0] = 0.0
        h[-1, -1] = 0.0
    budgets = rng.uniform(0.2, 2.0, (batch, m))
    quotas = rng.integers(1, 4, (batch, m))
    weights = oracles.weight(budgets, quotas, 0.7)

    def same(got, want):
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    rows = h[:, :, 0]  # (batch, m, N_T): one row each
    for x in (rows[..., None, :], rows[..., :, None]):  # a row, a column
        for got, want in zip(singular_gains(x),
                             oracles.svd_singular_gains(x)):
            same(got, want)
    (s, gains), (s_ref, gains_ref) = (
        baselines.zf_gains(rows[..., None, :]),
        oracles.svd_zf_gains(rows[..., None, :]))
    same(s, s_ref)  # a zero row's gain (NaN from LAPACK) is never billed
    same(gains[s > 0], gains_ref[s > 0])
    for batched, scalar in [(baselines.thp_bills, oracles.thp_bills),
                            (baselines.zf_bills, oracles.zf_bills)]:
        same(batched(h.reshape(-1, 1, 1, tx), weights.reshape(-1, 1), 1)[:, 0],
             [scalar(c, [g], [n], 0.7, 1)[0] for c, g, n in
              zip(h.reshape(-1, 1, 1, tx), budgets.ravel(), quotas.ravel())])
    for stack in (placed, placed[:, :0]):  # one row, and none
        for gains, reference in [
                (singular_gains, oracles.svd_singular_gains),
                (baselines.zf_gains, oracles.svd_zf_gains)]:
            same(projected_costs(stack, h, weights, 1, gains),
                 oracles.null_space_costs(stack, h, budgets, quotas, 0.7,
                                          1, reference))
    if how == "duplicate":  # projected to rounding noise
        assert np.isinf(projected_costs(placed, h, weights, 1)[:, 0]).all()


@pytest.mark.parametrize("tx", [2, 3, 4, 8])
def test_near_parallel_residual_is_accurate(tx):
    # a candidate within 1/cond of the placed row's direction: its
    # residual off the row, against a 50-digit reference, is accurate to
    # ~cond * eps and no less accurate than the SVD null-space path
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(tx)

    def exact_cost(p, h):  # 1 / ||h - (h p^H / ||p||^2) p||^2
        p = [mpmath.mpc(complex(x)) for x in p]
        h = [mpmath.mpc(complex(x)) for x in h]
        c = (sum(a * mpmath.conj(b) for a, b in zip(h, p))
             / sum(abs(b) ** 2 for b in p))
        return float(1 / sum(abs(a - c * b) ** 2 for a, b in zip(h, p)))

    for cond in np.geomspace(1e2, 1e8, 7):
        p, q = gaussian(rng, 20, 1, tx), gaussian(rng, 20, 1, tx)
        q -= np.sum(q * p.conj(), -1, keepdims=True) / np.sum(
            np.abs(p) ** 2, -1, keepdims=True) * p  # q orthogonal to p
        q *= np.linalg.norm(p, axis=-1, keepdims=True) / (
            cond * np.linalg.norm(q, axis=-1, keepdims=True))
        h = (p * gaussian(rng, 20, 1, 1) + q)[:, None]
        want = np.array([exact_cost(p[i, 0], h[i, 0, 0]) for i in range(20)])
        errors = [np.abs(costs[:, 0] - want) / want for costs in (
            projected_costs(p, h, oracles.weight(1.0, 1, 1.0), 1),
            oracles.null_space_costs(p, h, 1.0, 1, 1.0, 1))]
        residual, svd = errors
        assert residual.max() < 8 * cond * np.finfo(float).eps
        assert residual.max() <= svd.max()
        assert np.median(residual) <= np.median(svd)


@pytest.mark.parametrize("arch", [Architecture.THP_TX_LIN_RX,
                                  Architecture.LIN_TX_LIN_RX],
                         ids=lambda a: a.value)
def test_miso_drop_takes_no_lapack_factorization(arch, monkeypatch):
    # on S1 (N_T = 2, N_R = L = 1) every stack, projected channel and
    # bill is rank one, so a drop prices and bills in closed form
    def factorization(*args, **kwargs):
        raise AssertionError("LAPACK factorization called on S1")

    cfg = scenario_preset("S1", num_users=16)
    channels = [generate_drop(cfg, drop) for drop in range(2)]
    monkeypatch.setattr(np.linalg, "svd", factorization)
    monkeypatch.setattr(np.linalg, "qr", factorization)
    for drop in channels:
        assert sim.run_drop(cfg, drop, arch).feasible


def test_s3_drop_factors_each_channel_once(monkeypatch):
    # the four architectures of one S3 drop on one memo factor each of
    # the first group's N K/Q = 128 4x8 channels once (256 before
    # LinTxLinRx billed from R factors: its second-group candidates were
    # factored too); LinTxLinRx bills each placed user against each
    # candidate from one raw-mode QR of their 8x8 stack, and no QR runs
    # in mode "r" (the raw output is read in place). Each second-group
    # candidate projected off a placed first-group user, a 4x4 channel
    # h V0, has its singular values taken once, whichever architectures
    # place that user there: ZfTx takes no thin SVD of one, and inverts
    # each in one batch instead. The other SVDs are of 8x8 final ZfTx
    # stacks and of LinTxLinRx's 4x4 R22^H blocks
    cfg = scenario_preset("S3", num_users=16)
    channels = generate_drop(cfg, 0)
    h = channels.matrices
    rx, tx = h.shape[-2:]
    pair = {h[n, k].tobytes(): (n, k) for n in range(cfg.num_subcarriers)
            for k in range(cfg.num_users)}
    factored, stacked = [], {arch: 0 for arch in Architecture}
    projected, inverted = [], {arch: 0 for arch in Architecture}
    svd, qr, inv = np.linalg.svd, np.linalg.qr, np.linalg.inv
    running = []

    def counted(a, *args, **kwargs):
        if a.shape[-2:] == h.shape[-2:]:
            factored.extend(pair[m.tobytes()]
                            for m in a.reshape(-1, *a.shape[-2:]))
        elif a.shape[-2:] == (rx, tx - rx):  # not an R22^H: lower triangular
            projected.extend((running[-1], kwargs.get("compute_uv", True),
                              m.tobytes()) for m in a.reshape(-1, rx, rx)
                             if np.triu(m, 1).any())
        return svd(a, *args, **kwargs)

    def counted_qr(a, mode="reduced"):
        assert mode != "r"
        if mode == "raw" and a.shape[-2:] == (cfg.tx_antennas,) * 2:
            stacked[running[-1]] += a.size // a.shape[-1] ** 2
        return qr(a, mode=mode)

    def counted_inv(a):
        inverted[running[-1]] += a.size // a.shape[-1] ** 2
        return inv(a)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    memo, placed = {}, {}
    for arch in Architecture:
        running.append(arch)
        result = sim.run_drop(cfg, channels, arch, memo=memo)
        assert result.feasible
        placed[arch] = result.order[:, 0]
    first, second = memo["partition",]
    assert len(factored) == cfg.num_subcarriers * len(first)
    assert set(factored) == set(itertools.product(
        range(cfg.num_subcarriers), first))
    assert stacked[Architecture.LIN_TX_LIN_RX] == (
        cfg.num_subcarriers * (cfg.num_users - len(first)))
    # (subcarrier, placed user, candidate) of every null-space price
    triples = {arch: {(n, k, j) for n, k in enumerate(placed[arch].tolist())
                      for j in second}
               for arch in (Architecture.THP_TX_LIN_RX, Architecture.ZF_TX,
                            Architecture.LIN_TX_LIN_RX)}
    assert len(projected) == len(set().union(*triples.values()))
    assert len({m for *_, m in projected}) == len(projected)
    assert not any(uv for _, uv, _ in projected)  # singular values only
    proposed, zf = (triples[arch] for arch in (Architecture.THP_TX_LIN_RX,
                                               Architecture.ZF_TX))
    by_zf = sum(arch is Architecture.ZF_TX for arch, *_ in projected)
    assert by_zf == len(zf - proposed) and 0 < by_zf < len(zf)
    assert inverted == {arch: len(zf) * (arch is Architecture.ZF_TX)
                        for arch in Architecture}


def zf_second_round(stacks, budgets, quotas):
    """ZfTx's price of user 1 on each subcarrier of `stacks`
    (N, 2, N_R, N_T), L = N_R, in the null space of user 0 placed there,
    by the route `run_drop` takes: user 0's channel factors, the
    projected singular values and one batched inverse (Q - 2 more users
    with random channels fill the config's groups)."""
    n, _, rx, tx = stacks.shape
    q = tx // rx
    rng = np.random.default_rng(q)
    h = np.concatenate([stacks, gaussian(rng, n, q - 2, rx, tx)], axis=1)
    cfg = ScenarioConfig(num_subcarriers=n, num_users=q, tx_antennas=tx,
                         rx_antennas=rx, streams_per_user=rx,
                         quota=tuple(quotas) + (1,) * (q - 2),
                         mse_budget=tuple(budgets) + (1.0,) * (q - 2),
                         noise_variance=0.7)
    order = np.full((n, q), -1)
    order[:, 0] = 0
    return sim._null_space_prices(cfg, h, order, np.array([1]),
                                  Architecture.ZF_TX, {})[:, 0]


# (N_T, N_R, L = N_R): h V0 square (Q = 2) and wide (Q = 3)
ZF_ROUTE_ANTENNAS = [(4, 2, 2), (8, 4, 4), (6, 2, 2)]


@pytest.fixture
def thin_svd_forbidden(monkeypatch):
    """Fail on a thin SVD (the old ZfTx route); count np.linalg.inv."""
    svd, inv, inverted = np.linalg.svd, np.linalg.inv, []

    def full_or_values(a, full_matrices=True, compute_uv=True, **kwargs):
        assert full_matrices or not compute_uv, "thin SVD taken"
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv,
                   **kwargs)

    def counted(a):
        inverted.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "svd", full_or_values)
    monkeypatch.setattr(np.linalg, "inv", counted)
    return inverted


@pytest.mark.parametrize("antennas", ZF_ROUTE_ANTENNAS)
def test_zf_inverse_route_matches_pseudo_inverse_columns(antennas,
                                                         thin_svd_forbidden):
    # ZfTx's second-round price from the shared singular values and one
    # batched inverse, against the candidate's bill in the pinv oracle of
    # the grown stack: within the forward error of pinv, ~cond * eps, up
    # to condition number 1e11; at 0.9 * RANK_TOL the projected channel
    # still passes the rank rule, though the stack fails it
    tx, rx, streams = antennas
    rng = np.random.default_rng(tx * 100 + rx * 10 + streams)
    conds = list(np.geomspace(1e2, 1e11, 10))
    edge = [1.0 / (1.1 * RANK_TOL), 1.0 / (0.9 * RANK_TOL)]
    stacks = conditioned_stacks(rng, antennas, 2, conds + edge)
    budgets, quotas = rng.uniform(0.2, 2.0, 2), rng.integers(1, 4, 2)
    got = zf_second_round(stacks, budgets, quotas)
    want = np.array([oracles.zf_bills(stack, budgets, quotas, 0.7,
                                      streams)[-1] for stack in stacks])
    assert thin_svd_forbidden and np.isfinite(got).all()
    assert np.isinf(want).tolist() == [False] * 11 + [True]
    drift = np.maximum(1e-12, 8 * np.array(conds) * np.finfo(float).eps)
    np.testing.assert_array_less(np.abs(got[:10] - want[:10]) / want[:10],
                                 drift)


@pytest.mark.parametrize("antennas", ZF_ROUTE_ANTENNAS)
def test_zf_inverse_route_is_accurate(antennas, thin_svd_forbidden):
    # the same prices against the exact pseudo-inverse column norms of
    # the grown stack, h^H (h h^H)^-1 in 60 digits: within 8 * cond * eps
    # up to condition number 1e10
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    tx, rx, streams = antennas
    rng = np.random.default_rng(tx * 100 + rx * 10 + streams)
    conds = np.geomspace(1e2, 1e10, 9)
    stacks = conditioned_stacks(rng, antennas, 2, conds)
    budgets, quotas = rng.uniform(0.2, 2.0, 2), rng.integers(1, 4, 2)
    got = zf_second_round(stacks, budgets, quotas)
    assert thin_svd_forbidden
    for b, cond in enumerate(conds):
        m = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row]
                           for row in stacks[b].reshape(-1, tx)])
        pinv = m.transpose_conj() * mpmath.inverse(m * m.transpose_conj())
        norms = sum(mpmath.norm(pinv.column(j))
                    for j in range(streams, 2 * streams))
        want = 0.7 * int(quotas[1]) / mpmath.mpf(budgets[1]) * norms ** 2
        assert float(abs(got[b] - want) / want) < (
            8 * cond * np.finfo(float).eps)


@pytest.mark.parametrize("antennas", ZF_ROUTE_ANTENNAS)
def test_zf_inverse_route_skips_rank_lost_candidates(antennas,
                                                     thin_svd_forbidden):
    # in one batch: a candidate with a zero row (h V0 exactly singular,
    # which inv would reject), a zero candidate and a copy of the placed
    # user (projected to rounding noise) price +inf; the others are
    # finite, and only the full-rank ones are inverted
    tx, rx, streams = antennas
    rng = np.random.default_rng(tx + rx)
    stacks = gaussian(rng, 8, 2, rx, tx)
    stacks[1, 1, 0] = 0.0
    stacks[3, 1] = 0.0
    stacks[5, 1] = stacks[5, 0]
    got = zf_second_round(stacks, [1.0, 0.5], [2, 1])
    lost = np.isin(np.arange(8), [1, 3, 5])
    np.testing.assert_array_equal(np.isinf(got), lost)
    assert sum(shape[0] for shape in thin_svd_forbidden) <= 8 - 2
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(stacks[1, 1] @ np.linalg.svd(stacks[1, 0])[2][
            rx:].conj().T)


# (N_T, N_R, L): Q = 2, 3 and 4, with L = N_R and L < N_R
BD_ANTENNAS = [(8, 4, 4), (8, 4, 2), (6, 2, 2), (6, 2, 1), (8, 2, 2),
               (8, 2, 1)]


def r_factor_stacks(rng, antennas, users, conds):
    """Stacks (users, N_R, N_T) whose users 1... stack to singular values
    geometric from 1 to 1/cond, one per cond, then one where the last
    user copies user 1 (user 0 if there are two) and one where the last
    user's first row is 0."""
    tx, rx, _ = antennas
    rows = (users - 1) * rx
    stacks = gaussian(rng, len(conds) + 2, users, rx, tx)
    for b, cond in enumerate(conds):
        u = np.linalg.qr(gaussian(rng, rows, rows))[0]
        v = np.linalg.qr(gaussian(rng, tx, rows))[0]
        stacks[b, 1:] = ((u * np.geomspace(1.0, 1.0 / cond, rows))
                         @ v.conj().T).reshape(users - 1, rx, tx)
    stacks[-2, -1] = stacks[-2, int(users > 2)]
    stacks[-1, -1, 0] = 0.0
    return stacks


@pytest.mark.parametrize("antennas", BD_ANTENNAS)
def test_linear_bills_from_r_factors(antennas, monkeypatch):
    # a user is billed off the stack of the others from the R factor of
    # the others and the user stacked, unless the others' diagonal in R
    # is within QR_TOL of rank loss; those take the null-space SVD route
    # (`_null_spaces`) as before. User 0, against the oracle, off others
    # of condition number 1e2 ... 1e11, holding an exact copy or a zero
    # row: each bill matches to 1e-12 with the same +inf mask, or
    # took the SVD route; both routes are taken
    tx, rx, streams = antennas
    rng = np.random.default_rng(tx * 100 + rx * 10 + streams)
    conds = np.geomspace(1e2, 1e11, 10)
    fallback = []
    null_spaces = loading._null_spaces

    def spy(placed, svd=None):
        fallback.extend(m.tobytes() for m in
                        placed.reshape(-1, *placed.shape[-2:]))
        return null_spaces(placed, svd)

    monkeypatch.setattr(loading, "_null_spaces", spy)
    for users in range(2, tx // rx + 1):
        stacks = r_factor_stacks(rng, antennas, users, conds)
        budgets = rng.uniform(0.2, 2.0, stacks.shape[:2])
        quotas = rng.integers(1, 4, stacks.shape[:2])
        fallback.clear()
        got = factor_order_bills(
            stacks, oracles.weight(budgets, quotas, 0.7), streams, first=1)
        want = np.array([oracles.linear_bills(stacks[b], budgets[b],
                                              quotas[b], 0.7, streams)
                         for b in range(len(stacks))])[:, :1]
        slow = np.array([[stacks[b, 1:].tobytes() in fallback]
                         for b in range(len(stacks))])
        np.testing.assert_array_equal(np.isinf(got[~slow]),
                                      np.isinf(want[~slow]))
        np.testing.assert_allclose(got[~slow], want[~slow], rtol=1e-12,
                                   atol=0.0)
        assert not slow[0] and slow[len(conds) - 1] and slow[-1]
        # a copy among the others is rank loss; a copy of user 0 as the
        # only other is R-factored, and annihilates user 0
        assert slow[-2] == (users > 2) and np.isinf(got[-2]) == (users == 2)


@pytest.mark.parametrize("antennas", BD_ANTENNAS[::2])
def test_r_factor_bills_are_accurate(antennas):
    # every user's bill in the stacks above, R-factored or not, against
    # 60 digits: a user nearly in the span of the others has an
    # ill-conditioned bill that no route gets to 1e-12 (nor matches
    # the oracle), and the R factor is about as accurate as the SVD
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    tx, rx, streams = antennas
    rng = np.random.default_rng(tx * 100 + rx * 10 + streams)

    def exact(h, others):  # (sum_l 1/s_l)^2, s of h off the others
        h, p = (mpmath.matrix([[mpmath.mpc(complex(x)) for x in row]
                               for row in a]) for a in (h, others))
        ph = p.transpose_conj()
        hp = h * (mpmath.eye(tx) - ph * mpmath.inverse(p * ph) * p)
        ev = sorted(mpmath.eighe(hp * hp.transpose_conj())[0], reverse=True)
        return sum(1 / mpmath.sqrt(e) for e in ev[:streams]) ** 2

    users = tx // rx
    stacks = r_factor_stacks(rng, antennas, users,
                             np.geomspace(1e2, 1e10, 5))[:-2]
    got = factor_order_bills(stacks, np.ones(stacks.shape[:2]), streams)
    errors = []
    for b, i in itertools.product(range(len(stacks)), range(users)):
        want = exact(stacks[b, i],
                     stacks[b, np.arange(users) != i].reshape(-1, tx))
        svd = oracles.linear_bills(stacks[b], [1.0] * users, [1] * users,
                                   1.0, streams)[i]
        errors.append([float(abs(x - want) / want) for x in (got[b, i], svd)])
    r_factor, svd = np.array(errors).T
    assert r_factor.max() <= 10 * svd.max()
    assert np.median(r_factor) <= 10 * np.median(svd)


@pytest.mark.parametrize("preset", ["S2", "S3"])
def test_cached_factors_match_fresh_factorizations(preset):
    # the cache's full SVDs give one-user null spaces bit-equal to
    # `_null_spaces` of the same stacks, and ZfTx first-group gains
    # bit-equal to `zf_gains` (R <= N_T: full and thin U, s agree)
    cfg = scenario_preset(preset, num_users=16)
    h = generate_drop(cfg, 1).matrices
    rows = np.arange(cfg.num_subcarriers)
    memo = {}
    sim._factors(h, rows, rows % cfg.num_users, memo)  # a part first
    svd = sim._factors(h, rows[:, None], np.arange(cfg.num_users), memo)
    for (sel, v0), (sel_ref, v0_ref) in itertools.zip_longest(
            _null_spaces(h, svd), _null_spaces(h)):
        np.testing.assert_array_equal(sel, sel_ref)
        assert v0.tobytes() == v0_ref.tobytes()
    for got, want in zip(baselines.zf_gains(h, svd), baselines.zf_gains(h)):
        assert got.tobytes() == want.tobytes()


def test_kept_factors_are_read_in_place():
    # the first group's factors, asked for again in the same order (ZfTx
    # after the proposed scheme), are views of the batch the one SVD
    # returned; a call for some of them gathers those from it
    cfg = scenario_preset("S3", num_users=16)
    h = generate_drop(cfg, 0).matrices
    rows, users = np.arange(cfg.num_subcarriers), np.arange(0, 16, 2)
    memo, calls = {}, []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", counted)
        first = sim._factors(h, rows[:, None], users, memo)
        again = sim._factors(h, rows[:, None], users, memo)
        some = sim._factors(h, rows, users[rows % users.size], memo)
    assert calls == [(rows.size * users.size,) + h.shape[2:]]
    kept = memo["factors",][1]
    for a, b, c, part in zip(first, again, some, kept):
        assert np.shares_memory(a, part) and np.shares_memory(b, part)
        assert not np.shares_memory(c, part)
        np.testing.assert_array_equal(c, a[rows, rows % users.size])


@pytest.mark.parametrize("rows, tx", [(2, 2), (4, 8), (8, 8)])
def test_raw_qr_of_transpose_is_conjugate_of_r_mode(rows, tx):
    # Householder QR commutes with conjugation: the raw-mode QR of X^T
    # (R^T in its lower triangle, reflectors above) holds the conjugate
    # of the R of qr(X^H, mode="r"). So |diag R| and the trailing block
    # R22 (singular values included) read in place, reflectors zeroed,
    # equal the conjugated route's bit for bit: random batches with
    # duplicate and zero rows, and scaled by 1e-150
    rng = np.random.default_rng(rows * 100 + tx)
    x = gaussian(rng, 6, rows, tx)
    x[1, -1] = x[1, 0]
    x[2, 0] = 0.0
    x[3, :] = 0.0
    x[4] *= 1e-150
    x[5, rows // 2:] = x[5, :rows - rows // 2]
    r = np.linalg.qr(x.conj().swapaxes(-1, -2), mode="r")
    raw = np.linalg.qr(x.swapaxes(-1, -2), mode="raw")[0]
    np.testing.assert_array_equal(np.abs(raw.diagonal(0, -2, -1)),
                                  np.abs(r.diagonal(0, -2, -1)))
    lead = rows // 2
    block = raw[..., lead:, lead:rows].copy()
    np.copyto(block, 0, where=~np.tri(rows - lead, dtype=bool))
    want = r[..., lead:, lead:].conj().swapaxes(-1, -2)  # R22^H
    np.testing.assert_array_equal(block, want)
    np.testing.assert_array_equal(np.linalg.svd(block, compute_uv=False),
                                  np.linalg.svd(want, compute_uv=False))


# (N_T, N_R, L, users per stack): L = N_R and L < N_R, stacks of the
# other users within and past N_T rows
TAIL_SHAPES = [(4, 2, 2, 2), (4, 2, 1, 2), (8, 2, 2, 4), (8, 4, 2, 2),
               (6, 2, 1, 3), (4, 1, 1, 4), (4, 2, 2, 3)]


def degraded_stacks(rng, tx, rx, users, batch=24):
    """Random stacks (batch, users, N_R, N_T), one in six of each kind
    degraded: the last user zero, its first row zero, a copy of user 0,
    user 0 scaled by 1e-150, the whole stack scaled by 1e-150."""
    stacks = gaussian(rng, batch, users, rx, tx)
    stacks[0::6, -1] = 0.0
    stacks[1::6, -1, 0] = 0.0
    stacks[2::6, -1] = stacks[2::6, 0]
    stacks[3::6, 0] *= 1e-150
    stacks[4::6] *= 1e-150
    return stacks


@pytest.mark.parametrize("shape", TAIL_SHAPES)
def test_whole_array_tails_match_masked_tails(shape, monkeypatch):
    # every pair is priced and np.where sets +inf where a rank is lost;
    # the masked oracles price only the full-rank pairs. Under weights
    # 0, 1 and 1e300 the bits agree where finite, +inf marks the same
    # pairs, and a rank-lost pair's overflow or 0 * inf warns nothing
    tx, rx, streams, users = shape
    rng = np.random.default_rng([tx, rx, streams, users])
    stacks = degraded_stacks(rng, tx, rx, users)
    candidates = degraded_stacks(rng, tx, rx, users)
    candidates[5::6, 0] = stacks[5::6, 1]  # placed: projected to zero
    weights = rng.choice([0.0, 1.0, 1e300], size=stacks.shape[:2])
    placed = stacks[:, 1:].reshape(len(stacks), -1, tx)
    split = rng.random(len(stacks)) < 0.5
    calls = {
        "pricing_tail": lambda: loading.pricing_tail(
            [(split, candidates[split], None),
             (~split, candidates[~split], None)],
            candidates, weights, streams),
        "projected_costs": lambda: projected_costs(
            placed, candidates, weights, streams),
        "projected_costs, one row": lambda: projected_costs(
            placed[:, :1], candidates, weights, streams),
        "projected_costs, zf_gains": lambda: projected_costs(
            placed, candidates[..., :streams, :], weights, streams,
            baselines.zf_gains),
        "projected_costs, one candidate": lambda: projected_costs(
            placed, candidates[:, :1], weights[:, :1], streams),
        "stacked_costs": lambda: loading.stacked_costs(
            stacks.reshape(len(stacks), -1, tx), (users - 1) * rx,
            weights[:, :1], streams),
        "zf_bills": lambda: baselines.zf_bills(stacks, weights, streams),
        "thp_bills": lambda: baselines.thp_bills(stacks, weights, streams),
        "linear_bills": lambda: factor_order_bills(stacks, weights,
                                                   streams),
    }
    got = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(divide="warn", over="warn", invalid="warn"):
            for name, call in calls.items():
                got[name] = call()
    monkeypatch.setattr(loading, "pricing_tail", lambda parts, h, *args:
                        oracles.masked_pricing_tail(
                            parts, np.linalg.norm(h, axis=(-2, -1)), *args))
    monkeypatch.setattr(baselines, "_joint_bills", oracles.masked_joint_bills)
    for name, call in calls.items():
        with np.errstate(all="ignore"):  # a full-rank pair may overflow
            want = call()
        lost = np.isinf(want)  # all of a joint stack past N_T rows
        assert lost.any() and (not lost.all() or users * streams > tx), name
        np.testing.assert_array_equal(np.isinf(got[name]), lost, name)
        assert got[name][~lost].tobytes() == want[~lost].tobytes(), name


def edge_values(rng, shape, dtype):
    """Random entries of `dtype` (float or complex), one in eight of each
    part replaced by +0, -0, a value scaled by 1e200 or 1e-200, a value
    near the largest float (sums overflow), +-inf or +-nan."""
    parts = rng.standard_normal(shape + (2,) * (dtype == complex))
    pick = rng.integers(0, 8, parts.shape)
    parts[pick == 0] = 0.0
    parts[pick == 1] = -0.0
    parts[pick == 2] *= 1e200
    parts[pick == 3] *= 1e-200
    parts[pick == 4] = np.copysign(1.7e308, parts[pick == 4])
    parts[pick == 5] = rng.choice([np.inf, -np.inf], (pick == 5).sum())
    parts[pick == 6] = rng.choice([np.nan, -np.nan], (pick == 6).sum())
    return parts.view(complex)[..., 0] if dtype == complex else parts


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", range(10))
def test_slice_sums_are_numpy_sums(n, dtype):
    # numpy's pairwise sum adds fewer than 8 float parts in order from +0,
    # so the slice sums of `_sum_last` give its bytes: on the last axis
    # alone or in a strided view, over empty leading shapes, and at signed
    # zeros, extreme scales, infinities and NaNs (inf - inf included); at
    # 4 to 7 complex parts (8 and more floats) slice adds would differ
    rng = np.random.default_rng([n, dtype == complex])
    for lead in [(), (0,), (3, 0), (1,), (64, 16), (5, 3, 2)]:
        for x in (edge_values(rng, lead + (n,), dtype),
                  edge_values(rng, lead + (n, 3), dtype)[..., 1],
                  np.zeros(lead + (n,), dtype) - 0.0,  # all -0
                  np.full(lead + (n,), 1.0 + 1j if dtype == complex else 1.0)):
            with np.errstate(all="ignore"):
                got, want = loading._sum_last(x), x.sum(axis=-1)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert same_bits(got, want), (lead, x)


def same_bits(got, want):
    """Equal bytes, but for which NaN survives where two meet: IEEE 754
    leaves that open, and numpy's reduce keeps its running sum's NaN
    while its add loops keep the first or the second operand's."""
    got, want = (np.atleast_1d(a).view(float) for a in (got, want))
    nan = np.isnan(want)
    return (np.array_equal(nan, np.isnan(got))
            and got[~nan].tobytes() == want[~nan].tobytes())


def spied_norms(monkeypatch, h, streams):
    """The Frobenius norms ||h|| that `pricing_tail` forms, read where it
    clips the largest singular value from below."""
    seen = []

    class SpyNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def maximum(self, a, b):
            seen.append(b)
            return np.maximum(a, b)

    monkeypatch.setattr(loading, "np", SpyNumpy())
    loading.pricing_tail([(..., h, None)], h, 1.0, streams)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("preset", ["S1", "S2", "S3"])
def test_pricing_tail_norms_are_linalg_norms(preset, monkeypatch):
    # pricing_tail sums (h^H h).real as np.linalg.norm(h, axis=(-2, -1))
    # does: the same bytes on each preset's (N, K) candidates, a strided
    # view of them as stacked_costs passes, and zero and scaled channels
    cfg = scenario_preset(preset)
    h = generate_drop(cfg, 0).matrices.copy()
    h[0, 0] = 0.0
    h[1] *= 1e-150
    h[2] *= 1e150
    stacked = np.concatenate([h, h], axis=-2)
    for x in (h, stacked[..., None, cfg.rx_antennas:, :]):
        got = spied_norms(monkeypatch, x, cfg.streams_per_user)
        want = np.linalg.norm(x, axis=(-2, -1))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tx", [2, 4, 8])
def test_row_norms_keep_squared_parts(tx):
    # a row's norm sums re^2 + im^2, which numpy's complex multiply may
    # round differently from (conj(x) x).real (by a fused multiply-add),
    # so neither of the two norms is formed by the other's formula
    rng = np.random.default_rng(tx)
    x = edge_values(rng, (64, 16, tx), complex)
    x[np.isnan(x) | np.isinf(x)] = 1.0
    with np.errstate(over="ignore"):
        want = np.sqrt((x.real ** 2 + x.imag ** 2).sum(axis=-1))
        got = loading._row_norms(x)
    assert got.tobytes() == want.tobytes()
