"""Two-layer pipeline orchestration and Monte Carlo sweeps.

One drop runs: channel-quality metrics -> worst-first partition ->
per-group cost matrices -> per-group exact assignment (groups
in order, so later groups see the users already placed) -> final
power. The proposed scheme's transceivers and THP feedback are built
on demand from a finished result by `build_plans` (which
`link_level_verify` calls), never by the pipeline itself: one batched
pass per user position, with the null-space bases of the pricing
(`loading._null_spaces`); the pass's zero-forcing receivers also give
that position's row of feedback blocks.

Sweeps repeat this over drops and target-MSE (or user-count) axes with
all architectures paired on identical drops. Every cost is homogeneous
of degree -1 in the budgets, so axis points whose budgets differ only
by a common factor (a budget class, e.g. the points of a rho axis)
share one assignment: a sweep generates and solves each drop once per
budget class and rescales the power to the other points of the class.

Pricing is stateless and batched: a price depends only on the users
already placed on the subcarrier, so each round prices the subcarriers
in one array-shaped call per placed count, with loading.projected_costs
for the proposed scheme and each baseline's billing function in
`baselines` (carried stack power; only ThpTx re-bills).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from thpalloc import baselines
from thpalloc.assignment import (Assignment, InfeasibleAssignmentError,
                                 solve_assignment)
from thpalloc.baselines import Architecture
from thpalloc.channel import ChannelSet, ScenarioConfig, generate_drop
from thpalloc.loading import (_null_spaces, equalizing_rotation,
                              power_loading, projected_costs,
                              receiver_matrix, transmit_matrix)
from thpalloc.partition import GroupPartition, partition_worst_first
from thpalloc.precoding import fold, thp_precode


@dataclass(frozen=True)
class SubcarrierPlan:
    """Ordered co-channel users on one subcarrier with their transceivers
    and THP feedback."""

    users: tuple[int, ...]  # group order, c users
    forward: np.ndarray     # F = V0 U per user, (c, N_T, L)
    receiver: np.ndarray    # G per user, (c, L, N_R)
    b_matrix: np.ndarray    # (cL, cL), block (p, i < p) G_p H_p F_i, else 0


@dataclass(frozen=True)
class DropResult:
    """Outcome of one architecture on one drop."""

    architecture: Architecture
    feasible: bool
    partition: GroupPartition | None = None
    assignments: tuple[Assignment, ...] = ()
    total_power: float = math.nan        # linear, sigma_d^2 * sum tr(U^H U)
    power_db: float = math.nan           # 10 log10(total / sigma^2)
    infeasible_reason: str = ""


@dataclass(frozen=True)
class SweepResult:
    """Paired Monte Carlo means over one axis."""

    axis_name: str                   # "rho" or "users"
    axis_values: tuple[float, ...]
    architectures: tuple[Architecture, ...]
    power_db: np.ndarray             # (points, archs, drops), NaN if infeasible
    feasible: np.ndarray             # (points, drops) bool, paired across archs
    drops: int
    seed: int

    @property
    def mean_power_db(self) -> np.ndarray:
        return np.array([[np.mean(self.power_db[p, a][self.feasible[p]])
                          if self.feasible[p].any() else math.nan
                          for a in range(len(self.architectures))]
                         for p in range(len(self.axis_values))])

    @property
    def stderr_db(self) -> np.ndarray:
        out = np.zeros((len(self.axis_values), len(self.architectures)))
        for p in range(len(self.axis_values)):
            vals = self.power_db[p][:, self.feasible[p]]
            if vals.shape[1] >= 2:
                out[p] = np.std(vals, axis=1, ddof=1) / math.sqrt(vals.shape[1])
        return out

    @property
    def infeasible_rate(self) -> np.ndarray:
        return 1.0 - self.feasible.mean(axis=1)


def _bills(config, h, rows, users, architecture, **extra) -> np.ndarray:
    """Each user's power under a baseline's precoder, for the stacks of
    users (b, ..., c), in placement order, on the subcarriers rows (b,)."""
    # looked up per call, so a wrapper set on `baselines` sees every call
    bills = (baselines.zf_bills if architecture is Architecture.ZF_TX else
             baselines.thp_bills if architecture is Architecture.THP_TX else
             baselines.linear_bills)
    stacks = h[rows.reshape((-1,) + (1,) * (users.ndim - 1)), users]
    return bills(stacks, np.asarray(config.mse_budget)[users],
                 np.asarray(config.quota)[users], config.noise_variance,
                 config.streams_per_user, **extra)


def _buckets(placed):
    """(subcarriers (b,), the users placed on them (b, c)) per count c."""
    sizes = np.array([len(users) for users in placed])
    for rows in (np.flatnonzero(sizes == c) for c in np.unique(sizes)):
        yield rows, np.array([placed[n] for n in rows], dtype=int)


def _cost_matrix(config, h, placed, power, users, architecture):
    """(N, U) price of each candidate in `users` on each subcarrier given
    the users `placed` there by earlier groups, one batch per count, and
    the (N, U) total bill of each grown stack (None for the proposed
    scheme). The price is: in the null space of the placed users for the
    proposed scheme (an exact share of the final power); within the
    placed stack plus itself for ZfTx and ThpTx (spatially blind, so
    priced once per drop with no placement); for LinTxLinRx, the grown
    stack's bill less the placed stack's carried bill `power` (N,), with
    the candidate's own term priced as for the proposed scheme."""
    costs = np.empty((config.num_subcarriers, users.size))
    grown_power = np.empty_like(costs)
    for rows, stack in _buckets(placed):
        grown = np.empty((rows.size, users.size, stack.shape[1] + 1), int)
        grown[..., :-1], grown[..., -1] = stack[:, None], users  # (b, U, c+1)
        if architecture in (Architecture.ZF_TX, Architecture.THP_TX):
            bills = _bills(config, h, rows, grown, architecture)
            costs[rows], grown_power[rows] = bills[..., -1], bills.sum(axis=-1)
            continue
        below = h[rows[:, None], stack].reshape(rows.size, -1, h.shape[-1])
        costs[rows] = projected_costs(
            below, h[rows[:, None], users], np.asarray(config.mse_budget)[users],
            np.asarray(config.quota)[users], config.noise_variance,
            config.streams_per_user)
        if architecture is Architecture.LIN_TX_LIN_RX:  # + placed users' bills
            grown_power[rows] = costs[rows] + _bills(
                config, h, rows, grown, architecture,
                first=stack.shape[1]).sum(axis=-1)
            costs[rows] = grown_power[rows] - power[rows, None]
    return costs, (None if architecture is Architecture.THP_TX_LIN_RX
                   else grown_power)


def _final_power(config, h, placed, power, architecture, assignments):
    """Total transmit power of the finished plan, linear scale: the
    proposed scheme's committed costs, else the carried stack power
    `power`; only ThpTx, priced blind, re-bills its final stacks."""
    if architecture is Architecture.THP_TX_LIN_RX:
        return config.symbol_variance * sum(a.total_cost for a in assignments)
    if architecture is Architecture.THP_TX:
        for rows, stack in _buckets(placed):
            power[rows] = _bills(config, h, rows, stack,
                                 architecture).sum(axis=-1)
    return config.symbol_variance * sum(power.tolist())


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column of the matrices v (..., m, k) so its
    largest-magnitude entry is real positive."""
    pivots = np.take_along_axis(
        v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    mags = np.abs(pivots)
    return v * np.divide(pivots.conj(), mags, where=mags > 0,
                         out=np.ones_like(pivots))


def build_plans(config: ScenarioConfig, channels: ChannelSet,
                drop_result: DropResult) -> tuple[SubcarrierPlan | None, ...]:
    """Transceivers and THP feedback of a feasible proposed-scheme result,
    one plan per subcarrier (None where no user is placed).

    The placement is rebuilt from the result's groups and assignments in
    group order, as `run_drop` placed it. Position p of all subcarriers
    with more than p users is built in one batched pass: the null-space
    bases V0 of the earlier users (column phases fixed), one SVD of
    H' = H V0 per null-space rank, the loading, F = V0 U, G and the
    position's feedback blocks C_pi = G_p H_p F_i for i < p. G_p is the
    minimum-norm zero-forcing receiver of the full-column-rank
    T_pp = H_p F_p, so it equals pinv(T_pp) and C_pi = pinv(T_pp) T_pi.
    """
    if (not drop_result.feasible
            or drop_result.architecture is not Architecture.THP_TX_LIN_RX):
        raise ValueError("THP plans need a feasible result of the proposed "
                         "architecture")
    num_sc, ell, tx = (config.num_subcarriers, config.streams_per_user,
                       config.tx_antennas)
    # order[n, i]: the i-th user placed on subcarrier n, -1 past its count
    order = np.full((num_sc, len(drop_result.assignments)), -1)
    for g, (users, assignment) in enumerate(zip(drop_result.partition.groups,
                                                drop_result.assignments)):
        hit = assignment.a.any(axis=1)
        order[hit, g] = np.asarray(users)[assignment.a[hit].argmax(axis=1)]
    order = np.take_along_axis(
        order, np.argsort(order < 0, axis=1, kind="stable"), axis=1)
    counts = np.count_nonzero(order >= 0, axis=1)
    h = channels.matrices
    budgets, quotas = np.asarray(config.mse_budget), np.asarray(config.quota)
    rotation = equalizing_rotation(ell)
    q = order.shape[1]
    forward = np.zeros((num_sc, q, tx, ell), dtype=complex)
    receiver = np.zeros((num_sc, q, ell, config.rx_antennas), dtype=complex)
    # feedback[n, p, :, i] = C_pi for i < p, the blocks of B = C - I
    feedback = np.zeros((num_sc, q, ell, q, ell), dtype=complex)
    for p in range(counts.max(initial=0)):
        rows = np.flatnonzero(counts > p)
        below = h[rows[:, None], order[rows, :p]].reshape(rows.size, -1, tx)
        for sel, v0 in _null_spaces(below):
            n, k = rows[sel], order[rows[sel], p]
            v0 = _fix_column_phases(v0)
            hp = h[n, k] @ v0
            _, s, vh = np.linalg.svd(hp, full_matrices=False)
            u = transmit_matrix(
                vh[:, :ell].conj().swapaxes(-1, -2),
                power_loading(s[:, :ell] ** 2, budgets[k], quotas[k],
                              config.noise_variance), rotation)
            forward[n, p] = v0 @ u
            receiver[n, p] = receiver_matrix(hp, u)
        feedback[rows, p, :, :p] = (
            receiver[rows, p, None] @ (h[rows, order[rows, p]][:, None]
                                       @ forward[rows, :p])).swapaxes(1, 2)
    feedback = feedback.reshape(num_sc, q * ell, q * ell)
    return tuple(
        SubcarrierPlan(users=tuple(order[n, :c].tolist()),
                       forward=forward[n, :c], receiver=receiver[n, :c],
                       b_matrix=feedback[n, :c * ell, :c * ell])
        if c else None for n, c in enumerate(counts.tolist()))


def run_drop(config: ScenarioConfig, channels: ChannelSet,
             architecture: Architecture) -> DropResult:
    """Run the full two-layer pipeline for one architecture on one drop.

    An unmet quota or a numerical failure while pricing or billing makes
    the drop infeasible, with the cause in `infeasible_reason`.
    """
    h = channels.matrices
    # every user's channel_quality bit for bit: contiguous rows, same sums
    quality = np.ascontiguousarray(np.sum(np.abs(h) ** 2, axis=(2, 3)).T)
    partition = partition_worst_first(quality.mean(axis=1), config.group_count)

    def infeasible(reason):
        return DropResult(architecture=architecture, feasible=False,
                          partition=partition, infeasible_reason=reason)

    placed: list[list[int]] = [[] for _ in range(config.num_subcarriers)]
    power = np.zeros(config.num_subcarriers)  # carried bill of each stack
    assignments = []
    try:
        blind = (_cost_matrix(config, h, [[]] * config.num_subcarriers, power,
                              np.arange(config.num_users), architecture)[0]
                 if architecture is Architecture.THP_TX else None)
        for users in map(np.asarray, partition.groups):
            costs, grown = ((blind[:, users], None) if blind is not None else
                            _cost_matrix(config, h, placed, power, users,
                                         architecture))
            try:
                assignment = solve_assignment(
                    costs, [config.quota[k] for k in users])
            except InfeasibleAssignmentError as exc:
                return infeasible(str(exc))
            assignments.append(assignment)
            for n, j in np.argwhere(assignment.a).tolist():
                placed[n].append(int(users[j]))
                if grown is not None:
                    power[n] = grown[n, j]
        total = _final_power(config, h, placed, power, architecture,
                             assignments)
    except np.linalg.LinAlgError as exc:
        return infeasible(f"numerical failure (LinAlgError: {exc})")
    if not math.isfinite(total):
        return infeasible("final precoder stack is rank deficient on some "
                          "subcarrier")
    power_db = 10.0 * math.log10(total / config.noise_variance)
    return DropResult(architecture=architecture, feasible=True,
                      partition=partition, assignments=tuple(assignments),
                      total_power=total, power_db=power_db)


def _sweep_drop(args):
    configs, archs, drop_index = args
    out = np.full((len(configs), len(archs)), np.nan)
    feas = np.ones(len(configs), dtype=bool)
    # Each budget class (configs equal up to a common positive factor on
    # the budgets, keyed by the budgets over the first) is solved once, at
    # its first point; every cost scales as 1/budget, so the other points
    # rescale that point's power by the budget ratio.
    solved = {}
    for p, config in enumerate(configs):
        scale = config.mse_budget[0]
        key = replace(config, mse_budget=tuple(g / scale
                                               for g in config.mse_budget))
        if key not in solved:
            channels = generate_drop(config, drop_index)
            solved[key] = (scale, [run_drop(config, channels, arch)
                                   for arch in archs])
        solved_scale, results = solved[key]
        for a, result in enumerate(results):
            if not result.feasible:
                feas[p] = False
            else:
                total = result.total_power * (solved_scale / scale)
                out[p, a] = 10.0 * math.log10(total / config.noise_variance)
    return drop_index, out, feas


def run_sweep(points: list[tuple[float, ScenarioConfig]], drops: int,
              architectures, axis_name: str = "rho",
              workers: int = 1) -> SweepResult:
    """Paired Monte Carlo over identical drop indices for all
    architectures and axis points. The pool gets at most one worker per
    drop; a single worker runs the drops in this process."""
    archs = tuple(architectures)
    configs = [cfg for _, cfg in points]
    seed = configs[0].rng_seed if configs else 0
    power = np.full((len(points), len(archs), drops), np.nan)
    feasible = np.ones((len(points), drops), dtype=bool)

    tasks = [(configs, archs, d) for d in range(drops)]
    workers = min(workers, drops)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_drop, tasks))
    else:
        results = [_sweep_drop(t) for t in tasks]
    for drop_index, out, feas in sorted(results):
        power[:, :, drop_index] = out
        feasible[:, drop_index] = feas
    # paired comparison: a drop counts only if every architecture and
    # axis point is feasible on it
    feasible &= ~np.isnan(power).any(axis=1)
    return SweepResult(axis_name=axis_name,
                       axis_values=tuple(v for v, _ in points),
                       architectures=archs, power_db=power,
                       feasible=feasible, drops=drops, seed=seed)


def qam_symbols(rng: np.random.Generator, constellation_size: int,
                shape) -> np.ndarray:
    """Uniform square M-QAM symbols with variance 2(M-1)/3; the real, then
    the imaginary parts are the draws of `rng.choice(levels, shape)`."""
    side = math.isqrt(constellation_size)
    levels = np.arange(-(side - 1), side, 2)
    symbols = (levels[:, None] + 1j * levels).ravel()  # at re * side + im
    index = rng.integers(0, side, shape) * side + rng.integers(0, side, shape)
    return symbols.take(index)


def link_level_verify(config: ScenarioConfig, channels: ChannelSet,
                      drop_result: DropResult, num_symbols: int,
                      seed: int = 0,
                      noiseless: bool = False) -> np.ndarray:
    """Empirical per-user sum-MSE of the full THP chain.

    Draws random QAM data, runs modulo precoding, forward filters,
    channel, AWGN, receive filters and the receiver-side modulo, and
    measures E|z - d|^2 per stream, summed over each user's assigned
    subcarriers. Valid where modulo folding of noise is negligible.
    The plans come from `build_plans`, so `drop_result` must be a
    feasible result of the proposed architecture. Subcarriers run one at
    a time, their co-channel users stacked in one array per stage; the
    draws are the QAM real and imaginary parts, then each user's noise
    real and imaginary parts.
    """
    if num_symbols < 1:
        raise ValueError(f"num_symbols must be at least 1, got {num_symbols}")
    plans = build_plans(config, channels, drop_result)
    rng = np.random.default_rng(seed)
    ell = config.streams_per_user
    m = config.constellation_size
    sq_err = np.zeros(config.num_users)
    for n, plan in enumerate(plans):
        if plan is None:
            continue
        users = list(plan.users)
        d = qam_symbols(rng, m, (len(users) * ell, num_symbols))
        b, _ = thp_precode(d, plan.b_matrix, ell, m)
        forward = np.hstack(plan.forward)
        x = (channels.matrices[n, users] @ forward) @ b  # (users, N_R, S)
        if not noiseless:
            noise = rng.standard_normal((len(users), 2) + x.shape[1:])
            noise *= math.sqrt(config.noise_variance / 2.0)
            x.real += noise[:, 0]
            x.imag += noise[:, 1]
        z = plan.receiver @ x
        fold(z, m)
        err = np.subtract(z, d.reshape(z.shape), out=z).view(float)
        sq_err[users] += np.einsum("kij,kij->k", err, err) / num_symbols
    return sq_err
