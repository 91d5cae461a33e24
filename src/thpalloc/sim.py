"""Two-layer pipeline orchestration and Monte Carlo sweeps.

One drop runs: channel-quality metrics -> worst-first partition ->
per-group cost matrices -> per-group exact assignment (groups
in order, so later groups see the users already placed) -> feedback
and transceiver matrices. Sweeps repeat this over drops and target-MSE
(or user-count) axes with all architectures paired on identical drops.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from thpalloc import baselines
from thpalloc.assignment import (Assignment, InfeasibleAssignmentError,
                                 solve_assignment)
from thpalloc.baselines import Architecture
from thpalloc.channel import ChannelSet, ScenarioConfig, generate_drop
from thpalloc.loading import (INFEASIBLE_COST, effective_gains,
                              equalizing_rotation, power_loading,
                              receiver_matrix, transmit_matrix)
from thpalloc.partition import GroupPartition, channel_quality, partition_worst_first
from thpalloc.precoding import (effective_channel, feedback_matrix, modulo,
                                null_space_basis, thp_precode)


@dataclass(frozen=True)
class PairTransceiver:
    """Matrices of one assigned (subcarrier, user) pair."""

    user: int
    forward: np.ndarray   # F = V0 U, (N_T, L)
    inner: np.ndarray     # U, (m, L)
    receiver: np.ndarray  # G, (L, N_R)
    cost: float           # tr(U^H U)


@dataclass(frozen=True)
class SubcarrierPlan:
    """Ordered co-channel users on one subcarrier with THP feedback."""

    users: tuple[int, ...]            # group order
    pairs: tuple[PairTransceiver, ...]
    b_matrix: np.ndarray              # strictly block lower triangular


@dataclass(frozen=True)
class DropResult:
    """Outcome of one architecture on one drop."""

    architecture: Architecture
    feasible: bool
    partition: GroupPartition | None = None
    assignments: tuple[Assignment, ...] = ()
    total_power: float = math.nan        # linear, sigma_d^2 * sum tr(U^H U)
    power_db: float = math.nan           # 10 log10(total / sigma^2)
    user_mse: np.ndarray | None = None   # analytic per-user sum-MSE
    pair_costs: dict = field(default_factory=dict)  # (n, k) -> cost
    plans: tuple[SubcarrierPlan | None, ...] = ()   # proposed scheme only
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
                          for a in range(len(self.architectures))]
                         for p in range(len(self.axis_values))])

    @property
    def stderr_db(self) -> np.ndarray:
        out = np.empty((len(self.axis_values), len(self.architectures)))
        for p in range(len(self.axis_values)):
            vals = self.power_db[p][:, self.feasible[p]]
            if vals.shape[1] < 2:
                out[p] = 0.0
                continue
            out[p] = np.std(vals, axis=1, ddof=1) / math.sqrt(vals.shape[1])
        return out

    @property
    def infeasible_rate(self) -> np.ndarray:
        return 1.0 - self.feasible.mean(axis=1)


def _group_quotas(config: ScenarioConfig, users) -> list[int]:
    return [config.quota[k] for k in users]


def _proposed_costs(config, channels, placed, users):
    """Cost matrix for the proposed (and identical group-1 linear) scheme."""
    n_sub = config.num_subcarriers
    costs = np.empty((n_sub, len(users)))
    for n in range(n_sub):
        h_all = channels.matrices[n]
        stack = (np.vstack([h_all[i] for i in placed[n]]) if placed[n]
                 else np.empty((0, config.tx_antennas)))
        basis = null_space_basis(stack, config.tx_antennas)
        for j, k in enumerate(users):
            eff = effective_channel(h_all[k], basis)
            lam = effective_gains(eff, config.streams_per_user)
            if lam is None:
                costs[n, j] = INFEASIBLE_COST
            else:
                costs[n, j] = power_loading(
                    lam, config.mse_budget[k], config.quota[k],
                    config.noise_variance).cost
    return costs


def _zf_costs(config, channels, placed, users):
    ell = config.streams_per_user
    n_sub = config.num_subcarriers
    costs = np.empty((n_sub, len(users)))
    for n in range(n_sub):
        h_all = channels.matrices[n]
        fixed = [baselines.restrict_rows(h_all[i], ell) for i in placed[n]]
        for j, k in enumerate(users):
            stack = fixed + [baselines.restrict_rows(h_all[k], ell)]
            costs[n, j] = baselines.zf_cost(
                stack, len(fixed), config.mse_budget[k], config.quota[k],
                config.noise_variance, ell)
    return costs


def _thp_qr_costs(config, channels, placed, users):
    """Single-user allocation costs for the plug-in THP baseline.

    The precoder removes co-channel interference at the transmitter, so
    its allocator ranks subcarriers by each user's own channel only; the
    spatial compatibility of co-channel users is never consulted. The
    price of that blindness is paid by the final stacked precoder
    (thp_final_power)."""
    ell = config.streams_per_user
    n_sub = config.num_subcarriers
    costs = np.empty((n_sub, len(users)))
    for n in range(n_sub):
        h_all = channels.matrices[n]
        for j, k in enumerate(users):
            costs[n, j] = baselines.thp_qr_cost(
                [baselines.restrict_rows(h_all[k], ell)],
                config.mse_budget[k], config.quota[k],
                config.noise_variance, ell)
    return costs


def _linear_costs(config, channels, placed, mutual_cost, users):
    """Incremental total-power costs for the mutually block-diagonalized
    linear scheme: adding the candidate re-projects every user already
    fixed on the subcarrier, so the candidate is charged its own cost
    plus the extra power the fixed users now need."""
    n_sub = config.num_subcarriers
    ell = config.streams_per_user
    sigma2 = config.noise_variance
    costs = np.empty((n_sub, len(users)))
    for n in range(n_sub):
        h_all = channels.matrices[n]
        fixed = placed[n]
        for j, k in enumerate(users):
            delta = baselines.linear_mutual_cost(
                h_all[k], [h_all[i] for i in fixed], config.mse_budget[k],
                config.quota[k], sigma2, ell)
            for i in fixed:
                others = [h_all[x] for x in fixed if x != i] + [h_all[k]]
                delta += (baselines.linear_mutual_cost(
                    h_all[i], others, config.mse_budget[i], config.quota[i],
                    sigma2, ell) - mutual_cost[n][i])
            costs[n, j] = delta
    return costs


def _refresh_mutual_costs(config, channels, placed, mutual_cost):
    """Recompute each placed user's mutually projected cost after a
    group round changed the co-channel sets."""
    ell = config.streams_per_user
    for n in range(config.num_subcarriers):
        h_all = channels.matrices[n]
        for i in placed[n]:
            mutual_cost[n][i] = baselines.linear_mutual_cost(
                h_all[i], [h_all[x] for x in placed[n] if x != i],
                config.mse_budget[i], config.quota[i],
                config.noise_variance, ell)


def _final_power(config, channels, placed, architecture, pair_costs,
                 mutual_cost):
    """Total transmit power of the finished plan, linear scale.

    The proposed scheme's sequential costs are exact final powers. The
    baselines recompute from the final per-subcarrier stacks: the
    blind-allocation THP and channel-inversion schemes because their
    assignment costs ignore or only partially track co-channel users,
    the linear scheme from its mutually projected loadings."""
    ell = config.streams_per_user
    if architecture is Architecture.THP_TX_LIN_RX:
        return config.symbol_variance * sum(pair_costs.values())
    if architecture is Architecture.LIN_TX_LIN_RX:
        return config.symbol_variance * sum(
            mutual_cost[n][i] for n in range(config.num_subcarriers)
            for i in placed[n])
    total = 0.0
    for n in range(config.num_subcarriers):
        users = placed[n]
        if not users:
            continue
        h_all = channels.matrices[n]
        blocks = [baselines.restrict_rows(h_all[i], ell) for i in users]
        budgets = [config.mse_budget[i] for i in users]
        quotas = [config.quota[i] for i in users]
        if architecture is Architecture.THP_TX:
            total += baselines.thp_final_power(
                blocks, budgets, quotas, config.noise_variance, ell)
        else:
            total += baselines.zf_final_power(
                blocks, budgets, quotas, config.noise_variance, ell)
    return config.symbol_variance * total


def _build_plans(config, channels, placed):
    """Transceivers and THP feedback for the proposed scheme."""
    ell = config.streams_per_user
    rotation = equalizing_rotation(ell)
    plans = []
    for n in range(config.num_subcarriers):
        users = placed[n]
        if not users:
            plans.append(None)
            continue
        h_all = channels.matrices[n]
        pairs = []
        forwards = []
        for pos, k in enumerate(users):
            stack = (np.vstack([h_all[i] for i in users[:pos]]) if pos
                     else np.empty((0, config.tx_antennas)))
            basis = null_space_basis(stack, config.tx_antennas)
            eff = effective_channel(h_all[k], basis)
            lam = effective_gains(eff, ell)
            loading = power_loading(lam, config.mse_budget[k],
                                    config.quota[k], config.noise_variance)
            u = transmit_matrix(eff.right[:, :ell], loading, rotation)
            f = basis.v0 @ u
            g = receiver_matrix(eff.hp, u)
            pairs.append(PairTransceiver(user=k, forward=f, inner=u,
                                         receiver=g, cost=loading.cost))
            forwards.append(f)
        t_blocks = [[h_all[users[p]] @ forwards[i] if i <= p else None
                     for i in range(len(users))] for p in range(len(users))]
        b = feedback_matrix(t_blocks, ell)
        plans.append(SubcarrierPlan(users=tuple(users), pairs=tuple(pairs),
                                    b_matrix=b))
    return tuple(plans)


_COST_FNS = {
    Architecture.THP_TX_LIN_RX: _proposed_costs,
    Architecture.ZF_TX: _zf_costs,
    Architecture.THP_TX: _thp_qr_costs,
}


def run_drop(config: ScenarioConfig, channels: ChannelSet,
             architecture: Architecture) -> DropResult:
    """Run the full two-layer pipeline for one architecture on one drop."""
    quality = np.array([channel_quality(channels, k)
                        for k in range(config.num_users)])
    partition = partition_worst_first(quality, config.group_count)

    n_sub = config.num_subcarriers
    placed: list[list[int]] = [[] for _ in range(n_sub)]
    mutual_cost: list[dict[int, float]] = [{} for _ in range(n_sub)]
    assignments = []
    pair_costs: dict[tuple[int, int], float] = {}
    linear = architecture is Architecture.LIN_TX_LIN_RX

    for users in partition.groups:
        if linear:
            costs = _linear_costs(config, channels, placed, mutual_cost,
                                  users)
        else:
            costs = _COST_FNS[architecture](config, channels, placed, users)
        try:
            assignment = solve_assignment(costs, _group_quotas(config, users))
        except InfeasibleAssignmentError as exc:
            return DropResult(architecture=architecture, feasible=False,
                              partition=partition,
                              infeasible_reason=str(exc))
        assignments.append(assignment)
        for n in range(n_sub):
            for j, k in enumerate(users):
                if assignment.a[n, j]:
                    placed[n].append(k)
                    pair_costs[(n, k)] = costs[n, j]
        if linear:
            _refresh_mutual_costs(config, channels, placed, mutual_cost)

    total = _final_power(config, channels, placed, architecture, pair_costs,
                         mutual_cost)
    if not math.isfinite(total):
        return DropResult(architecture=architecture, feasible=False,
                          partition=partition,
                          infeasible_reason="final precoder stack is rank "
                                            "deficient on some subcarrier")
    power_db = 10.0 * math.log10(total / config.noise_variance)
    user_mse = np.asarray(config.mse_budget, dtype=float)  # active budgets
    plans = (_build_plans(config, channels, placed)
             if architecture is Architecture.THP_TX_LIN_RX else ())
    return DropResult(architecture=architecture, feasible=True,
                      partition=partition, assignments=tuple(assignments),
                      total_power=total, power_db=power_db,
                      user_mse=user_mse, pair_costs=pair_costs, plans=plans)


def _sweep_drop(args):
    configs, archs, drop_index = args
    out = np.full((len(configs), len(archs)), np.nan)
    feas = np.ones(len(configs), dtype=bool)
    for p, config in enumerate(configs):
        channels = generate_drop(config, drop_index)
        for a, arch in enumerate(archs):
            result = run_drop(config, channels, arch)
            if not result.feasible:
                feas[p] = False
            else:
                out[p, a] = result.power_db
    return drop_index, out, feas


def run_sweep(points: list[tuple[float, ScenarioConfig]], drops: int,
              architectures, axis_name: str = "rho",
              workers: int = 1) -> SweepResult:
    """Paired Monte Carlo over identical drop indices for all
    architectures and axis points."""
    archs = tuple(architectures)
    configs = [cfg for _, cfg in points]
    seed = configs[0].rng_seed if configs else 0
    power = np.full((len(points), len(archs), drops), np.nan)
    feasible = np.ones((len(points), drops), dtype=bool)

    tasks = [(configs, archs, d) for d in range(drops)]
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
    """Uniform square M-QAM symbols with variance 2(M-1)/3."""
    levels = np.arange(-(math.isqrt(constellation_size) - 1),
                       math.isqrt(constellation_size), 2)
    return (rng.choice(levels, size=shape)
            + 1j * rng.choice(levels, size=shape))


def link_level_verify(config: ScenarioConfig, channels: ChannelSet,
                      drop_result: DropResult, num_symbols: int,
                      seed: int = 0,
                      noiseless: bool = False) -> np.ndarray:
    """Empirical per-user sum-MSE of the full THP chain.

    Draws random QAM data, runs modulo precoding, forward filters,
    channel, AWGN, receive filters and the receiver-side modulo, and
    measures E|z - d|^2 per stream, summed over each user's assigned
    subcarriers. Valid where modulo folding of noise is negligible.
    """
    if not drop_result.feasible or not drop_result.plans:
        raise ValueError("link-level verification needs a feasible result "
                         "of the proposed architecture")
    rng = np.random.default_rng(seed)
    ell = config.streams_per_user
    m = config.constellation_size
    sq_err = np.zeros(config.num_users)
    for n, plan in enumerate(drop_result.plans):
        if plan is None:
            continue
        q = len(plan.users)
        d = qam_symbols(rng, m, (q * ell, num_symbols))
        b, _ = thp_precode(d, plan.b_matrix, ell, m)
        tx = np.zeros((config.tx_antennas, num_symbols), dtype=complex)
        for pos in range(q):
            tx += plan.pairs[pos].forward @ b[pos * ell:(pos + 1) * ell]
        for pos, k in enumerate(plan.users):
            h = channels.matrices[n][k]
            x = h @ tx
            if not noiseless:
                noise = (rng.standard_normal((h.shape[0], num_symbols))
                         + 1j * rng.standard_normal((h.shape[0], num_symbols)))
                x = x + math.sqrt(config.noise_variance / 2.0) * noise
            y = plan.pairs[pos].receiver @ x
            z, _ = modulo(y, m)
            err = z - d[pos * ell:(pos + 1) * ell]
            sq_err[k] += float(np.mean(np.abs(err) ** 2, axis=1).sum())
    return sq_err
