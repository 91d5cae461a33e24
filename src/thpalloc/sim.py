"""Two-layer pipeline orchestration and Monte Carlo sweeps.

One drop runs: channel-quality metrics -> worst-first partition ->
per-group cost matrices -> per-group exact assignment (groups in order,
so later groups see the users already placed) -> final power. Each
round prices the subcarriers in one array-shaped call per placed count:
a price depends only on the users already placed on the subcarrier. The
placement is one (N, Q) array, `order[n, i]` the i-th user placed on
subcarrier n (its THP precoding order), -1 past its count. The proposed
scheme's transceivers and THP feedback, (N, ...) arrays aligned with
`order`, are built on demand by `build_plans` for `link_level_verify`.

Sweeps repeat this over drops and target-MSE (or user-count) axes with
all architectures paired on identical drops. Every cost is homogeneous
of degree -1 in the budgets, so the points of a budget class (budgets
equal up to a common factor, e.g. a rho axis) share one assignment: a
sweep solves each drop once per class and rescales (`_sweep_drop`).

A per-drop memo holds the drop's architecture-independent work, shared
by the architectures a sweep solves on it: the partition; each
channel's full SVD as LAPACK returns it (`_factors`), which gives every
first-group price and every placed user's null space V0; the singular
values of each candidate's h V0, which price it for the proposed scheme
and ZfTx; each placement's buckets and null-space price; and each
distinct group cost matrix's allocation (the proposed scheme and
LinTxLinRx share the first group's, as ZfTx and ThpTx do on MISO links).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from thpalloc import baselines
from thpalloc.assignment import InfeasibleAssignmentError, solve_assignment
from thpalloc.baselines import Architecture
from thpalloc.channel import ChannelSet, ScenarioConfig, generate_drop
from thpalloc.loading import (_null_spaces, equalizing_rotation,
                              power_loading, pricing_tail, projected_costs,
                              receiver_matrix, singular_gains,
                              transmit_matrix)
from thpalloc.partition import channel_quality, partition_worst_first
from thpalloc.precoding import fold, thp_recursion


@dataclass(frozen=True)
class DropResult:
    """Outcome of one architecture on one drop."""

    architecture: Architecture
    feasible: bool
    partition: tuple[tuple[int, ...], ...] | None = None  # worst first
    order: np.ndarray | None = None      # (N, Q) placement, if feasible
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
    feasible: np.ndarray             # (points, drops), no NaN in any arch
    drops: int
    seed: int

    @cached_property  # derived once, read-only
    def mean_power_db(self) -> np.ndarray:
        out = np.array([[np.mean(self.power_db[p, a][self.feasible[p]])
                         if self.feasible[p].any() else math.nan
                         for a in range(len(self.architectures))]
                        for p in range(len(self.axis_values))])
        out.flags.writeable = False
        return out

    @cached_property
    def stderr_db(self) -> np.ndarray:
        out = np.zeros((len(self.axis_values), len(self.architectures)))
        for p in range(len(self.axis_values)):
            vals = self.power_db[p][:, self.feasible[p]]
            if vals.shape[1] >= 2:
                out[p] = np.std(vals, axis=1, ddof=1) / math.sqrt(vals.shape[1])
        out.flags.writeable = False
        return out

    @property
    def infeasible_rate(self) -> np.ndarray:
        return 1.0 - self.feasible.mean(axis=1)


def _bills(config, h, rows, users, architecture, scale=1.0, first=None):
    """Each user's power under a baseline's precoder, for the stacks of
    users (b, ..., c), in placement order, on the subcarriers rows (b,),
    at `scale` times the price weights (LinTxLinRx: the first `first`)."""
    # looked up per call, so a wrapper set on `baselines` sees every call
    bills = (baselines.zf_bills if architecture is Architecture.ZF_TX else
             baselines.thp_bills if architecture is Architecture.THP_TX else
             baselines.linear_bills)
    if architecture is Architecture.LIN_TX_LIN_RX:
        users = baselines.linear_order(users, first)
    stacks = h[rows.reshape((-1,) + (1,) * (users.ndim - 1)), users]
    return bills(stacks, config.price_weight[users] * scale,
                 config.streams_per_user)


def _buckets(order, memo):
    """[(subcarriers (b,), their users (b, c)) per count c], kept in memo."""
    key = ("buckets", order.tobytes())
    if key not in memo:
        sizes = (order >= 0).sum(1)
        memo[key] = [(rows, order[rows, :c]) for c in range(order.shape[1] + 1)
                     if (rows := (sizes == c).nonzero()[0]).size]
    return memo[key]


def _factors(h, rows, users, memo):
    """Full SVD (U, s, Vh) of the channels h[rows, users] (broadcast
    indices), each factored once per drop: `memo` keeps a call's new ones
    as LAPACK returns them (a later batch appended), with their (N, K)
    positions; a call for all of them, in order, reads them in place."""
    index, kept = memo.setdefault(("factors",),
                                  (np.full(h.shape[:2], -1), []))
    rows, users = np.broadcast_arrays(rows, users)
    new = index[rows, users] < 0
    if new.any():
        n, k = rows[new], users[new]
        batch = np.linalg.svd(h[n, k])
        index[n, k] = index.max() + 1 + np.arange(n.size)
        kept[:] = map(np.concatenate, zip(kept, batch)) if kept else batch
    at = index[rows, users]
    if at.size == len(kept[1]) and (at.ravel() == np.arange(at.size)).all():
        return tuple(part.reshape(at.shape + part.shape[1:]) for part in kept)
    return tuple(part[at] for part in kept)


def _null_space_prices(config, h, order, users, architecture, memo):
    """(N, U) price of each candidate in `users` sent in the null space
    of the users `order` placed on each subcarrier by earlier groups, one
    batch per placed count: the proposed scheme's cost, or ZfTx's bill of
    the candidate's pseudo-inverse columns (first L rows), kept read-only
    in `memo` per (precoder, users, placement). Unless ZfTx keeps L < N_R
    rows or N_R = 1, candidates off an empty stack price from their
    `_factors`, and off one user from the kept singular values of each
    h V0 (V0 from the user's `_factors`; ZfTx inverts h V0 too)."""
    zf = architecture is Architecture.ZF_TX
    key = ("prices", zf, users.tobytes(), order.tobytes())
    if key not in memo:
        chan = baselines.restrict_rows(h, config.streams_per_user) if zf else h
        cached = 1 < chan.shape[-2] == h.shape[-2]
        gains = baselines.zf_gains if zf else singular_gains
        args = config.price_weight[users], config.streams_per_user, gains
        prices = np.empty((config.num_subcarriers, users.size))
        for rows, stack in _buckets(order, memo):
            candidates = chan[rows[:, None], users]
            if not cached or stack.shape[1] > 1:
                below = chan[rows[:, None], stack].reshape(rows.size, -1,
                                                           h.shape[-1])
                prices[rows] = projected_costs(below, candidates, *args)
                continue
            if stack.shape[1] == 0:
                parts = [(..., candidates,
                          _factors(h, rows[:, None], users, memo))]
            else:
                svd = _factors(h, rows, stack[:, 0], memo)
                who, values = memo.setdefault(("projected", users.tobytes()), (
                    np.full(len(h), -1),
                    np.empty(prices.shape + h.shape[2:3])))
                new = who[rows] != stack[:, 0]
                for sel, v0 in _null_spaces(None, [f[new] for f in svd]):
                    n = rows[new][sel]
                    values[n] = np.linalg.svd(h[n[:, None], users]
                                              @ v0[:, None], compute_uv=False)
                who[rows], values = stack[:, 0], values[rows]
                parts = ([(sel, candidates[sel] @ v0[:, None],
                           (None, values[sel], None))
                          for sel, v0 in _null_spaces(None, svd)] if zf else
                         [(..., None, (None, values, None))])
            prices[rows] = pricing_tail(parts, candidates, *args)
        prices.flags.writeable = False
        memo[key] = prices
    return memo[key]


def _solve(costs, quotas, memo):
    """`solve_assignment` of one group, or its InfeasibleAssignmentError,
    kept in `memo` under the cost matrix's bytes and the quotas, so no
    matrix is solved twice on a drop. The allocation is read-only."""
    key = ("assignment", costs.tobytes(), quotas)
    if key not in memo:
        try:
            memo[key] = solve_assignment(costs, quotas)
            memo[key].flags.writeable = False
        except InfeasibleAssignmentError as exc:
            memo[key] = exc
    return memo[key]


def _cost_matrix(config, h, order, power, users, architecture, memo):
    """(N, U) price of each candidate in `users` on each subcarrier given
    the users `order` placed there by earlier groups, and for LinTxLinRx
    the (N, U) bill of each grown stack (else None): LinTxLinRx pays it
    less the placed stack's carried bill `power` (N,), the others their
    null-space price (the proposed scheme's is its share of the total)."""
    prices = _null_space_prices(config, h, order, users, architecture, memo)
    if architecture is not Architecture.LIN_TX_LIN_RX:
        return prices, None
    grown_power = prices.copy()
    for rows, stack in _buckets(order, memo):
        if stack.shape[1]:  # + the placed users' bills
            grown = np.empty((rows.size, users.size, stack.shape[1] + 1), int)
            grown[..., :-1], grown[..., -1] = stack[:, None], users
            grown_power[rows] += _bills(config, h, rows, grown, architecture,
                                        first=stack.shape[1]).sum(axis=-1)
    return grown_power - power[:, None], grown_power


def _final_power(config, h, order, power, architecture, solved, memo):
    """Total transmit power of the finished plan, linear scale: the
    proposed scheme's committed costs (each group's (allocation, cost
    matrix) in `solved`), LinTxLinRx's carried `power`, else the final
    stacks' bills (ThpTx's blind prices never saw them)."""
    if architecture is Architecture.THP_TX_LIN_RX:
        return config.symbol_variance * sum(
            float(np.where(a, costs, 0.0).sum()) for a, costs in solved)
    if architecture is not Architecture.LIN_TX_LIN_RX:
        for rows, stack in _buckets(order, memo):
            power[rows] = _bills(config, h, rows, stack, architecture).sum(-1)
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
                drop_result: DropResult) -> tuple[np.ndarray, ...]:
    """Transceivers and THP feedback of a feasible proposed-scheme result,
    row n aligned with its `order[n]` and 0 past its count c: forward
    (N, Q, N_T, L), F = V0 U; receiver (N, Q, L, N_R), G; feedback
    (N, QL, QL), B = C - I, 0 outside its leading cL rows and columns,
    block (p, i < p) C_pi = G_p H_p F_i. Position p is built in one
    batched pass over the subcarriers with more than p users: the
    null-space bases V0 of the earlier users (column phases fixed), one
    SVD of H' = H V0 per null-space rank, the loading, F, G and C_pi.
    G_p is the minimum-norm zero-forcing receiver of the full-column-rank
    T_pp = H_p F_p, so C_pi = pinv(T_pp) T_pi."""
    if (not drop_result.feasible
            or drop_result.architecture is not Architecture.THP_TX_LIN_RX):
        raise ValueError("THP plans need a feasible result of the proposed "
                         "architecture")
    num_sc, ell, tx = (config.num_subcarriers, config.streams_per_user,
                       config.tx_antennas)
    order = drop_result.order
    counts = (order >= 0).sum(1)
    h = channels.matrices
    rotation = equalizing_rotation(ell)
    q = order.shape[1]
    forward = np.zeros((num_sc, q, tx, ell), dtype=complex)
    receiver = np.zeros((num_sc, q, ell, config.rx_antennas), dtype=complex)
    # feedback[n, p, :, i] = C_pi for i < p, the blocks of B = C - I
    feedback = np.zeros((num_sc, q, ell, q, ell), dtype=complex)
    for p in range(counts.max(initial=0)):
        rows = (counts > p).nonzero()[0]
        below = h[rows[:, None], order[rows, :p]].reshape(rows.size, -1, tx)
        for sel, v0 in _null_spaces(below):
            n, k = rows[sel], order[rows[sel], p]
            v0 = _fix_column_phases(v0)
            hp = h[n, k] @ v0
            _, s, vh = np.linalg.svd(hp, full_matrices=False)
            u = transmit_matrix(vh[:, :ell].conj().swapaxes(-1, -2),
                                power_loading(s[:, :ell] ** 2,
                                              config.price_weight[k]), rotation)
            forward[n, p] = v0 @ u
            receiver[n, p] = receiver_matrix(hp, u)
        feedback[rows, p, :, :p] = (
            receiver[rows, p, None] @ (h[rows, order[rows, p]][:, None]
                                       @ forward[rows, :p])).swapaxes(1, 2)
    return forward, receiver, feedback.reshape(num_sc, q * ell, q * ell)


@np.errstate(over="ignore")  # an overflowing price or bill is +inf
def run_drop(config: ScenarioConfig, channels: ChannelSet,
             architecture: Architecture, *, memo=None) -> DropResult:
    """Run the full two-layer pipeline for one architecture on one drop.

    `memo` keeps the drop's architecture-independent work; the
    architectures of one drop and budget class may share one. An unmet
    quota (naming the users), a numerical failure, a rank-deficient final
    stack or an overflowing total power makes the drop infeasible, with
    the cause in `infeasible_reason`; an overflowing price is +inf."""
    h = channels.matrices
    memo = {} if memo is None else memo
    if ("partition",) not in memo:
        memo["partition",] = partition_worst_first(
            channel_quality(channels), config.group_count)
    partition = memo["partition",]

    def infeasible(reason):
        return DropResult(architecture=architecture, feasible=False,
                          partition=partition, infeasible_reason=reason)

    order = np.full((config.num_subcarriers, config.group_count), -1)
    counts = np.zeros(config.num_subcarriers, dtype=int)  # users placed
    power = np.zeros(config.num_subcarriers)  # carried bill of each stack
    solved = []  # each group's (allocation, cost matrix)
    try:
        blind = None
        if architecture is Architecture.THP_TX:  # each user billed alone
            blind = baselines.thp_bills(h[:, :, None], np.broadcast_to(
                config.price_weight[:, None], h.shape[:2] + (1,)),
                config.streams_per_user)[..., 0]
        quota = np.asarray(config.quota)
        for users in map(np.asarray, partition):
            costs, grown = ((blind[:, users], None) if blind is not None else
                            _cost_matrix(config, h, order, power, users,
                                         architecture, memo))
            assignment = _solve(costs, tuple(quota[users].tolist()), memo)
            if isinstance(assignment, InfeasibleAssignmentError):
                blocking = sorted(users[assignment.blocking_users].tolist())
                return infeasible(f"quotas cannot be met for users {blocking}")
            solved.append((assignment, costs))
            n, j = assignment.nonzero()
            order[n, counts[n]] = users[j]
            counts[n] += 1
            if grown is not None:
                power[n] = grown[n, j]
        total = _final_power(config, h, order, power, architecture, solved,
                             memo)
    except np.linalg.LinAlgError as exc:
        return infeasible(f"numerical failure (LinAlgError: {exc})")
    if not math.isfinite(total):  # a lost rank bills +inf even at weight 0
        with np.errstate(invalid="ignore"):  # 0 * an overflowing sum
            lost = np.isinf(power).any() and any(np.isinf(_bills(
                config, h, rows, stack, architecture, 0.0)).any()
                for rows, stack in _buckets(order, memo))
        return infeasible("final precoder stack is rank deficient on some "
                          "subcarrier" if lost else
                          "total transmit power overflows")
    power_db = 10.0 * math.log10(total / config.noise_variance)
    return DropResult(architecture=architecture, feasible=True,
                      partition=partition, order=order, total_power=total,
                      power_db=power_db)


def _sweep_drop(args):
    """(points, architectures) power of one drop, NaN where infeasible."""
    configs, archs, drop_index = args
    out = np.full((len(configs), len(archs)), np.nan)
    # Each budget class (configs equal but for budgets in the same ratios
    # to the first, unless a ratio is 0 or inf) is solved once, at its
    # first point; every cost scales with the weight, so as 1/budget, and
    # the other points rescale its powers by the budget ratio if it is
    # feasible (an overflow may not recur) and the ratio and the rescaled
    # powers are normal floats, else they are solved alone.
    solved, tiny = {}, np.finfo(float).tiny
    for p, config in enumerate(configs):
        scale = config.mse_budget[0]
        ratios = tuple(g / scale for g in config.mse_budget)
        key = tuple(getattr(config, f.name) if f.name != "mse_budget" else
                    ratios if all(0 < r < math.inf for r in ratios) else p
                    for f in fields(config))
        factor = solved[key][0] / scale if key in solved else 1.0
        if key in solved and not (tiny <= factor < math.inf and all(
                r.feasible and tiny <= r.total_power * factor < math.inf
                for r in solved[key][1])):
            key = (key, p)
        if key not in solved:
            channels = generate_drop(config, drop_index)
            memo = {}  # the null-space prices of this drop and class
            solved[key] = (scale, [run_drop(config, channels, arch, memo=memo)
                                   for arch in archs])
        solved_scale, results = solved[key]
        for a, result in enumerate(results):
            if result.feasible:
                total = result.total_power * (solved_scale / scale)
                out[p, a] = 10.0 * math.log10(total / config.noise_variance)
    return out


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

    tasks = [(configs, archs, d) for d in range(drops)]
    workers = min(workers, drops)
    if workers > 1:  # imported here: a serial run loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_sweep_drop, tasks))
    else:
        blocks = [_sweep_drop(t) for t in tasks]
    for d, block in enumerate(blocks):  # in task order
        power[:, :, d] = block
    # paired: a drop counts at a point only if no architecture is NaN there
    feasible = ~np.isnan(power).any(axis=1)
    return SweepResult(axis_name=axis_name,
                       axis_values=tuple(v for v, _ in points),
                       architectures=archs, power_db=power,
                       feasible=feasible, drops=drops, seed=seed)


def qam_symbols(rng: np.random.Generator, constellation_size: int,
                shape, out=None) -> np.ndarray:
    """Uniform square M-QAM symbols with variance 2(M-1)/3; the real, then
    the imaginary parts are the draws of `rng.choice(levels, shape)`. Such
    a draw is the top log2(side) bits of the next 32-bit half of a PCG64
    word, low half first (Lemire's method never rejects a power-of-two
    range), so `rng` must be PCG64 with no half buffered."""
    side = math.isqrt(constellation_size)
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64) or bits.state["has_uint32"]:
        raise ValueError("qam_symbols needs PCG64 with no buffered half")
    levels = np.arange(-(side - 1), side, 2)
    symbols = (levels[:, None] + 1j * levels).ravel()  # at re * side + im
    halves = bits.random_raw(shape).astype("<u8", copy=False).view("<u4")
    halves >>= 33 - side.bit_length()  # keep the top log2(side) bits
    re, im = halves.reshape(2, -1)  # in draw order: all re, then all im
    re *= side
    re += im
    return symbols.take(re.reshape(shape), out=out, mode="clip")


def link_level_verify(config: ScenarioConfig, channels: ChannelSet,
                      drop_result: DropResult, num_symbols: int,
                      seed: int = 0,
                      noiseless: bool = False) -> np.ndarray:
    """Empirical per-user sum-MSE of the full THP chain: random QAM data d
    through modulo precoding, forward filters, channel, AWGN, receive
    filters and the receiver-side modulo; E|z - d|^2 per stream, summed
    over each user's subcarriers (valid where modulo folding of noise is
    negligible), for a feasible proposed-scheme result (`build_plans`).
    Subcarriers run one at a time in buffers for Q users: d is drawn (QAM
    real, then imaginary parts), precoded into b, then each user's noise."""
    if num_symbols < 1:
        raise ValueError(f"num_symbols must be at least 1, got {num_symbols}")
    forward, receiver, feedback = build_plans(config, channels, drop_result)
    rng = np.random.default_rng(seed)
    ell, m = config.streams_per_user, config.constellation_size
    q, n_r = config.group_count, config.rx_antennas
    stages = [np.empty((q * ell, num_symbols), complex) for _ in range(3)]
    x_buf = np.empty((q, n_r, num_symbols), dtype=complex)
    noise_buf = np.empty((q, 2, n_r, num_symbols))
    sq_err = np.zeros(config.num_users)
    for n, placed in enumerate(drop_result.order):
        users = placed[placed >= 0]
        if not (c := users.size):
            continue
        d, b, shift = (stage[:c * ell] for stage in stages)  # b, then z
        qam_symbols(rng, m, d.shape, out=d)
        thp_recursion(d, feedback[n], ell, m, b, shift.view(float))
        hf = channels.matrices[n, users] @ np.hstack(forward[n, :c])
        x = np.matmul(hf, b, out=x_buf[:c])
        if not noiseless:
            noise = rng.standard_normal(out=noise_buf[:c])
            noise *= math.sqrt(config.noise_variance / 2.0)
            x.real += noise[:, 0]
            x.imag += noise[:, 1]
        z = np.matmul(receiver[n, :c], x, out=b.reshape(c, ell, -1))
        fold(z, m, out=shift.view(float).reshape(c, ell, -1))
        err = np.subtract(z, d.reshape(z.shape), out=z).view(float)
        sq_err[users] += np.einsum("kij,kij->k", err, err) / num_symbols
    return sq_err
