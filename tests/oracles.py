"""Exhaustive, iterative and scalar oracles the tests compare the
solvers, closed forms and batched pricing against.

The scalar pricers price one (subcarrier, candidate) pair or one
subcarrier's stack at a time, with one SVD or QR per matrix, the way
the pipeline did before its pricing was batched per stack size.

The scalar plan builder projects, factors and loads one (subcarrier,
user) pair at a time and forms B with `numpy.linalg.pinv`, the way
`sim.build_plans` did before it was batched per position; its null
space and projected channel also back `projected_cost`.

The LAPACK references (`svd_singular_gains`, `svd_zf_gains`,
`null_space_costs`) factor every matrix, rank-one ones included, the
way `loading` and `baselines` did before they took the closed forms of
one row; `oracles.thp_bills` is the QR reference of `thp_bills`.

The masked tails (`masked_pricing_tail`, `masked_joint_bills`) price
only the full-rank pairs, gathered by a boolean mask, the way
`loading.pricing_tail` and `baselines._joint_bills` did before they
priced every pair and set +inf with np.where.

The per-user `channel_quality` averages one user's channel energy at a
time, the way `partition.channel_quality` did before it returned every
user's value in one array pass. `user_positions` draws one rejection
sample at a time, the way `channel.generate_drop` did before it drew
one per unplaced user at a time.

The link-level references run the THP chain one user position at a
time, with the complex-arithmetic modulo and `rng.choice` QAM draws,
the way `sim.link_level_verify` did before it stacked each subcarrier's
users into one array per stage; the stacked reference runs each stage
on fresh arrays, the way it did before it ran in buffers made once per
call.
"""

import itertools
import math

import numpy as np

from thpalloc.assignment import Assignment, InfeasibleAssignmentError
from thpalloc.baselines import Architecture, restrict_rows
from thpalloc.loading import (INFEASIBLE_COST, RANK_TOL, _null_spaces,
                              loading_cost, singular_gains)
from thpalloc import sim
from thpalloc.sim import SubcarrierPlan


def brute_force_assignment(costs: np.ndarray, quotas) -> Assignment:
    """Exhaustive oracle for small instances (N <= 10, sum quota <= 10)."""
    costs = np.asarray(costs, dtype=float)
    n_sub, n_users = costs.shape
    if len(quotas) != n_users:
        raise ValueError("one quota per user required")
    quotas = [int(q) for q in quotas]
    if n_sub > 10 or sum(quotas) > 10:
        raise ValueError("instance too large for brute force")

    best_cost = math.inf
    best_sets: list[tuple[int, ...]] | None = None
    usable = [tuple(n for n in range(n_sub) if math.isfinite(costs[n, k]))
              for k in range(n_users)]

    def recurse(k: int, used: int, acc: float, chosen: list[tuple[int, ...]]):
        nonlocal best_cost, best_sets
        if k == n_users:
            if acc < best_cost:
                best_cost = acc
                best_sets = list(chosen)
            return
        for combo in itertools.combinations(usable[k], quotas[k]):
            mask = 0
            for n in combo:
                mask |= 1 << n
            if mask & used:
                continue
            add = sum(costs[n, k] for n in combo)
            chosen.append(combo)
            recurse(k + 1, used | mask, acc + add, chosen)
            chosen.pop()

    recurse(0, 0, 0.0, [])
    if best_sets is None:
        raise InfeasibleAssignmentError("no feasible assignment exists",
                                        list(range(n_users)))
    a = np.zeros((n_sub, n_users), dtype=np.uint8)
    for k, combo in enumerate(best_sets):
        for n in combo:
            a[n, k] = 1
    total = float(np.sum(np.where(a.astype(bool), costs, 0.0)))
    return Assignment(a=a, total_cost=total)


def channel_quality(channels, k: int) -> float:
    """Average channel energy pi(k) = (1/N) sum_n tr(H^H H) of user k."""
    h = channels.matrices[:, k]  # (N, N_R, N_T)
    return float(np.mean(np.sum(np.abs(h) ** 2, axis=(1, 2))))


def user_positions(rng: np.random.Generator, config) -> np.ndarray:
    """Uniform user positions in the ring [min_user_distance_m,
    cell_radius_m], one rejection sample (x, y) at a time."""
    positions = np.empty((config.num_users, 2))
    for k in range(config.num_users):
        while True:
            xy = rng.uniform(-config.cell_radius_m, config.cell_radius_m, 2)
            d = np.hypot(*xy)
            if config.min_user_distance_m <= d <= config.cell_radius_m:
                positions[k] = xy
                break
    return positions


def svd_singular_gains(hp: np.ndarray):
    """Singular values s of hp from one batched SVD, and 1/s."""
    s = np.linalg.svd(hp, compute_uv=False)
    with np.errstate(divide="ignore"):
        return s, (s ** 2) ** -0.5


def svd_zf_gains(h: np.ndarray):
    """Singular values s of h and the row norms of U S^-1 from one thin
    SVD: the column norms of pinv(h)."""
    u, s, _ = np.linalg.svd(h, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return s, np.linalg.norm(u / s[..., None, :], axis=-1)


def masked_pricing_tail(parts, norms, weights, streams,
                        gains=singular_gains):
    """`loading.pricing_tail`, pricing only the pairs whose first L
    singular values clear RANK_TOL * max(s[0], ||h||), gathered by a
    mask; +inf elsewhere."""
    out = np.full(norms.shape, INFEASIBLE_COST)
    for sel, hp, factors in parts:
        s, inverse_gains = gains(hp, factors)
        ref = np.maximum(s.max(axis=-1, initial=0.0), norms[sel])
        mask = np.zeros(out.shape, dtype=bool)
        mask[sel] = np.count_nonzero(s > RANK_TOL * ref[..., None],
                                     axis=-1) >= streams
        out[mask] = loading_cost(inverse_gains[mask[sel], :streams],
                                 np.broadcast_to(weights, out.shape)[mask])
    return out


def masked_joint_bills(factor, stacks, weights, streams):
    """`baselines._joint_bills`, billing only the full-row-rank stacks,
    their inverse row gains gathered by factor(h)'s mask; +inf
    elsewhere."""
    h = restrict_rows(stacks, streams)
    h = h.reshape(*h.shape[:-3], -1, h.shape[-1])
    out = np.full(stacks.shape[:-2], INFEASIBLE_COST)
    if 0 < h.shape[-2] <= h.shape[-1]:
        full, inverse_gains = factor(h)
        out[full] = loading_cost(inverse_gains[full].reshape(
            -1, out.shape[-1], streams), weights[full])
    return out


def weight(gamma_k, n_k, noise_variance):
    """The price weight sigma^2 * n/gamma, from the paper's parameters."""
    return noise_variance * np.divide(n_k, gamma_k)


def null_space_costs(placed, candidates, budgets, quotas,
                     noise_variance: float, streams: int,
                     gains=svd_singular_gains) -> np.ndarray:
    """`loading.projected_costs` with every stack, empty or of one row
    too, projected through the SVD bases of `_null_spaces`."""
    out = np.full(candidates.shape[:-2], INFEASIBLE_COST)
    for sel, v0 in _null_spaces(placed):
        h = candidates[sel]
        s, inverse_gains = gains(h @ v0[:, None])
        ref = np.maximum(s.max(axis=-1, initial=0.0),
                         np.linalg.norm(h, axis=(-2, -1)))
        mask = np.zeros(out.shape, dtype=bool)
        mask[sel] = np.count_nonzero(s > RANK_TOL * ref[..., None],
                                     axis=-1) >= streams
        out[mask] = loading_cost(
            inverse_gains[mask[sel], :streams],
            weight(np.broadcast_to(budgets, out.shape)[mask],
                   np.broadcast_to(quotas, out.shape)[mask], noise_variance))
    return out


def bisect_nu(lambda_hp: np.ndarray, gamma_k: float, n_k: int,
              noise_variance: float, tol: float = 1e-14) -> float:
    """Root-find nu on the active MSE constraint; cross-checks the
    closed form of loading.power_loading."""
    lam = np.asarray(lambda_hp, dtype=float)
    target = gamma_k / n_k

    def mse_sum(nu):
        lam_u = np.sqrt(nu * noise_variance / lam)
        return float(np.sum(noise_variance / (lam_u * lam)))

    lo, hi = 1e-30, 1.0
    while mse_sum(hi) > target:
        hi *= 4.0
    while mse_sum(lo) < target:
        lo /= 4.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if mse_sum(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 < tol:
            break
    return math.sqrt(lo * hi)


def null_space(stacked: np.ndarray, tx_antennas: int) -> np.ndarray:
    """Orthonormal basis V0 (N_T, m) of the null space of the stacked
    rows (ranks cut at RANK_TOL * s[0]), each column's largest-magnitude
    entry real positive; the identity for an empty stack."""
    if stacked.size == 0:
        return np.eye(tx_antennas, dtype=complex)
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s[0] > 0 else 0
    v0 = vh[rank:].conj().T
    pivots = v0[np.argmax(np.abs(v0), axis=0), np.arange(v0.shape[1])]
    mags = np.abs(pivots)
    return v0 * np.divide(pivots.conj(), mags, where=mags > 0,
                          out=np.ones_like(pivots))


def projected(h: np.ndarray, v0: np.ndarray, streams: int):
    """(H', s, V1, carries L streams) of H' = h V0 = Omega diag(s) V1^H;
    s is cut at RANK_TOL * max(s[0], ||h||), so a channel the projection
    annihilates does not read as rounding noise of full rank."""
    hp = h @ v0
    _, s, vh = np.linalg.svd(hp, full_matrices=False)
    ref = max(s.max(initial=0.0), float(np.linalg.norm(h)))
    return hp, s, vh.conj().T, np.count_nonzero(s > RANK_TOL * ref) >= streams


def projected_cost(h: np.ndarray, placed: np.ndarray, gamma_k: float,
                   n_k: int, noise_variance: float, streams: int) -> float:
    """Least power for user channel h transmitted in the null space of
    the stacked rows `placed`; infinite when the projected channel cannot
    carry L streams."""
    _, s, _, full = projected(h, null_space(placed, h.shape[-1]), streams)
    if not full:
        return INFEASIBLE_COST
    return loading_cost((s[:streams] ** 2) ** -0.5,
                        weight(gamma_k, n_k, noise_variance))


def _billed(inverse_gains, budgets, quotas, noise_variance):
    """Closed-form power of each user from its row of inverse gains."""
    return [loading_cost(g, weight(gamma_k, n_k, noise_variance))
            for g, gamma_k, n_k in zip(inverse_gains, budgets, quotas)]


def zf_bills(channels: np.ndarray, budgets, quotas, noise_variance: float,
             streams: int) -> list[float]:
    """Per-user power of the channel-inversion precoder on one stack
    (c, N_R, N_T): each user is billed through its own columns of the
    pseudo-inverse of the stacked L-row channels."""
    h = restrict_rows(channels, streams).reshape(-1, channels.shape[-1])
    s = np.linalg.svd(h, compute_uv=False)
    if s.size < h.shape[0] or s[-1] <= RANK_TOL * s[0]:
        return [INFEASIBLE_COST] * len(channels)
    col_norms = np.linalg.norm(np.linalg.pinv(h), axis=0)
    return _billed(col_norms.reshape(len(channels), streams), budgets, quotas,
                   noise_variance)


def thp_bills(channels: np.ndarray, budgets, quotas, noise_variance: float,
              streams: int) -> list[float]:
    """Per-user power of the QR-based THP precoder on one stack: user i
    is billed on its diagonal slice of |r_ll| of H^H = Q R."""
    h = restrict_rows(channels, streams).reshape(-1, channels.shape[-1])
    diag = np.abs(np.linalg.qr(h.conj().T, mode="r").diagonal())
    if diag.size < h.shape[0] or diag.min() <= RANK_TOL * diag.max():
        return [INFEASIBLE_COST] * len(channels)
    return _billed((1.0 / diag).reshape(len(channels), streams), budgets,
                   quotas, noise_variance)


def linear_bills(channels: np.ndarray, budgets, quotas, noise_variance: float,
                 streams: int) -> list[float]:
    """Per-user power of mutual block-diagonalization on one stack: each
    user is projected off every co-channel user's full channel."""
    tx = channels.shape[-1]
    users = range(len(channels))
    return [projected_cost(
        channels[i], channels[[j for j in users if j != i]].reshape(-1, tx),
        budgets[i], quotas[i], noise_variance, streams) for i in users]


def bills(config, h_all, users, architecture) -> list[float]:
    """A baseline's per-user bills of `users` stacked in placement order
    on the subcarrier with channels h_all."""
    fn = (zf_bills if architecture is Architecture.ZF_TX else
          thp_bills if architecture is Architecture.THP_TX else
          linear_bills)
    return fn(h_all[users], [config.mse_budget[k] for k in users],
              [config.quota[k] for k in users], config.noise_variance,
              config.streams_per_user)


def stack_power(config, h_all, users, architecture) -> float:
    """Total of `bills`; zero on an empty subcarrier."""
    return sum(bills(config, h_all, users, architecture)) if users else 0.0


def cost_row(config, h_all, placed, users, architecture) -> list[float]:
    """Price each candidate in `users` on one subcarrier given the users
    `placed` there by earlier groups, one candidate at a time."""
    if architecture is Architecture.THP_TX_LIN_RX:
        below = h_all[placed].reshape(-1, config.tx_antennas)
        return [projected_cost(h_all[k], below, config.mse_budget[k],
                               config.quota[k], config.noise_variance,
                               config.streams_per_user) for k in users]
    if architecture is Architecture.LIN_TX_LIN_RX:
        base = stack_power(config, h_all, placed, architecture)
        return [stack_power(config, h_all, placed + [k], architecture) - base
                for k in users]
    fixed = [] if architecture is Architecture.THP_TX else placed
    return [bills(config, h_all, fixed + [k], architecture)[-1]
            for k in users]


def baseline_final_power(config, channels, placed, architecture) -> float:
    """A baseline's total transmit power on its final per-subcarrier
    stacks, linear scale."""
    return config.symbol_variance * sum(
        stack_power(config, channels.matrices[n], placed[n], architecture)
        for n in range(config.num_subcarriers))


def build_plans(config, channels, drop_result) -> tuple:
    """Plans of a feasible proposed-scheme result, one (subcarrier, user)
    pair at a time: V0 of the users placed before it, H' = H V0, the
    closed-form loading lambda_U = sqrt(nu) sqrt(sigma^2/lambda_H'),
    U = V1 diag(lambda_U)^(1/2) S^H, F = V0 U, G = (H'U)^+, then
    B = C - I with C_ki = pinv(T_kk) T_ki, T_ki = H_k F_i."""
    placed = [[] for _ in range(config.num_subcarriers)]
    for users, assignment in zip(drop_result.partition.groups,
                                 drop_result.assignments):
        for n, j in np.argwhere(assignment.a).tolist():
            placed[n].append(users[j])
    ell, tx, s2 = (config.streams_per_user, config.tx_antennas,
                   config.noise_variance)
    rotation = np.fft.fft(np.eye(ell), norm="ortho")
    plans = []
    for n, users in enumerate(placed):
        if not users:
            plans.append(None)
            continue
        h_all = channels.matrices[n]
        forward, receiver = [], []
        for pos, k in enumerate(users):
            v0 = null_space(h_all[users[:pos]].reshape(-1, tx), tx)
            hp, s, v1, _ = projected(h_all[k], v0, ell)
            lam = s[:ell] ** 2
            sqrt_nu = (math.sqrt(s2) * np.sum(lam ** -0.5)
                       / (config.mse_budget[k] / config.quota[k]))
            u = (v1[:, :ell] * np.sqrt(sqrt_nu * np.sqrt(s2 / lam))
                 ) @ rotation.conj().T
            hu = hp @ u
            forward.append(v0 @ u)
            receiver.append(np.linalg.solve(hu.conj().T @ hu, hu.conj().T))
        q = len(users)
        c = np.eye(q * ell, dtype=complex)
        for k in range(q):
            pinv = np.linalg.pinv(h_all[users[k]] @ forward[k])
            for i in range(k):
                c[k * ell:(k + 1) * ell, i * ell:(i + 1) * ell] = \
                    pinv @ (h_all[users[k]] @ forward[i])
        plans.append(SubcarrierPlan(
            users=tuple(users), forward=np.array(forward),
            receiver=np.array(receiver), b_matrix=c - np.eye(q * ell)))
    return tuple(plans)


def modulo(x, constellation_size: int):
    """Fold complex values into (-sqrt(M), sqrt(M)] per axis with complex
    arithmetic: (x + shift, shift), shift = 2*sqrt(M)*xi."""
    root_m = np.sqrt(constellation_size)
    x = np.asarray(x, dtype=complex)
    xi = (np.floor((root_m - x.real) / (2 * root_m))
          + 1j * np.floor((root_m - x.imag) / (2 * root_m)))
    shift = 2 * root_m * xi
    return x + shift, shift


def thp_precode(d: np.ndarray, b_matrix: np.ndarray, streams: int,
                constellation_size: int):
    """The modulo-feedback recursion on copied row blocks: (b, v) with
    v = d + shift and (B + I) b = v."""
    d = np.asarray(d, dtype=complex)
    squeeze = d.ndim == 1
    if squeeze:
        d = d[:, None]
    q = d.shape[0] // streams
    b = np.empty_like(d)
    v = np.empty_like(d)
    for i in range(q):
        rows = slice(i * streams, (i + 1) * streams)
        acc = d[rows].copy()
        for j in range(i):
            cols = slice(j * streams, (j + 1) * streams)
            acc -= b_matrix[rows, cols] @ b[cols]
        b[rows], shift = modulo(acc, constellation_size)
        v[rows] = d[rows] + shift
    if squeeze:
        return b[:, 0], v[:, 0]
    return b, v


def qam_symbols(rng: np.random.Generator, constellation_size: int,
                shape) -> np.ndarray:
    """Uniform square M-QAM symbols drawn with `rng.choice`."""
    levels = np.arange(-(math.isqrt(constellation_size) - 1),
                       math.isqrt(constellation_size), 2)
    return (rng.choice(levels, size=shape)
            + 1j * rng.choice(levels, size=shape))


def link_level_verify(config, channels, drop_result, num_symbols: int,
                      seed: int = 0, noiseless: bool = False) -> np.ndarray:
    """Empirical per-user sum-MSE of the THP chain, one user position at
    a time: the same draws, in the same order, as the stacked chain."""
    plans = build_plans(config, channels, drop_result)
    rng = np.random.default_rng(seed)
    ell = config.streams_per_user
    m = config.constellation_size
    sq_err = np.zeros(config.num_users)
    for n, plan in enumerate(plans):
        if plan is None:
            continue
        q = len(plan.users)
        d = qam_symbols(rng, m, (q * ell, num_symbols))
        b, _ = thp_precode(d, plan.b_matrix, ell, m)
        tx = np.zeros((config.tx_antennas, num_symbols), dtype=complex)
        for pos in range(q):
            tx += plan.forward[pos] @ b[pos * ell:(pos + 1) * ell]
        for pos, k in enumerate(plan.users):
            h = channels.matrices[n][k]
            x = h @ tx
            if not noiseless:
                noise = (rng.standard_normal((h.shape[0], num_symbols))
                         + 1j * rng.standard_normal((h.shape[0], num_symbols)))
                x = x + math.sqrt(config.noise_variance / 2.0) * noise
            y = plan.receiver[pos] @ x
            z, _ = modulo(y, m)
            err = z - d[pos * ell:(pos + 1) * ell]
            sq_err[k] += float(np.mean(np.abs(err) ** 2, axis=1).sum())
    return sq_err


def stacked_link_level_verify(config, channels, drop_result,
                              num_symbols: int, seed: int = 0,
                              noiseless: bool = False) -> np.ndarray:
    """The stacked chain on `sim.build_plans`' plans, each subcarrier's
    users in fresh arrays per stage: the same draws and the same
    arithmetic as `sim.link_level_verify`, so the same bytes."""
    plans = sim.build_plans(config, channels, drop_result)
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
        z, _ = modulo(plan.receiver @ x, m)
        err = (z - d.reshape(z.shape)).view(float)
        sq_err[users] += np.einsum("kij,kij->k", err, err) / num_symbols
    return sq_err
