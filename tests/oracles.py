"""Exhaustive and iterative oracles the tests compare the solvers and
closed forms against."""

import itertools
import math

import numpy as np

from thpalloc.assignment import Assignment, InfeasibleAssignmentError


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
