"""Exact subcarrier assignment as a rectangular linear assignment.

The per-group linear integer program (quota equality per user,
exclusivity per subcarrier) is a transportation problem. Repeating
user k's cost column quota[k] times turns it into a rectangular
assignment of one subcarrier to every slot, solved exactly by scipy's
Jonker-Volgenant matcher (LAPJVsp) on the usable (finite-cost) pairs.
The sparse matcher is used instead of scipy.optimize's dense one
because importing scipy.optimize adds ~20 MB and ~0.2 s to a process;
scipy.sparse.csgraph adds ~4 MB and ~35 ms, so it is imported on first
use rather than with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LEAST = np.nextafter(0.0, 1.0)


class InfeasibleAssignmentError(Exception):
    """Quotas cannot be met; `blocking_users` lists the offenders."""

    def __init__(self, message: str, blocking_users: list[int]):
        super().__init__(message)
        self.blocking_users = blocking_users


@dataclass(frozen=True)
class Assignment:
    """Binary allocation a[n][k] with its exact total cost."""

    a: np.ndarray       # (N, U) uint8
    total_cost: float


def solve_assignment(costs: np.ndarray, quotas) -> Assignment:
    """Minimum-total-cost assignment meeting every quota exactly.

    costs is (N subcarriers x U users); +inf marks unusable pairs.
    """
    costs = np.asarray(costs, dtype=float)
    n_sub, n_users = costs.shape
    if len(quotas) != n_users:
        raise ValueError("one quota per user required")
    quotas = [int(q) for q in quotas]

    usable = np.isfinite(costs)
    blocking = [k for k in range(n_users)
                if np.count_nonzero(usable[:, k]) < quotas[k]]
    if sum(quotas) > n_sub or blocking:
        if not blocking:
            blocking = list(range(n_users))
        raise InfeasibleAssignmentError(
            f"quotas cannot be met for users {blocking}", blocking)

    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import (maximum_bipartite_matching,
                                      min_weight_full_bipartite_matching)

    cols = np.repeat(np.arange(n_users), quotas)  # slot -> user
    # one edge per usable (subcarrier, slot) pair; the least subnormal
    # keeps zero costs as edges and leaves every normal cost unchanged
    graph = csr_matrix(np.where(usable, costs + _LEAST, 0.0)[:, cols])
    try:
        rows, slots = min_weight_full_bipartite_matching(graph)
    except ValueError:
        # counting passed, so some user set has too few usable
        # subcarriers (Hall); name the owners of unmatched slots
        match = maximum_bipartite_matching(graph, perm_type="row")
        unmet = sorted({int(k) for k in cols[match < 0]})
        raise InfeasibleAssignmentError(
            f"quotas cannot be met for users {unmet}", unmet) from None

    a = np.zeros((n_sub, n_users), dtype=np.uint8)
    a[rows, cols[slots]] = 1
    total = float(np.sum(np.where(a.astype(bool), costs, 0.0)))
    return Assignment(a=a, total_cost=total)
