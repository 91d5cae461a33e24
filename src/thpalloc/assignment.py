"""Exact subcarrier assignment as a rectangular linear assignment.

The per-group linear integer program (quota equality per user,
exclusivity per subcarrier) is a transportation problem. Repeating
user k's cost column quota[k] times turns it into a rectangular
assignment of one subcarrier to every slot, solved exactly (+inf on
unusable pairs) by scipy's compiled dense shortest-augmenting-path core
(Jonker-Volgenant, as implemented by Crouse), without the ~45 MB of
RSS that importing scipy.optimize adds (csgraph's matcher adds ~30 MB).

The core starts from zero duals, so from _REDUCE_FROM slots up each user's
least finite cost comes off its column, lowering every allocation's total
by one sum; so does each subcarrier's off its row when the slots fill all
subcarriers (with idle ones, a row shift would change which stay idle).
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader

import numpy as np

_LSAP = "scipy.optimize._lsap"
_REDUCE_FROM = 24  # slots; on fewer the shifts cost more than they save


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


@functools.cache
def _linear_sum_assignment():
    """scipy's LSAP solver, from the bare `_lsap` extension if one exists."""
    if _LSAP not in sys.modules:
        root = find_spec("scipy").submodule_search_locations[0]
        paths = [p for p in (os.path.join(root, "optimize", "_lsap" + s)
                             for s in EXTENSION_SUFFIXES) if os.path.isfile(p)]
        if not paths:
            from scipy.optimize import linear_sum_assignment
            return linear_sum_assignment
        loader = ExtensionFileLoader(_LSAP, paths[0])
        sys.modules[_LSAP] = module_from_spec(spec_from_loader(_LSAP, loader))
        loader.exec_module(sys.modules[_LSAP])
    return sys.modules[_LSAP].linear_sum_assignment


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
    cols = np.repeat(np.arange(n_users), quotas)  # slot -> user
    blocking = np.flatnonzero(np.count_nonzero(usable, 0) < quotas).tolist()
    if cols.size > n_sub and not blocking:
        blocking = list(range(n_users))
    if not blocking:
        solve = _linear_sum_assignment()
        reduced = np.where(usable, costs, np.inf)
        if cols.size >= _REDUCE_FROM:
            for axis in (0, 1) if cols.size == n_sub else (0,):
                low = reduced.min(axis=axis, keepdims=True)
                reduced -= np.where(low < np.inf, low, 0.0)  # no inf - inf
        try:
            _, rows = solve(reduced.T[cols])  # C-ordered slot rows
        except ValueError:
            # counting passed, so some user set has too few usable
            # subcarriers (Hall); on 0/1 costs the slots left on unusable
            # pairs are the unmatched slots of a maximum matching
            _, rows = solve(1.0 - usable[:, cols].T)
            blocking = sorted({int(k) for k in cols[~usable[rows, cols]]})
    if blocking:
        raise InfeasibleAssignmentError(
            f"quotas cannot be met for users {blocking}", blocking)

    a = np.zeros((n_sub, n_users), dtype=np.uint8)
    a[rows, cols] = 1
    total = float(np.sum(np.where(a.astype(bool), costs, 0.0)))
    return Assignment(a=a, total_cost=total)
