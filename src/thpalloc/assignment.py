"""Exact subcarrier assignment as a rectangular linear assignment.

The per-group linear integer program (quota equality per user,
exclusivity per subcarrier) is a transportation problem: repeating user
k's cost column quota[k] times makes it a rectangular assignment of one
subcarrier to every slot, solved exactly (+inf on unusable pairs) by
scipy's compiled dense shortest-augmenting-path core (Jonker-Volgenant,
as Crouse implements it), without the ~45 MB of RSS scipy.optimize adds.

The core starts from zero duals, so from _REDUCE_FROM slots up each
user's quota-th cheapest finite cost comes off its column (each takes
exactly its quota: every total falls by one sum), and, when the slots
fill all subcarriers, each one's least cost off its row (with idle ones
a row shift would change which stay idle).
"""

from __future__ import annotations

import functools
import os
import sys
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


@functools.lru_cache(maxsize=64)
def _slot_tables(quotas: tuple, n_sub: int):
    """Read-only quotas, slot -> user, each user's quota-th entry in the
    flat column-sorted costs, the dual-shift axes, and slots <= n_sub."""
    quotas = np.asarray(quotas, dtype=np.intp)
    cols = np.arange(quotas.size).repeat(quotas)
    kth = np.maximum(quotas - 1, 0) * quotas.size + np.arange(quotas.size)
    quotas.flags.writeable = cols.flags.writeable = kth.flags.writeable = False
    slots = cols.size
    axes = () if slots < _REDUCE_FROM else (0, 1) if slots == n_sub else (0,)
    return quotas, cols, kth, axes, slots <= n_sub


def solve_assignment(costs: np.ndarray, quotas) -> np.ndarray:
    """Least-cost (N, U) uint8 allocation a[n][k] meeting every quota
    exactly; costs is (N subcarriers x U users), +inf on unusable pairs."""
    costs = np.asarray(costs, dtype=float)
    n_sub, n_users = costs.shape
    if len(quotas) != n_users:
        raise ValueError("one quota per user required")
    quotas, cols, kth, axes, fits = _slot_tables(tuple(quotas), n_sub)

    usable = np.isfinite(costs)
    clean = fits and usable.all()  # no count can fall short, nothing masked
    short = [] if clean else (usable.sum(0) < quotas).nonzero()[0].tolist()
    blocking = short or ([] if fits else list(range(n_users)))
    if not blocking:
        solve = _linear_sum_assignment()
        reduced = costs.copy() if clean else np.where(usable, costs, np.inf)
        for axis in axes:
            low = (reduced.min(axis=1, keepdims=True) if axis else
                   np.sort(reduced, 0).take(kth))
            reduced -= low if clean else np.where(low < np.inf, low, 0.0)
        try:
            _, rows = solve(reduced.T[cols])  # C-ordered slot rows
        except ValueError:
            # Hall: too few usable subcarriers for some user set; a 0/1 solve
            # leaves a maximum matching's unmatched slots on unusable pairs
            _, rows = solve(1.0 - usable[:, cols].T)
            blocking = sorted({int(k) for k in cols[~usable[rows, cols]]})
    if blocking:
        raise InfeasibleAssignmentError(
            f"quotas cannot be met for users {blocking}", blocking)

    a = np.zeros((n_sub, n_users), dtype=np.uint8)
    a[rows, cols] = 1
    return a
