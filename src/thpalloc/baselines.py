"""Cost models of the three comparison architectures.

All baselines share the partition and the assignment solver of the
proposed scheme; they differ in the per-subcarrier precoder, and
therefore in the power needed to meet the same per-stream MSE budget.
Each precoder has one billing function over the stack of co-channel
users on a subcarrier, in placement order, that returns a list of
every user's power (+inf for all when the stack is rank deficient).
The candidate cost the solver sees and the final transmit power are
both read from these bills. ThpTx's allocator is spatially blind: it bills each
candidate alone, and only its final stack sees the co-channel users.

Every bill is the closed form of `loading.loading_cost`,

    sigma^2 * (n/gamma) * (sum_l 1/g_l)^2,

with 1/g_l equal to ||f_l|| (ZF columns), 1/|r_ll| (QR diagonal) or
lambda^{-1/2} (squared singular values of the channel projected off
all co-channel users).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from thpalloc.loading import INFEASIBLE_COST, loading_cost, projected_cost
from thpalloc.precoding import RANK_TOL, null_space_basis


class Architecture(str, Enum):
    THP_TX_LIN_RX = "ThpTxLinRx"   # proposed scheme
    ZF_TX = "ZfTx"
    THP_TX = "ThpTx"
    LIN_TX_LIN_RX = "LinTxLinRx"

    @classmethod
    def parse(cls, token: str) -> "Architecture":
        for arch in cls:
            if token.lower() == arch.value.lower():
                return arch
        raise ValueError(f"unknown architecture '{token}'; "
                         f"valid: {[a.value for a in cls]}")


def _billed(inverse_gains, budgets, quotas, noise_variance):
    """Closed-form power of each user from its row of inverse gains."""
    return [loading_cost(g, gamma_k, n_k, noise_variance)
            for g, gamma_k, n_k in zip(inverse_gains, budgets, quotas)]


def zf_bills(channels: np.ndarray, budgets, quotas, noise_variance: float,
             streams: int) -> list[float]:
    """Per-user power of the channel-inversion precoder: F is the right
    pseudo-inverse of the stacked (L-row) channels and the receiver is
    the identity, so each user is billed through its own columns of F.
    """
    h = restrict_rows(channels, streams).reshape(-1, channels.shape[-1])
    s = np.linalg.svd(h, compute_uv=False)
    if s.size < h.shape[0] or s[-1] <= RANK_TOL * s[0]:
        return [INFEASIBLE_COST] * len(channels)
    col_norms = np.linalg.norm(np.linalg.pinv(h), axis=0)
    return _billed(col_norms.reshape(len(channels), streams), budgets, quotas,
                   noise_variance)


def thp_bills(channels: np.ndarray, budgets, quotas, noise_variance: float,
              streams: int) -> list[float]:
    """Per-user power of the QR-based THP precoder.

    With H^H = Q R and F = Q the received stack is R^H b (lower
    triangular); THP with C = R^{-H} (unit-diagonal normalized) cancels
    the earlier users, leaving user i its diagonal slice of |r_ll| as
    per-stream gains. Appending later users does not change a user's
    slice, so the last bill of the placed users plus a candidate is the
    candidate's final bill.
    """
    h = restrict_rows(channels, streams).reshape(-1, channels.shape[-1])
    diag = np.abs(np.linalg.qr(h.conj().T, mode="r").diagonal())
    if diag.size < h.shape[0] or diag.min() <= RANK_TOL * diag.max():
        return [INFEASIBLE_COST] * len(channels)
    return _billed((1.0 / diag).reshape(len(channels), streams), budgets,
                   quotas, noise_variance)


def linear_bills(channels: np.ndarray, budgets, quotas, noise_variance: float,
                 streams: int) -> list[float]:
    """Per-user power of mutual block-diagonalization: each user's
    precoder is confined to the null space of every co-channel user's
    full channel, so no receiver sees interference without THP
    feedback."""
    tx = channels.shape[-1]
    users = range(len(channels))
    return [projected_cost(
        channels[i],
        null_space_basis(channels[[j for j in users if j != i]]
                         .reshape(-1, tx), tx),
        budgets[i], quotas[i], noise_variance, streams) for i in users]


def restrict_rows(h: np.ndarray, streams: int) -> np.ndarray:
    """First L rows of a user channel (or of each in a stack); ZF/QR
    baselines invert exactly L rows per user (identity receiver). Equal
    to the full channel for the reference scenarios, where L = N_R."""
    return h[..., :streams, :]
