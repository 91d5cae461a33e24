"""Cost models of the three comparison architectures.

All baselines share the partition and the assignment solver of the
proposed scheme; they differ in the per-(subcarrier, user) precoder,
and therefore in the power needed to meet the same per-stream MSE
budget, and in the cost the solver is given. ThpTx's allocator is
spatially blind: it prices each candidate from its own channel alone,
and only its final stacked precoder sees the co-channel users.

Power is allocated by the same Lagrangian scalar program in every
case: p_l = sqrt(nu' sigma^2) / g_l with the constraint
sum_l sigma^2 / (p_l g_l^2) = gamma/n active, where g_l is the
per-stream gain of the scheme at hand. The resulting cost is

    sigma^2 * (n/gamma) * (sum_l 1/g_l ... per scheme)^2

with 1/g_l equal to ||f_l|| (ZF columns), 1/|r_ll| (QR diagonal) or
lambda^{-1/2} (squared singular values of the projected channel).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from thpalloc.loading import INFEASIBLE_COST, effective_gains, loading_cost
from thpalloc.precoding import RANK_TOL, effective_channel, null_space_basis


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


def _scalar_program_cost(inverse_gains: np.ndarray, gamma_k: float,
                         n_k: int, noise_variance: float) -> float:
    return noise_variance * (n_k / gamma_k) * float(np.sum(inverse_gains)) ** 2


def zf_cost(stacked_channels: list[np.ndarray], candidate_idx: int,
            gamma_k: float, n_k: int, noise_variance: float,
            streams: int) -> float:
    """Channel-inversion beamformer cost for the candidate user.

    The stack holds the (L-row) channels of the users fixed on the
    subcarrier plus the candidate; F is the right pseudo-inverse of the
    stack and the receiver is the identity, so the candidate's cost is
    driven by the norms of its columns of F.
    """
    h = np.vstack(stacked_channels)
    s = np.linalg.svd(h, compute_uv=False)
    if s[-1] <= RANK_TOL * s[0]:
        return INFEASIBLE_COST
    f = np.linalg.pinv(h)
    cols = slice(candidate_idx * streams, (candidate_idx + 1) * streams)
    col_norms = np.linalg.norm(f[:, cols], axis=0)
    return _scalar_program_cost(col_norms, gamma_k, n_k, noise_variance)


def thp_qr_cost(stacked_channels: list[np.ndarray], gamma_k: float,
                n_k: int, noise_variance: float, streams: int) -> float:
    """QR-based THP cost; the candidate occupies the last block.

    With H^H = Q R and F = Q the received stack is R^H b (lower
    triangular); THP with C = R^{-H} (unit-diagonal normalized) cancels
    the earlier users, leaving per-stream gains |r_ll|. Appending later
    users does not change the candidate's diagonal entries, so when the
    users already placed on the subcarrier are stacked ahead of the
    candidate, the cost is what thp_final_power bills for it. Given the
    candidate's block alone, as ThpTx's blind allocator does, it is the
    single-user cost, which the final precoder can exceed.
    """
    h = np.vstack(stacked_channels)
    r = np.linalg.qr(h.conj().T, mode="r")
    diag = np.abs(np.diag(r))[-streams:]
    if diag.size < streams or np.min(diag) <= RANK_TOL * np.max(np.abs(np.diag(r))):
        return INFEASIBLE_COST
    return _scalar_program_cost(1.0 / diag, gamma_k, n_k, noise_variance)


def thp_final_power(user_blocks: list[np.ndarray], budgets: list[float],
                    quotas: list[int], noise_variance: float,
                    streams: int) -> float:
    """Total power of the QR-based THP stack actually transmitted.

    The users are stacked in placement order; user i's per-stream gains
    are its diagonal slice of R. Returns +inf when the stack cannot
    carry all streams.
    """
    h = np.vstack(user_blocks)
    r = np.linalg.qr(h.conj().T, mode="r")
    diag = np.abs(np.diag(r))
    if diag.size < streams * len(user_blocks):
        return INFEASIBLE_COST
    if np.min(diag) <= RANK_TOL * np.max(diag):
        return INFEASIBLE_COST
    total = 0.0
    for i, (gamma_k, n_k) in enumerate(zip(budgets, quotas)):
        d = diag[i * streams:(i + 1) * streams]
        total += _scalar_program_cost(1.0 / d, gamma_k, n_k, noise_variance)
    return total


def zf_final_power(user_blocks: list[np.ndarray], budgets: list[float],
                   quotas: list[int], noise_variance: float,
                   streams: int) -> float:
    """Total power of the channel-inversion precoder actually
    transmitted: one pseudo-inverse of the full final stack, each user
    billed through its own columns."""
    h = np.vstack(user_blocks)
    s = np.linalg.svd(h, compute_uv=False)
    if s.size < streams * len(user_blocks) or s[-1] <= RANK_TOL * s[0]:
        return INFEASIBLE_COST
    f = np.linalg.pinv(h)
    total = 0.0
    for i, (gamma_k, n_k) in enumerate(zip(budgets, quotas)):
        cols = np.linalg.norm(f[:, i * streams:(i + 1) * streams], axis=0)
        total += _scalar_program_cost(cols, gamma_k, n_k, noise_variance)
    return total


def linear_mutual_cost(h_k: np.ndarray, co_channels: list[np.ndarray],
                       gamma_k: float, n_k: int, noise_variance: float,
                       streams: int) -> float:
    """Mutually block-diagonalized linear cost: the user's precoder is
    confined to the null space of every co-channel user's stacked
    channel, so no receiver sees interference without THP feedback."""
    tx = h_k.shape[1]
    stack = (np.vstack(co_channels) if co_channels
             else np.empty((0, tx), dtype=complex))
    basis = null_space_basis(stack, tx)
    lam = effective_gains(effective_channel(h_k, basis), streams)
    if lam is None:
        return INFEASIBLE_COST
    return loading_cost(lam, gamma_k, n_k, noise_variance)


def restrict_rows(h: np.ndarray, streams: int) -> np.ndarray:
    """First L rows of a user channel; ZF/QR baselines invert exactly
    L rows per user (identity receiver). Equal to the full channel for
    the reference scenarios, where L = N_R."""
    return h[:streams]
