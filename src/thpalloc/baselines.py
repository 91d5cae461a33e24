"""Cost models of the three comparison architectures.

All baselines share the partition and the assignment solver of the
proposed scheme; they differ in the per-subcarrier precoder, and so in
the power that meets the same per-stream MSE budget. Each precoder
bills stacks of co-channel users (..., c, N_R, N_T) in one whole-array
pass (+inf by np.where for a rank-deficient stack): every user in
placement order, or LinTxLinRx the last. The bills give the final power,
ThpTx's spatially blind prices (each candidate billed alone) and the
placed users' share of LinTxLinRx's prices; ZfTx prices a candidate in
the placed users' null space with `zf_gains`. Each bill is
`loading.loading_cost` of its precoder's inverse per-stream gains.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from thpalloc.loading import (INFEASIBLE_COST, RANK_TOL, _row_norms,
                              loading_cost, singular_gains, stacked_costs)


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


def _joint_bills(factor, stacks, weights, streams):
    """Bills of a precoder serving the first L rows of a stack's users
    jointly; factor(h) maps the stacked rows h (..., c*L, N_T) to a
    full-row-rank mask (else +inf) and every stack's inverse row gains."""
    h = restrict_rows(stacks, streams)
    h = h.reshape(*h.shape[:-3], -1, h.shape[-1])
    if not 0 < h.shape[-2] <= h.shape[-1]:
        return np.full(stacks.shape[:-2], INFEASIBLE_COST)
    full, inv = factor(h)
    with np.errstate(over="ignore", invalid="ignore"):
        cost = loading_cost(inv.reshape(*full.shape, -1, streams), weights)
    return np.where(full[..., None], cost, INFEASIBLE_COST)


def zf_gains(h, svd=None):
    """Singular values s of the thin SVD h = U S V^H (or the full `svd`,
    equal in U and s) of stacked rows (..., R <= N_T, N_T), and the column
    norms of pinv(h) = V S^-1 U^H: the row norms of U S^-1. One row needs
    no SVD: s = ||h||, pinv(h) = h^H / s^2. Given s alone, (None, s, None),
    one batch inverts the full-rank h (s[-1] > RANK_TOL s[0]; else +inf):
    pinv(h) is inv(h) if h is square, else Q inv(R^H) with h^H = Q R, R^H
    the lower triangle of the raw-mode QR of h^T (`loading.stacked_costs`)."""
    if svd is None and h.shape[-2] == 1:
        return singular_gains(h)
    u, s, _ = np.linalg.svd(h, full_matrices=False) if svd is None else svd
    if u is None:
        full = s[..., -1] > RANK_TOL * s[..., 0]
        gains = np.full(s.shape, INFEASIBLE_COST)
        g = h[full] if h.shape[-2] == h.shape[-1] else np.tril(np.linalg.qr(
            h[full].swapaxes(-1, -2), mode="raw")[0][..., :h.shape[-2]])
        gains[full] = np.linalg.norm(np.linalg.inv(g), axis=-2)
        return s, gains
    with np.errstate(divide="ignore", invalid="ignore"):
        return s, np.linalg.norm(u / s[..., None, :], axis=-1)


def zf_bills(stacks, weights, streams):
    """Per-user power of the channel-inversion precoder: F is the right
    pseudo-inverse of the stacked (L-row) channels and the receiver is
    the identity, so each user is billed through its own columns of F,
    ||f_l|| from `zf_gains`."""
    def factor(h):
        s, inverse_gains = zf_gains(h)
        return s[..., -1] > RANK_TOL * s[..., 0], inverse_gains
    return _joint_bills(factor, stacks, weights, streams)


def thp_bills(stacks, weights, streams):
    """Per-user power of the QR-based THP precoder. With H^H = Q R and
    F = Q the received stack is R^H b (lower triangular); THP with
    C = R^{-H} (unit-diagonal normalized) cancels the earlier users,
    leaving user i its diagonal slice of |r_ll| as per-stream gains, which
    later users do not change: a candidate's last bill is its final one.
    |r_ll| is read in place from the raw-mode QR of H^T, the conjugate of
    H^H's; a single column of H^H needs no QR: |r_11| = ||h||."""
    def factor(h):
        diag = _row_norms(h) if h.shape[-2] == 1 else np.abs(np.linalg.qr(
            h.swapaxes(-1, -2), mode="raw")[0].diagonal(0, -2, -1))
        full = diag.min(axis=-1) > RANK_TOL * diag.max(axis=-1)
        with np.errstate(divide="ignore"):
            return full, 1.0 / diag
    return _joint_bills(factor, stacks, weights, streams)


def linear_order(users, first=None):
    """The stacks (..., first, c) `linear_bills` takes from users (..., c)
    in placement order: each of the first `first` after the others."""
    c = users.shape[-1]
    return users[..., [[*range(i), *range(i + 1, c), i]
                       for i in range(c)[:first]]]


def linear_bills(stacks, weights, streams):
    """Power of each stack's last user (stacks (..., c, N_R, N_T) from
    `linear_order`) under mutual block-diagonalization: its precoder lies
    in the null space of every co-channel user, so none sees interference."""
    *lead, c, rx, tx = stacks.shape
    return stacked_costs(stacks.reshape(*lead, c * rx, tx), (c - 1) * rx,
                         weights[..., -1:], streams)[..., 0]


def restrict_rows(h: np.ndarray, streams: int) -> np.ndarray:
    """First L rows of a user channel (or of each in a stack); ZF/QR
    baselines invert exactly L rows per user (identity receiver). Equal
    to the full channel for the reference scenarios, where L = N_R."""
    return h[..., :streams, :]
