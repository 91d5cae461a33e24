"""Minimum-power transceiver design under a sum-MSE budget.

For the decoupled link y = H' U v + w with a zero-forcing receiver,
the minimum tr(U^H U) subject to sum_l MSE(l) <= gamma/n has the
closed form U = V1 diag(lambda_U)^(1/2) S^H with

    lambda_U(l) = sqrt(nu * sigma^2 / lambda_H'(l)),
    sqrt(nu)    = sqrt(sigma^2) * (n/gamma) * sum_l lambda_H'(l)^(-1/2),

obtained by substituting the water-filling form into the active
constraint. The constant-modulus unitary S (unitary DFT) equalizes the
per-stream MSEs at gamma/(n*L). A user's QoS enters only through the
weight w = sigma^2 * n/gamma (`ScenarioConfig.price_weight`).

Every architecture prices a (subcarrier, user) pair with the same
closed form, `loading_cost`, fed the inverse per-stream gains of its
own precoder. `projected_costs` is that price for batches of channels
confined to null spaces (the proposed scheme's and, with
`baselines.zf_gains`, ZfTx's candidate costs; LinTxLinRx's bills): it
picks their projected channels (or the factors `sim` keeps per drop),
which `pricing_tail` prices in whole-array passes, np.where setting +inf
on a lost rank. A stack serving one channel is priced from one raw-mode
QR read in place (`stacked_costs`): no copy beyond numpy's own. Rank-one
objects skip LAPACK (`_row_norms`): a MISO scenario (N_R = L = 1, Q = 2)
prices without any SVD. The helpers broadcast over leading (pair) axes.
"""

from __future__ import annotations

import math

import numpy as np

INFEASIBLE_COST = math.inf
RANK_TOL = 1e-12
QR_TOL = 1e-2  # R-factored stacks agree with the SVD route to ~1e-13


def equalizing_rotation(streams: int) -> np.ndarray:
    """Unitary DFT matrix; |S_ij| = 1/sqrt(L) equalizes per-stream MSEs."""
    return np.fft.fft(np.eye(streams), norm="ortho")


def power_loading(lambda_hp: np.ndarray, weight) -> np.ndarray:
    """Closed-form water-filling diagonal lambda_U (last axis) from the
    gains lambda_H' (last axis); its sum is tr(U^H U), `loading_cost`.
    Leading axes broadcast against the weight."""
    lam = np.asarray(lambda_hp, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("effective channel gains must be positive")
    inv = lam ** -0.5  # inverse gains
    return np.expand_dims(weight * np.sum(inv, axis=-1), -1) * inv


def loading_cost(inverse_gains: np.ndarray, weight):
    """Least transmit power meeting the sum-MSE budget with equality,

        w * (sum_l 1/g_l)^2,  w = sigma^2 * n/gamma,

    from the inverse per-stream gains 1/g_l (last axis):
    lambda_H'(l)^(-1/2) for a projected channel, the column norms of a
    zero-forcing precoder, or 1/|r_ll| of a QR-based THP precoder.
    Leading axes broadcast against the weight."""
    return weight * np.sum(inverse_gains, axis=-1) ** 2


def transmit_matrix(v1: np.ndarray, lambda_u: np.ndarray,
                    rotation: np.ndarray) -> np.ndarray:
    """U = V1 diag(lambda_U)^(1/2) S^H, over leading axes."""
    return (v1 * np.expand_dims(np.sqrt(lambda_u), -2)) @ rotation.conj().T


def receiver_matrix(hp: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Minimum-norm zero-forcing receiver, G H' U = I, over leading axes."""
    hu = hp @ u
    hu_h = hu.conj().swapaxes(-1, -2)
    try:
        return np.linalg.solve(hu_h @ hu, hu_h)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("H'U Gram matrix is singular") from exc


def _null_spaces(placed: np.ndarray, svd=None):
    """(selection, V0) per null-space rank r of the stacks of placed rows
    (..., R, N_T), from one full SVD (or `svd`, their (U, s, Vh)): V0
    (b, N_T, N_T - r) spans the null space of the b selected stacks, with
    r the count of singular values above RANK_TOL * s[0] (a
    rank-deficient stack widens its basis); V0 = I for an empty stack."""
    _, s, vh = np.linalg.svd(placed) if svd is None else svd
    rank = np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)
    for r in np.unique(rank):
        sel = rank == r
        yield sel, vh[sel][:, r:].conj().swapaxes(-1, -2)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Norm of each row of x (last axis): the singular value of one row."""
    return np.sqrt(np.sum(x.real ** 2 + x.imag ** 2, axis=-1))


def singular_gains(hp: np.ndarray, svd=None):
    """Singular values s (descending) of the projected channels hp, or of
    `svd`, and their streams' inverse gains lambda_H'^(-1/2) = 1/s (+inf
    at 0); a matrix with one row or one column has one, its norm."""
    if svd is not None:
        s = svd[1]
    elif min(hp.shape[-2:]) == 1:
        s = _row_norms(hp if hp.shape[-2] == 1 else hp.swapaxes(-1, -2))
    else:
        s = np.linalg.svd(hp, compute_uv=False)
    with np.errstate(divide="ignore"):
        return s, 1.0 / s


def pricing_tail(parts, norms, weights, streams, gains=singular_gains):
    """Least power (...) of channels h of Frobenius norms `norms`: each
    part (sel, H', factors) gives the projected channels of the channels
    `sel` or their factors, which gains(H', factors) maps to singular
    values s and inverse gains, whose first L feed `loading_cost`; np.where
    sets +inf where fewer than L of s exceed RANK_TOL * max(s[0], ||h||)."""
    out = np.full(norms.shape, INFEASIBLE_COST)
    for sel, hp, factors in parts:
        s, inverse_gains = gains(hp, factors)  # s maybe empty
        ref = np.maximum(s.max(axis=-1, initial=0.0), norms[sel])
        rank = np.count_nonzero(s > RANK_TOL * ref[..., None], axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):  # lost ranks too
            cost = loading_cost(inverse_gains[..., :streams],
                                np.broadcast_to(weights, out.shape)[sel])
        out[sel] = np.where(rank >= streams, cost, INFEASIBLE_COST)
    return out


def stacked_costs(stacked, rows, weights, streams, gains=singular_gains):
    """`projected_costs` (..., 1) of the rows h after the first R of each
    stack [P; h] (..., R + N_R, N_T). For R >= 2 and R + N_R <= N_T,
    H' = R22^T, read in place from the raw-mode QR of [P; h]^T, the
    conjugate of qr([P; h]^H) (Householder QR commutes with conjugation)
    and h V0 up to a right isometry; h V0 (`_null_spaces`) where R's
    leading diagonal is within QR_TOL of rank loss."""
    placed, candidates = stacked[..., :rows, :], stacked[..., None, rows:, :]
    if rows < 2:
        return projected_costs(placed, candidates, weights, streams, gains)
    norms = np.linalg.norm(candidates, axis=(-2, -1))  # before the QR's copy
    slow, parts = np.ones(stacked.shape[:-2], bool), []
    if stacked.shape[-2] <= stacked.shape[-1]:
        raw = np.linalg.qr(stacked.swapaxes(-1, -2), mode="raw")[0]
        lead = np.abs(raw.diagonal(0, -2, -1)[..., :rows])
        slow = lead.min(axis=-1) <= QR_TOL * lead.max(axis=-1)
        hp = raw[..., rows:, rows:stacked.shape[-2]][~slow][:, None]
        np.copyto(hp, 0, where=~np.tri(hp.shape[-1], dtype=bool))
        parts = [(~slow, hp, None)]  # reflectors zeroed above the diagonal
    for sub, v0 in _null_spaces(placed[slow]) if slow.any() else ():
        sel = slow.copy()
        sel[slow] = sub
        parts.append((sel, candidates[sel] @ v0[:, None], None))
    return pricing_tail(parts, norms, weights, streams, gains)


def projected_costs(placed: np.ndarray, candidates: np.ndarray, weights,
                    streams: int, gains=singular_gains) -> np.ndarray:
    """Least power of each candidate channel h (..., m, N_R, N_T) sent in
    the null space of its stack of placed rows (..., R, N_T), priced
    (`pricing_tail`) from its projected channel: h for R = 0; for one
    row p, h - (h u^H) u with u = p/||p|| (h if p = 0, of rank 0), which
    has h V0's singular values; else h V0, or `stacked_costs` if m = 1."""
    rows = placed.shape[-2]
    if rows > 1 and candidates.shape[-3] == 1:
        return stacked_costs(np.concatenate([placed, candidates[..., 0, :, :]],
                                            -2), rows, weights, streams, gains)
    parts = [(..., candidates, None)]
    if rows == 1:  # u = p/||p||, 0 for a zero row
        length = _row_norms(placed)[..., None, None]
        u = placed[..., None, :, :] / np.where(length > 0, length, np.inf)
        parts = [(..., candidates - np.sum(candidates * u.conj(), axis=-1,
                                           keepdims=True) * u, None)]
    elif rows > 1:
        parts = [(sel, candidates[sel] @ v0[:, None], None)
                 for sel, v0 in _null_spaces(placed)]
    return pricing_tail(parts, np.linalg.norm(candidates, axis=(-2, -1)),
                        weights, streams, gains)
