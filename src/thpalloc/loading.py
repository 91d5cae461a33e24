"""Minimum-power transceiver design under a sum-MSE budget.

For the decoupled link y = H' U v + w with a zero-forcing receiver,
the minimum tr(U^H U) subject to sum_l MSE(l) <= gamma/n has the
closed form U = V1 diag(lambda_U)^(1/2) S^H with

    lambda_U(l) = sqrt(nu * sigma^2 / lambda_H'(l)),
    sqrt(nu)    = sqrt(sigma^2) * (n/gamma) * sum_l lambda_H'(l)^(-1/2),

obtained by substituting the water-filling form into the active
constraint. The constant-modulus unitary S (unitary DFT) equalizes the
per-stream MSEs at gamma/(n*L).

Every architecture prices a (subcarrier, user) pair with the same
closed form, `loading_cost`, fed the inverse per-stream gains of its
own precoder. `projected_costs` is that price for batches of channels
confined to null spaces: the proposed scheme's candidate costs, and
each user's bill in the LinTxLinRx baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from thpalloc.precoding import RANK_TOL, EffectiveChannel

INFEASIBLE_COST = math.inf


@dataclass(frozen=True)
class PowerLoading:
    """Diagonal power allocation meeting the MSE budget with equality."""

    lambda_u: np.ndarray   # length L, positive
    nu: float
    cost: float            # sum(lambda_u) = tr(U^H U)
    per_stream_mse: float  # epsilon = gamma/(n*L)


def equalizing_rotation(streams: int) -> np.ndarray:
    """Unitary DFT matrix; |S_ij| = 1/sqrt(L) equalizes per-stream MSEs."""
    return np.fft.fft(np.eye(streams), norm="ortho")


def power_loading(lambda_hp: np.ndarray, gamma_k: float, n_k: int,
                  noise_variance: float) -> PowerLoading:
    """Closed-form water-filling diagonal for one (subcarrier, user) pair."""
    lam = np.asarray(lambda_hp, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("effective channel gains must be positive")
    streams = lam.size
    per_sc = gamma_k / n_k
    inv_root = np.sum(lam ** -0.5)
    sqrt_nu = math.sqrt(noise_variance) * inv_root / per_sc
    lambda_u = sqrt_nu * np.sqrt(noise_variance / lam)
    return PowerLoading(lambda_u=lambda_u, nu=sqrt_nu ** 2,
                        cost=float(np.sum(lambda_u)),
                        per_stream_mse=per_sc / streams)


def loading_cost(inverse_gains: np.ndarray, gamma_k, n_k,
                 noise_variance: float):
    """Least transmit power meeting the sum-MSE budget with equality,

        sigma^2 * (n/gamma) * (sum_l 1/g_l)^2,

    from the inverse per-stream gains 1/g_l (last axis):
    lambda_H'(l)^(-1/2) for a projected channel, the column norms of a
    zero-forcing precoder, or 1/|r_ll| of a QR-based THP precoder.
    Leading axes broadcast against gamma_k and n_k."""
    return (noise_variance * np.divide(n_k, gamma_k)
            * np.sum(inverse_gains, axis=-1) ** 2)


def transmit_matrix(v1: np.ndarray, loading: PowerLoading,
                    rotation: np.ndarray) -> np.ndarray:
    """U = V1 diag(lambda_U)^(1/2) S^H."""
    return (v1 * np.sqrt(loading.lambda_u)) @ rotation.conj().T


def receiver_matrix(hp: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Minimum-norm zero-forcing receiver: G H' U = I."""
    hu = hp @ u
    gram = hu.conj().T @ hu
    try:
        g = np.linalg.solve(gram, hu.conj().T)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("H'U Gram matrix is singular") from exc
    return g


def effective_gains(eff: EffectiveChannel, streams: int) -> np.ndarray | None:
    """Top-L squared singular values of H', or None if rank < L."""
    if eff.rank() < streams:
        return None
    return eff.singular_values[:streams] ** 2


def projected_costs(placed: np.ndarray, candidates: np.ndarray, budgets,
                    quotas, noise_variance: float,
                    streams: int) -> np.ndarray:
    """Least power of each candidate channel (..., m, N_R, N_T) sent in
    the null space of its stack of placed rows (..., R, N_T); +inf where
    the projected channel cannot carry L streams. Ranks are cut as in
    `null_space_basis` and `EffectiveChannel.rank`."""
    out = np.full(candidates.shape[:-2], INFEASIBLE_COST)
    _, s, vh = np.linalg.svd(placed)  # V = I for an empty stack
    rank = np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)
    for r in np.unique(rank):
        sel = rank == r
        h = candidates[sel]
        hp = h @ vh[sel][:, None, r:].conj().swapaxes(-1, -2)
        s = np.linalg.svd(hp, compute_uv=False)  # descending, maybe empty
        ref = np.maximum(s.max(axis=-1, initial=0.0),
                         np.linalg.norm(h, axis=(-2, -1)))
        mask = np.zeros(out.shape, dtype=bool)
        mask[sel] = np.count_nonzero(s > RANK_TOL * ref[..., None],
                                     axis=-1) >= streams
        out[mask] = loading_cost(
            (s[mask[sel], :streams] ** 2) ** -0.5,
            np.broadcast_to(budgets, out.shape)[mask],
            np.broadcast_to(quotas, out.shape)[mask], noise_variance)
    return out
