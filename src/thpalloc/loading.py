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
own precoder. `projected_cost` is that price for a channel confined to
a null-space basis: the proposed scheme's candidate cost, and each
user's bill in the LinTxLinRx baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from thpalloc.precoding import (EffectiveChannel, NullSpaceBasis,
                                effective_channel)

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


def loading_cost(inverse_gains: np.ndarray, gamma_k: float, n_k: int,
                 noise_variance: float) -> float:
    """Least transmit power meeting the sum-MSE budget with equality,

        sigma^2 * (n/gamma) * (sum_l 1/g_l)^2,

    from the inverse per-stream gains 1/g_l: lambda_H'(l)^(-1/2) for a
    projected channel, the column norms of a zero-forcing precoder, or
    1/|r_ll| of a QR-based THP precoder."""
    return noise_variance * (n_k / gamma_k) * float(np.sum(inverse_gains)) ** 2


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


def projected_cost(h: np.ndarray, basis: NullSpaceBasis, gamma_k: float,
                   n_k: int, noise_variance: float, streams: int) -> float:
    """Least power for user channel h transmitted in the null space
    `basis`; infinite when the projected channel cannot carry L
    streams."""
    lam = effective_gains(effective_channel(h, basis), streams)
    if lam is None:
        return INFEASIBLE_COST
    return loading_cost(lam ** -0.5, gamma_k, n_k, noise_variance)


__all__ = [
    "INFEASIBLE_COST",
    "PowerLoading",
    "equalizing_rotation",
    "power_loading",
    "loading_cost",
    "transmit_matrix",
    "receiver_matrix",
    "effective_gains",
    "projected_cost",
]
