"""THP structures on a single subcarrier.

Later-placed users transmit in the null space of the earlier ones (the
bases come from `loading._null_spaces`, shared by pricing and plans);
the block-triangular feedback matrix plus the modulo recursion remove
the interference caused by earlier-placed users at the transmitter.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-12


class RankDeficientError(Exception):
    """A matrix that must have full rank does not."""


def feedback_matrix(t_blocks, streams: int) -> np.ndarray:
    """THP feedback matrix B from the lower-triangular block family T.

    t_blocks[k][i] (k >= i; nested lists or a (q, q, N_R, L) array whose
    blocks above the diagonal are not read) is the coupling of transmission i into
    receiver k. Off-diagonal blocks of the unit-diagonal factor are
    pinv(T_kk) @ T_ki; the pseudo-inverse covers diagonal blocks that
    are tall (N_R > L), whose Gram matrix is singular. Returns B = C - I
    with C the unit-diagonal lower-triangular factor. One SVD of conj(T_kk)
    gives its rank and pinv(T_kk), formed as `numpy.linalg.pinv` does.
    """
    q = len(t_blocks)
    c = np.eye(q * streams, dtype=complex)
    for k in range(q):
        u, s, vt = np.linalg.svd(t_blocks[k][k].conj(), full_matrices=False)
        if s.size < streams or s[-1] <= RANK_TOL * s[0]:
            raise RankDeficientError(
                f"diagonal block for position {k} is rank deficient")
        pinv = vt.T @ ((1 / s)[:, None] * u.T)
        for i in range(k):
            c[k * streams:(k + 1) * streams, i * streams:(i + 1) * streams] = \
                pinv @ t_blocks[k][i]
    return c - np.eye(q * streams)


def fold(x: np.ndarray, constellation_size: int) -> np.ndarray:
    """Fold the complex array x (its last axis contiguous) into the square
    (-sqrt(M), sqrt(M)] per axis, in place: x += 2r*floor((r - x)/(2r)) on
    each float component, r = sqrt(M). Returns the shift that was added."""
    root_m = np.sqrt(constellation_size)
    parts = x.view(float)
    shift = root_m - parts  # the one temporary; the rest runs in place
    shift /= 2 * root_m
    np.floor(shift, out=shift)
    shift *= 2 * root_m
    parts += shift
    return shift.view(complex)


def modulo(x: np.ndarray | complex, constellation_size: int):
    """Fold complex values into the square (-sqrt(M), sqrt(M)] per axis:
    (y, shift) with y = x + shift and shift = 2*sqrt(M)*xi for a unique
    Gaussian integer xi; x is not modified."""
    y = np.array(x, dtype=complex, order="C")
    shift = fold(y.reshape(-1), constellation_size).reshape(y.shape)
    return y[()], shift[()]


def thp_precode(d: np.ndarray, b_matrix: np.ndarray, streams: int,
                constellation_size: int):
    """Run the modulo-feedback recursion over the stacked data vector.

    d has shape (Q*L,) or (Q*L, S) for S symbol instants. Returns
    (b, v) with v = d + shift and C b = v exactly, C = B + I.
    """
    d = np.asarray(d, dtype=complex)
    d2 = d[:, None] if d.ndim == 1 else d
    b = d2.copy()
    v = np.empty_like(b)
    for i in range(b.shape[0] // streams):
        rows = slice(i * streams, (i + 1) * streams)
        for j in range(i):
            cols = slice(j * streams, (j + 1) * streams)
            b[rows] -= b_matrix[rows, cols] @ b[cols]
        np.add(d2[rows], fold(b[rows], constellation_size), out=v[rows])
    return b.reshape(d.shape), v.reshape(d.shape)
