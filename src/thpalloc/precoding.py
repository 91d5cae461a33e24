"""The THP modulo chain on a single subcarrier.

Later-placed users transmit in the null space of the earlier ones;
the block-triangular feedback matrix B (built with the transceivers by
`sim.build_plans`) plus the modulo recursion below remove the
interference caused by earlier-placed users at the transmitter.
"""

from __future__ import annotations

import numpy as np


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
