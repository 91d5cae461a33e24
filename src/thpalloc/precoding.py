"""The THP modulo chain on a single subcarrier.

Later-placed users transmit in the null space of the earlier ones;
the block-triangular feedback matrix B (built with the transceivers by
`sim.build_plans`) plus the modulo recursion below remove the
interference caused by earlier-placed users at the transmitter.
"""

from __future__ import annotations

import numpy as np


def fold(x: np.ndarray, constellation_size: int, out=None) -> np.ndarray:
    """Fold the complex array x (its last axis contiguous) into the square
    (-sqrt(M), sqrt(M)] per axis, in place: x += 2r*floor((r - x)/(2r)) on
    each float component, r = sqrt(M). Returns the shift, in `out` if set."""
    root_m = np.sqrt(constellation_size)
    parts = x.view(float)
    shift = np.subtract(root_m, parts, out=out)  # the rest runs in place
    shift *= 0.5 / root_m  # exactly / 2r: 2r is a power of two for each M
    np.floor(shift, out=shift)
    shift *= 2 * root_m
    parts += shift
    return shift.view(complex)


def thp_recursion(b: np.ndarray, b_matrix: np.ndarray, streams: int,
                  constellation_size: int, shift=None) -> np.ndarray:
    """The recursion of `thp_precode` in place on b, a C-ordered copy of d;
    returns the shift, in the float scratch `shift` if set: C b = d + shift."""
    shift = np.empty(b.view(float).shape) if shift is None else shift
    for i in range(b.shape[0] // streams):
        rows = slice(i * streams, (i + 1) * streams)
        for j in range(i):
            cols = slice(j * streams, (j + 1) * streams)
            b[rows] -= b_matrix[rows, cols] @ b[cols]
        fold(b[rows], constellation_size, out=shift[rows])
    return shift.view(complex)


def thp_precode(d: np.ndarray, b_matrix: np.ndarray, streams: int,
                constellation_size: int):
    """Run the modulo-feedback recursion over the stacked data vector.

    d has shape (Q*L,) or (Q*L, S) for S symbol instants. Returns
    (b, v) with v = d + shift and C b = v exactly, C = B + I.
    """
    d = np.asarray(d, dtype=complex)
    b = d.reshape(len(d), -1).copy()
    shift = thp_recursion(b, b_matrix, streams, constellation_size)
    return b.reshape(d.shape), d + shift.reshape(d.shape)
