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


def thp_recursion(d: np.ndarray, b_matrix: np.ndarray, streams: int,
                  constellation_size: int, b, shift) -> np.ndarray:
    """The modulo-feedback recursion from the QAM data d (Q*L, S), left
    unchanged, into b; returns the shift, kept in the float scratch
    `shift`: C b = d + shift, C = B + I, B the leading Q*L rows and
    columns of `b_matrix`. QAM points fold to themselves (shift +0.0):
    d's first block is copied, its `shift` rows not written."""
    first, *later = (slice(i, i + streams) for i in range(0, len(d), streams))
    b[first] = d[first]
    for i, rows in enumerate(later):
        np.subtract(d[rows], b_matrix[rows, first] @ b[first], out=b[rows])
        for cols in later[:i]:
            b[rows] -= b_matrix[rows, cols] @ b[cols]
        fold(b[rows], constellation_size, out=shift[rows])
    return shift.view(complex)
