"""`precoding.thp_recursion` in the (b, v) form the tests check it in."""

import numpy as np

from thpalloc.precoding import thp_recursion


def recursion_precode(d: np.ndarray, b_matrix: np.ndarray, streams: int,
                      constellation_size: int):
    """The modulo-feedback recursion over the stacked data vector d, of
    shape (Q*L,) or (Q*L, S) for S symbol instants, run on a C-ordered
    copy: (b, v) with v = d + shift and C b = v exactly, C = B + I."""
    d = np.asarray(d, dtype=complex)
    b = d.reshape(len(d), -1).copy()
    shift = thp_recursion(b, b_matrix, streams, constellation_size,
                          np.empty(b.view(float).shape))
    return b.reshape(d.shape), d + shift.reshape(d.shape)
