"""`precoding.thp_recursion` in the (b, v) form the tests check it in."""

import numpy as np

from thpalloc.precoding import fold, thp_recursion


def recursion_precode(d: np.ndarray, b_matrix: np.ndarray, streams: int,
                      constellation_size: int):
    """The modulo-feedback recursion over the stacked data vector d, of
    shape (Q*L,) or (Q*L, S) for S symbol instants, run on a C-ordered
    copy: (b, v) with v = d + shift and C b = v exactly, C = B + I. The
    copy's first block is folded here, which `thp_recursion` leaves to
    its caller, so any d, not only QAM points, gives these bytes."""
    d = np.asarray(d, dtype=complex)
    data = d.reshape(len(d), -1).copy()
    scratch = np.empty(data.view(float).shape)
    fold(data[:streams], constellation_size, out=scratch[:streams])
    b = np.empty_like(data)
    shift = thp_recursion(data, b_matrix, streams, constellation_size, b,
                          scratch)
    return b.reshape(d.shape), d + shift.reshape(d.shape)
