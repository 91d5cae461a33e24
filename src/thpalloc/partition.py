"""Worst-first user partitioning by average channel energy."""

from __future__ import annotations

import numpy as np

from thpalloc.channel import ChannelSet


def channel_quality(channels: ChannelSet) -> np.ndarray:
    """(K,) average channel energy pi(k) = (1/N) sum_n tr(H_k^H H_k)."""
    energy = np.sum(np.abs(channels.matrices) ** 2, axis=(2, 3))  # (N, K)
    # each user's row contiguous, so its mean sums as the scalar one does
    return np.ascontiguousarray(energy.T).mean(axis=1)


def partition_worst_first(quality: np.ndarray,
                          group_count: int) -> tuple[tuple[int, ...], ...]:
    """Users sorted ascending by quality (ties by index) into Q groups of
    K/Q: group 0, the weakest, is precoded first, while every transmit
    degree of freedom remains; group 1 holds the next K/Q, and so on."""
    quality = np.asarray(quality, dtype=float)
    if quality.size % group_count != 0:
        raise ValueError(f"user count {quality.size} not divisible by "
                         f"group count {group_count}")
    order = np.argsort(quality, kind="stable").reshape(group_count, -1)
    return tuple(map(tuple, order.tolist()))
