"""Worst-first user partitioning by average channel energy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from thpalloc.channel import ChannelSet


@dataclass(frozen=True)
class GroupPartition:
    """Ordered split of the user population into Q equal-size groups.

    groups[0] holds the users with the weakest channels; they are
    precoded first, while all transmit degrees of freedom remain.
    """

    groups: tuple[tuple[int, ...], ...]
    quality: np.ndarray  # pi(k) per user


def channel_quality(channels: ChannelSet) -> np.ndarray:
    """(K,) average channel energy pi(k) = (1/N) sum_n tr(H_k^H H_k)."""
    energy = np.sum(np.abs(channels.matrices) ** 2, axis=(2, 3))  # (N, K)
    # each user's row contiguous, so its mean sums as the scalar one does
    return np.ascontiguousarray(energy.T).mean(axis=1)


def partition_worst_first(quality: np.ndarray, group_count: int) -> GroupPartition:
    """Sort users ascending by quality (ties by index) into Q groups.

    The first K/Q users form group 0, the next K/Q group 1, etc.
    """
    quality = np.asarray(quality, dtype=float)
    if quality.size % group_count != 0:
        raise ValueError(f"user count {quality.size} not divisible by "
                         f"group count {group_count}")
    order = np.argsort(quality, kind="stable").reshape(group_count, -1)
    return GroupPartition(groups=tuple(map(tuple, order.tolist())),
                          quality=quality)
