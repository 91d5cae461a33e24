import numpy as np
import pytest

import oracles
from thpalloc.channel import ChannelSet
from thpalloc.partition import channel_quality, partition_worst_first


def make_channels(matrices):
    matrices = np.asarray(matrices, dtype=complex)
    k = matrices.shape[1]
    return ChannelSet(matrices=matrices, user_positions=np.zeros((k, 2)),
                      drop_id=0)


class TestChannelQuality:
    def test_frobenius_row(self):
        ch = make_channels([[[[1.0, 1.0]]]])  # N=1, K=1, 1x2
        assert oracles.channel_quality(ch, 0) == pytest.approx(2.0)
        assert channel_quality(ch).tolist() == [oracles.channel_quality(ch, 0)]

    def test_zero_channel(self):
        ch = make_channels(np.zeros((3, 2, 2, 4)))
        assert oracles.channel_quality(ch, 1) == 0.0
        assert not channel_quality(ch).any()

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((4, 1, 4, 2)) + 1j * rng.standard_normal(
            (4, 1, 4, 2))
        ch = make_channels(h)
        eig_sum = np.mean([np.linalg.eigvalsh(
            h[n, 0].conj().T @ h[n, 0]).sum().real for n in range(4)])
        assert oracles.channel_quality(ch, 0) == pytest.approx(eig_sum,
                                                              rel=1e-10)
        assert channel_quality(ch)[0] == oracles.channel_quality(ch, 0)


class TestPartitionWorstFirst:
    def test_basic_sort(self):
        part = partition_worst_first(np.array([4.0, 1.0, 3.0, 2.0]), 2)
        assert part.groups == ((1, 3), (2, 0))

    def test_tie_break_by_index(self):
        part = partition_worst_first(np.ones(4), 2)
        assert part.groups == ((0, 1), (2, 3))

    def test_single_group(self):
        part = partition_worst_first(np.array([2.0, 1.0, 3.0]), 1)
        assert part.groups == ((1, 0, 2),)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            partition_worst_first(np.ones(5), 2)

    def test_groups_partition_population(self):
        rng = np.random.default_rng(1)
        q = rng.uniform(size=12)
        part = partition_worst_first(q, 3)
        flat = [k for g in part.groups for k in g]
        assert sorted(flat) == list(range(12))
        assert all(len(g) == 4 for g in part.groups)

    def test_worst_first_ordering(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(size=16)
        part = partition_worst_first(q, 4)
        for i in range(3):
            assert max(q[k] for k in part.groups[i]) <= \
                min(q[k] for k in part.groups[i + 1])

    def test_permutation_covariance(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(size=8)  # distinct values almost surely
        perm = rng.permutation(8)
        base = partition_worst_first(q, 2)
        permuted = partition_worst_first(q[perm], 2)
        # user j in the permuted problem is user perm[j] originally
        relabeled = tuple(tuple(sorted(perm[list(g)])) for g in permuted.groups)
        original = tuple(tuple(sorted(g)) for g in base.groups)
        assert relabeled == original

    def test_scale_monotonicity(self):
        rng = np.random.default_rng(4)
        q = rng.uniform(size=8)
        base = partition_worst_first(q, 4)

        def group_of(part, k):
            return next(i for i, g in enumerate(part.groups) if k in g)

        boosted = q.copy()
        boosted[2] *= 3.0
        after = partition_worst_first(boosted, 4)
        assert group_of(after, 2) >= group_of(base, 2)
