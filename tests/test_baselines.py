import math

import numpy as np
import pytest

from oracles import linear_bills, thp_bills, weight, zf_bills
from thpalloc.baselines import Architecture, restrict_rows
from thpalloc.loading import INFEASIBLE_COST, loading_cost


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def last_bill(bills, blocks, gamma_k, n_k, noise_variance, streams):
    """Candidate cost: the bill of the last user in the stack, every user
    on the same budget."""
    q = len(blocks)
    return bills(np.stack(blocks), [gamma_k] * q, [n_k] * q, noise_variance,
                 streams)[-1]


class TestArchitecture:
    def test_four_schemes(self):
        assert [a.value for a in Architecture] == \
            ["ThpTxLinRx", "ZfTx", "ThpTx", "LinTxLinRx"]

    def test_parse_case_insensitive(self):
        assert Architecture.parse("zftx") is Architecture.ZF_TX
        with pytest.raises(ValueError, match="unknown"):
            Architecture.parse("dirty-paper")


class TestZfCost:
    def test_unitary_stack_equal_powers(self):
        h = np.eye(2, dtype=complex)
        cost = last_bill(zf_bills, [h[:1], h[1:]], gamma_k=0.5, n_k=1,
                         noise_variance=1.0, streams=1)
        # ||f|| = 1 -> scalar program gives power 2 for MSE 0.5
        assert cost == pytest.approx(2.0)

    def test_single_user_scalar_program(self):
        cost = last_bill(zf_bills, [np.array([[1.0, 0.0]])], 0.5, 1, 1.0, 1)
        assert cost == pytest.approx(2.0)

    def test_near_singular_monotone_growth(self):
        prev = 0.0
        for eps in (0.5, 0.1, 0.02, 0.004):
            stack = [np.array([[1.0, 0.0]]),
                     np.array([[math.sqrt(1 - eps ** 2), eps]])]
            cost = last_bill(zf_bills, stack, 1.0, 1, 1.0, 1)
            assert cost > prev
            prev = cost

    def test_rank_deficient_infinite(self):
        row = np.array([[1.0, 1.0]])
        assert last_bill(zf_bills, [row, row], 1.0, 1, 1.0, 1) == \
            INFEASIBLE_COST


class TestThpQrCost:
    def test_diagonal_channel_equals_zf(self):
        h1 = np.array([[2.0, 0.0, 0.0, 0.0]])
        h2 = np.array([[0.0, 3.0, 0.0, 0.0]])
        zf = last_bill(zf_bills, [h1, h2], 0.8, 2, 1.0, 1)
        thp = last_bill(thp_bills, [h1, h2], 0.8, 2, 1.0, 1)
        assert thp == pytest.approx(zf, rel=1e-9)

    def test_hand_two_by_two(self):
        # candidate last: its gain is the projection residual
        h1 = np.array([[1.0, 0.0]])
        h2 = np.array([[1.0, 1.0]])
        cost = last_bill(thp_bills, [h1, h2], 1.0, 1, 1.0, 1)
        # R diag of [h1; h2]^H QR: |r_11| = 1, |r_22| = 1 (residual of h2
        # orthogonal to h1 has norm 1) -> cost = 1/r_22^2 = 1
        assert cost == pytest.approx(1.0, rel=1e-9)

    def test_candidate_slice_independent_of_later_users(self):
        rng = np.random.default_rng(0)
        h1 = random_complex(rng, (1, 4))
        h2 = random_complex(rng, (1, 4))
        c12 = last_bill(thp_bills, [h1, h2], 1.0, 1, 1.0, 1)
        # appending a later user must not change h2's diagonal entry
        h3 = random_complex(rng, (1, 4))
        h = np.vstack([h1, h2, h3])
        r = np.abs(np.diag(np.linalg.qr(h.conj().T, mode="r")))
        assert 1.0 / r[1] ** 2 == pytest.approx(c12, rel=1e-9)

    def test_rank_deficient_infinite(self):
        row = np.array([[1.0, 1.0, 0.0]])
        assert last_bill(thp_bills, [row, row], 1.0, 1, 1.0, 1) == \
            INFEASIBLE_COST

    def test_triangular_cancellation(self):
        # F = Q diag(1/r) with C the unit-diagonal version of R^H diag(1/r)
        # gives a noiseless cascade exactly equal to the precoded vector.
        rng = np.random.default_rng(1)
        h = random_complex(rng, (3, 6))
        q, r = np.linalg.qr(h.conj().T)
        d = np.diag(r)
        f = q / d.conj()
        cascade = h @ f
        np.testing.assert_allclose(np.triu(cascade, 1), 0, atol=1e-10)
        np.testing.assert_allclose(np.diag(cascade), 1.0, atol=1e-10)


class TestFinalPowers:
    def test_thp_single_user_matches_cost(self):
        rng = np.random.default_rng(2)
        h = random_complex(rng, (2, 4))
        alone = last_bill(thp_bills, [h], 0.7, 2, 1.0, 2)
        final = sum(thp_bills(h[None], [0.7], [2], 1.0, 2))
        assert final == pytest.approx(alone, rel=1e-12)

    def test_zf_single_user_matches_cost(self):
        rng = np.random.default_rng(3)
        h = random_complex(rng, (2, 4))
        alone = last_bill(zf_bills, [h], 0.7, 2, 1.0, 2)
        final = sum(zf_bills(h[None], [0.7], [2], 1.0, 2))
        assert final == pytest.approx(alone, rel=1e-12)

    def test_thp_last_user_pays_projection(self):
        rng = np.random.default_rng(4)
        h1, h2 = random_complex(rng, (1, 4)), random_complex(rng, (1, 4))
        stacked = sum(thp_bills(np.stack([h1, h2]), [1.0, 1.0], [1, 1],
                                1.0, 1))
        solo = (last_bill(thp_bills, [h1], 1.0, 1, 1.0, 1)
                + last_bill(thp_bills, [h2], 1.0, 1, 1.0, 1))
        assert stacked >= solo - 1e-12

    def test_rank_deficient_infinite(self):
        row = np.array([[1.0, 0.0]])
        for bills in (thp_bills, zf_bills):
            assert bills(np.stack([row, row]), [1, 1], [1, 1], 1.0, 1) == \
                [INFEASIBLE_COST, INFEASIBLE_COST]


class TestLinearCosts:
    def test_mutual_cost_no_cochannel_equals_proposed(self):
        rng = np.random.default_rng(8)
        h = random_complex(rng, (2, 4))
        lam = np.linalg.svd(h, compute_uv=False)[:2] ** 2
        assert linear_bills(h[None], [0.5], [2], 1.0, 2) == [pytest.approx(
            loading_cost(lam ** -0.5, weight(0.5, 2, 1.0)), rel=1e-12)]

    def test_mutual_cost_projects_out_cochannel(self):
        rng = np.random.default_rng(9)
        h = random_complex(rng, (1, 4))
        other = random_complex(rng, (1, 4))
        projected = last_bill(linear_bills, [other, h], 1.0, 1, 1.0, 1)
        alone = last_bill(linear_bills, [h], 1.0, 1, 1.0, 1)
        assert projected >= alone - 1e-12
        # each user is projected off all the others, so one more user
        # does not lower anyone's bill
        pair = linear_bills(np.stack([other, h]), [1.0] * 2, [1] * 2, 1.0, 1)
        third = random_complex(rng, (1, 4))
        triple = linear_bills(np.stack([other, h, third]), [1.0] * 3,
                              [1] * 3, 1.0, 1)
        assert all(t >= p - 1e-12 for t, p in zip(triple, pair))
        # a three-user co-channel stack still leaves one dimension of four
        others = [random_complex(rng, (1, 4)) for _ in range(3)]
        tight = last_bill(linear_bills, others + [h], 1.0, 1, 1.0, 1)
        assert math.isfinite(tight)


class TestEquivalenceOnOrthogonalUsers:
    def test_all_architectures_agree(self):
        # mutually orthogonal co-channel users decouple every scheme
        h1 = np.array([[1.5, 0.0, 0.0, 0.0]], dtype=complex)
        h2 = np.array([[0.0, 0.7, 0.0, 0.0]], dtype=complex)
        gamma, n_k = 0.8, 2
        proposed = last_bill(linear_bills, [h1, h2], gamma, n_k, 1.0, 1)
        zf = last_bill(zf_bills, [h1, h2], gamma, n_k, 1.0, 1)
        thp = last_bill(thp_bills, [h1, h2], gamma, n_k, 1.0, 1)
        for other in (zf, thp):
            assert other == pytest.approx(proposed, rel=1e-6)


class TestRestrictRows:
    def test_identity_for_reference_scenarios(self):
        rng = np.random.default_rng(10)
        h = random_complex(rng, (4, 8))
        np.testing.assert_array_equal(restrict_rows(h, 4), h)
        assert restrict_rows(h, 2).shape == (2, 8)
        assert restrict_rows(np.stack([h, h]), 2).shape == (2, 2, 8)
