import math

import numpy as np
import pytest

from thpalloc.baselines import (Architecture, linear_mutual_cost,
                                restrict_rows, thp_final_power, thp_qr_cost,
                                zf_cost, zf_final_power)
from thpalloc.loading import INFEASIBLE_COST, loading_cost


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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
        cost = zf_cost([h[:1], h[1:]], 1, gamma_k=0.5, n_k=1,
                       noise_variance=1.0, streams=1)
        # ||f|| = 1 -> scalar program gives power 2 for MSE 0.5
        assert cost == pytest.approx(2.0)

    def test_single_user_scalar_program(self):
        cost = zf_cost([np.array([[1.0, 0.0]])], 0, 0.5, 1, 1.0, 1)
        assert cost == pytest.approx(2.0)

    def test_near_singular_monotone_growth(self):
        prev = 0.0
        for eps in (0.5, 0.1, 0.02, 0.004):
            stack = [np.array([[1.0, 0.0]]),
                     np.array([[math.sqrt(1 - eps ** 2), eps]])]
            cost = zf_cost(stack, 1, 1.0, 1, 1.0, 1)
            assert cost > prev
            prev = cost

    def test_rank_deficient_infinite(self):
        row = np.array([[1.0, 1.0]])
        assert zf_cost([row, row], 1, 1.0, 1, 1.0, 1) == INFEASIBLE_COST


class TestThpQrCost:
    def test_diagonal_channel_equals_zf(self):
        h1 = np.array([[2.0, 0.0, 0.0, 0.0]])
        h2 = np.array([[0.0, 3.0, 0.0, 0.0]])
        zf = zf_cost([h1, h2], 1, 0.8, 2, 1.0, 1)
        thp = thp_qr_cost([h1, h2], 0.8, 2, 1.0, 1)
        assert thp == pytest.approx(zf, rel=1e-9)

    def test_hand_two_by_two(self):
        # candidate last: its gain is the projection residual
        h1 = np.array([[1.0, 0.0]])
        h2 = np.array([[1.0, 1.0]])
        cost = thp_qr_cost([h1, h2], 1.0, 1, 1.0, 1)
        # R diag of [h1; h2]^H QR: |r_11| = 1, |r_22| = 1 (residual of h2
        # orthogonal to h1 has norm 1) -> cost = 1/r_22^2 = 1
        assert cost == pytest.approx(1.0, rel=1e-9)

    def test_candidate_slice_independent_of_later_users(self):
        rng = np.random.default_rng(0)
        h1 = random_complex(rng, (1, 4))
        h2 = random_complex(rng, (1, 4))
        c12 = thp_qr_cost([h1, h2], 1.0, 1, 1.0, 1)
        # appending a later user must not change h2's diagonal entry
        h3 = random_complex(rng, (1, 4))
        h = np.vstack([h1, h2, h3])
        r = np.abs(np.diag(np.linalg.qr(h.conj().T, mode="r")))
        assert 1.0 / r[1] ** 2 == pytest.approx(c12, rel=1e-9)

    def test_rank_deficient_infinite(self):
        row = np.array([[1.0, 1.0, 0.0]])
        assert thp_qr_cost([row, row], 1.0, 1, 1.0, 1) == INFEASIBLE_COST

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
        alone = thp_qr_cost([h], 0.7, 2, 1.0, 2)
        final = thp_final_power([h], [0.7], [2], 1.0, 2)
        assert final == pytest.approx(alone, rel=1e-12)

    def test_zf_single_user_matches_cost(self):
        rng = np.random.default_rng(3)
        h = random_complex(rng, (2, 4))
        alone = zf_cost([h], 0, 0.7, 2, 1.0, 2)
        final = zf_final_power([h], [0.7], [2], 1.0, 2)
        assert final == pytest.approx(alone, rel=1e-12)

    def test_thp_last_user_pays_projection(self):
        rng = np.random.default_rng(4)
        h1, h2 = random_complex(rng, (1, 4)), random_complex(rng, (1, 4))
        stacked = thp_final_power([h1, h2], [1.0, 1.0], [1, 1], 1.0, 1)
        solo = (thp_qr_cost([h1], 1.0, 1, 1.0, 1)
                + thp_qr_cost([h2], 1.0, 1, 1.0, 1))
        assert stacked >= solo - 1e-12

    def test_rank_deficient_infinite(self):
        row = np.array([[1.0, 0.0]])
        assert thp_final_power([row, row], [1, 1], [1, 1], 1.0, 1) == \
            INFEASIBLE_COST
        assert zf_final_power([row, row], [1, 1], [1, 1], 1.0, 1) == \
            INFEASIBLE_COST


class TestLinearCosts:
    def test_mutual_cost_no_cochannel_equals_proposed(self):
        rng = np.random.default_rng(8)
        h = random_complex(rng, (2, 4))
        lam = np.linalg.svd(h, compute_uv=False)[:2] ** 2
        assert linear_mutual_cost(h, [], 0.5, 2, 1.0, 2) == pytest.approx(
            loading_cost(lam, 0.5, 2, 1.0), rel=1e-12)

    def test_mutual_cost_projects_out_cochannel(self):
        rng = np.random.default_rng(9)
        h = random_complex(rng, (1, 4))
        other = random_complex(rng, (1, 4))
        projected = linear_mutual_cost(h, [other], 1.0, 1, 1.0, 1)
        alone = linear_mutual_cost(h, [], 1.0, 1, 1.0, 1)
        assert projected >= alone - 1e-12
        # infeasible when the co-channel stack removes all dimensions
        others = [random_complex(rng, (1, 4)) for _ in range(3)]
        tight = linear_mutual_cost(h, others, 1.0, 1, 1.0, 1)
        assert math.isfinite(tight)


class TestEquivalenceOnOrthogonalUsers:
    def test_all_architectures_agree(self):
        # mutually orthogonal co-channel users decouple every scheme
        h1 = np.array([[1.5, 0.0, 0.0, 0.0]], dtype=complex)
        h2 = np.array([[0.0, 0.7, 0.0, 0.0]], dtype=complex)
        gamma, n_k = 0.8, 2
        proposed = linear_mutual_cost(h2, [h1], gamma, n_k, 1.0, 1)
        zf = zf_cost([h1, h2], 1, gamma, n_k, 1.0, 1)
        thp = thp_qr_cost([h1, h2], gamma, n_k, 1.0, 1)
        for other in (zf, thp):
            assert other == pytest.approx(proposed, rel=1e-6)


class TestRestrictRows:
    def test_identity_for_reference_scenarios(self):
        rng = np.random.default_rng(10)
        h = random_complex(rng, (4, 8))
        np.testing.assert_array_equal(restrict_rows(h, 4), h)
        assert restrict_rows(h, 2).shape == (2, 8)
