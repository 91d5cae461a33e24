from dataclasses import replace

import numpy as np
import pytest

from oracles import bisect_nu, null_space, projected, projected_cost, weight
from thpalloc.channel import ScenarioConfig
from thpalloc.loading import (INFEASIBLE_COST, equalizing_rotation,
                              loading_cost, power_loading, projected_costs,
                              receiver_matrix, transmit_matrix)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestEqualizingRotation:
    def test_scalar(self):
        np.testing.assert_array_equal(equalizing_rotation(1), [[1.0]])

    def test_two_streams_mean(self):
        s = equalizing_rotation(2)
        diag = np.diag(s @ np.diag([1.0, 3.0]) @ s.conj().T).real
        np.testing.assert_allclose(diag, [2.0, 2.0], atol=1e-12)

    def test_four_streams_random_diag(self):
        rng = np.random.default_rng(0)
        lam = rng.uniform(0.1, 5.0, 4)
        s = equalizing_rotation(4)
        diag = np.diag(s @ np.diag(lam) @ s.conj().T).real
        np.testing.assert_allclose(diag, np.full(4, lam.mean()), atol=1e-12)

    def test_unitary_constant_modulus(self):
        for ell in (1, 2, 3, 4, 5):
            s = equalizing_rotation(ell)
            np.testing.assert_allclose(s @ s.conj().T, np.eye(ell),
                                       atol=1e-12)
            np.testing.assert_allclose(np.abs(s), 1 / np.sqrt(ell),
                                       atol=1e-12)


class TestPowerLoading:
    # power_loading returns lambda_U; nu is read back from the water-filling
    # form lambda_U = sqrt(nu sigma^2 / lambda_H'), tr(U^H U) is its sum
    def test_single_stream(self):
        lambda_u = power_loading(np.array([1.0]), weight(
            gamma_k=0.5, n_k=1, noise_variance=1.0))
        assert lambda_u[0] == pytest.approx(2.0)
        assert lambda_u.sum() == pytest.approx(2.0)
        # per-stream MSE sigma^2 / (lambda_U lambda_H') = gamma / (n L)
        assert 1.0 / lambda_u[0] == pytest.approx(0.5)

    def test_two_stream_hand_example(self):
        lam = np.array([1.0, 4.0])
        lambda_u = power_loading(lam, weight(gamma_k=0.75, n_k=1,
                                             noise_variance=1.0))
        np.testing.assert_allclose(lambda_u ** 2 * lam, 4.0, rtol=1e-12)
        np.testing.assert_allclose(lambda_u, [2.0, 1.0], rtol=1e-12)
        assert lambda_u.sum() == pytest.approx(3.0)

    def test_equal_gains_specialization(self):
        lam0, n_k, gamma = 2.5, 3, 0.6
        for ell in (1, 2, 4):
            lambda_u = power_loading(np.full(ell, lam0),
                                     weight(gamma, n_k, 1.0))
            assert lambda_u.sum() == pytest.approx(
                n_k * ell ** 2 / (gamma * lam0))

    def test_constraint_met_with_equality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ell = rng.integers(1, 5)
            lam = rng.uniform(0.05, 10.0, ell)
            gamma, n_k, s2 = rng.uniform(0.1, 2.0), rng.integers(1, 9), \
                rng.uniform(0.2, 3.0)
            lambda_u = power_loading(lam, weight(gamma, int(n_k), s2))
            mse_sum = np.sum(s2 / (lambda_u * lam))
            assert mse_sum == pytest.approx(gamma / n_k, rel=1e-9)
            nu = lambda_u ** 2 * lam / s2
            np.testing.assert_allclose(lambda_u, np.sqrt(nu[0] * s2 / lam),
                                       rtol=1e-9)

    def test_closed_form_matches_bisection(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            lam = rng.uniform(0.05, 10.0, rng.integers(1, 5))
            gamma, n_k, s2 = rng.uniform(0.1, 2.0), 2, rng.uniform(0.2, 3.0)
            lambda_u = power_loading(lam, weight(gamma, n_k, s2))
            root = bisect_nu(lam, gamma, n_k, s2)
            assert root == pytest.approx(lambda_u[0] ** 2 * lam[0] / s2,
                                         rel=1e-9)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            power_loading(np.array([1.0, 0.0]), weight(0.5, 1, 1.0))

    def test_batched_rows_equal_single_calls(self):
        rng = np.random.default_rng(10)
        lam = rng.uniform(0.05, 10.0, (5, 3))
        gamma, n_k = rng.uniform(0.1, 2.0, 5), rng.integers(1, 9, 5)
        batched = power_loading(lam, weight(gamma, n_k, 1.7))
        for i in range(5):
            np.testing.assert_array_equal(
                batched[i], power_loading(lam[i], weight(gamma[i], n_k[i],
                                                         1.7)))

    def test_loading_cost_shortcut(self):
        rng = np.random.default_rng(3)
        lam = rng.uniform(0.1, 4.0, 3)
        w = weight(0.7, 2, 1.3)
        assert loading_cost(lam ** -0.5, w) == pytest.approx(
            power_loading(lam, w).sum(), rel=1e-12)

    def test_cost_scaling_laws(self):
        inv = np.array([0.5, 2.0, 3.0]) ** -0.5
        cfg = ScenarioConfig(num_subcarriers=2, num_users=2, tx_antennas=2,
                             rx_antennas=1, streams_per_user=1, quota=(2, 2),
                             mse_budget=(0.8, 0.8), noise_variance=1.0)
        base = loading_cost(inv, cfg.price_weight[0])
        # degree 1 in sigma^2, degree -1 in gamma, 1/alpha in channel scale
        noisier = replace(cfg, noise_variance=2.0)
        assert loading_cost(inv, noisier.price_weight[0]) == pytest.approx(
            2 * base)
        looser = replace(cfg, mse_budget=(1.6, 1.6))
        assert loading_cost(inv, looser.price_weight[0]) == pytest.approx(
            base / 2)
        # scaling the channel by alpha scales every gain by alpha and
        # the cost by 1/alpha^2
        alpha = 2.3
        assert loading_cost(inv / alpha, cfg.price_weight[0]) == \
            pytest.approx(base / alpha ** 2, rel=1e-12)


class TestTransceiverMatrices:
    def test_isometry_power(self):
        rng = np.random.default_rng(4)
        v1, _ = np.linalg.qr(random_complex(rng, (4, 2)))
        lambda_u = power_loading(np.array([1.0, 1.0]), weight(2.0, 1, 1.0))
        u = transmit_matrix(v1, lambda_u, np.eye(2))
        assert np.trace(u.conj().T @ u).real == pytest.approx(lambda_u.sum(),
                                                              rel=1e-9)

    def test_single_stream_power(self):
        lambda_u = power_loading(np.array([1.0]), weight(0.5, 1, 1.0))
        u = transmit_matrix(np.array([[1.0]]), lambda_u, np.array([[1.0]]))
        assert np.linalg.norm(u) ** 2 == pytest.approx(2.0)

    def test_receiver_scalar(self):
        g = receiver_matrix(np.array([[2.0]]), np.array([[1.0]]))
        assert g[0, 0] == pytest.approx(0.5)

    def test_receiver_zero_forcing_and_mse(self):
        rng = np.random.default_rng(5)
        v0 = null_space(random_complex(rng, (2, 4)), 4)
        hp, sv, v1, _ = projected(random_complex(rng, (2, 4)), v0, 2)
        lambda_u = power_loading(sv[:2] ** 2, weight(0.8, 2, 1.0))
        s = equalizing_rotation(2)
        u = transmit_matrix(v1[:, :2], lambda_u, s)
        g = receiver_matrix(hp, u)
        np.testing.assert_allclose(g @ hp @ u, np.eye(2), atol=1e-9)
        # equal per-stream MSEs at epsilon = gamma/(n L)
        mse = np.diag(g @ g.conj().T).real  # sigma^2 = 1
        np.testing.assert_allclose(mse, 0.8 / (2 * 2), rtol=1e-9)
        assert mse.sum() == pytest.approx(0.8 / 2, rel=1e-9)

    def test_receiver_singular_gram(self):
        with pytest.raises(np.linalg.LinAlgError):
            receiver_matrix(np.zeros((2, 2)), np.eye(2))

    def test_batched_matrices_equal_single_calls(self):
        rng = np.random.default_rng(11)
        hp = random_complex(rng, (3, 2, 4))
        v1 = np.linalg.qr(random_complex(rng, (3, 4, 2)))[0]
        lambda_u = rng.uniform(0.5, 2.0, (3, 2))
        s = equalizing_rotation(2)
        u = transmit_matrix(v1, lambda_u, s)
        g = receiver_matrix(hp, u)
        for i in range(3):
            u_i = transmit_matrix(v1[i], lambda_u[i], s)
            np.testing.assert_allclose(u[i], u_i, rtol=1e-14)
            np.testing.assert_allclose(g[i], receiver_matrix(hp[i], u_i),
                                       rtol=1e-12)


class TestSubcarrierCost:
    """projected_cost: the price of a user channel confined to the null
    space of the users already placed on its subcarrier."""

    @staticmethod
    def cost(h, placed, k, gamma_k, n_k, noise_variance, streams):
        return projected_cost(h[k], h[placed].reshape(-1, h.shape[-1]),
                              gamma_k, n_k, noise_variance, streams)

    def test_unit_row_channel(self):
        h = np.array([[[1.0, 0.0]]], dtype=complex)
        assert self.cost(h, [], 0, gamma_k=1.0, n_k=1, noise_variance=1.0,
                         streams=1) == pytest.approx(1.0)

    def test_doubling_budget_halves_cost(self):
        h = random_complex(np.random.default_rng(6), (2, 2, 4))
        cfg = ScenarioConfig(num_subcarriers=4, num_users=2, tx_antennas=4,
                             rx_antennas=2, streams_per_user=2, quota=(2, 2),
                             mse_budget=(1.0, 1.0), noise_variance=1.0)
        c1, c2 = (projected_costs(h[1], h[0][None], c.price_weight[0], 2)[0]
                  for c in (cfg, replace(cfg, mse_budget=(2.0, 2.0))))
        assert c2 == pytest.approx(c1 / 2, rel=1e-12)
        assert c1 == pytest.approx(self.cost(h, [1], 0, 1.0, 2, 1.0, 2),
                                   rel=1e-12)

    def test_rank_deficient_infinite(self):
        h = np.zeros((2, 2, 4), dtype=complex)
        h[1] = np.random.default_rng(7).standard_normal((2, 4))
        assert self.cost(h, [1], 0, 1.0, 1, 1.0, 2) == INFEASIBLE_COST

    def test_matches_power_loading_on_projected_gains(self):
        h = random_complex(np.random.default_rng(8), (2, 2, 6))
        cost = self.cost(h, [0], 1, 0.9, 3, 1.0, 2)
        _, sv, _, _ = projected(h[1], null_space(h[0], 6), 2)
        assert cost == pytest.approx(
            power_loading(sv[:2] ** 2, weight(0.9, 3, 1.0)).sum(), rel=1e-12)


class TestOptimality:
    def test_closed_form_beats_numerical_minimizer(self):
        # minimize tr(U^H U) over general complex U subject to the
        # zero-forcing sum-MSE equality; the closed form must match.
        from scipy.optimize import minimize
        rng = np.random.default_rng(9)
        for _ in range(5):
            ell = int(rng.integers(1, 4))
            m = ell + int(rng.integers(0, 3))
            hp = random_complex(rng, (ell, m))
            lam = np.linalg.svd(hp, compute_uv=False)[:ell] ** 2
            if lam[-1] < 1e-6:
                continue
            gamma, n_k = float(rng.uniform(0.2, 1.5)), 2
            closed = loading_cost(lam ** -0.5, weight(gamma, n_k, 1.0))

            def unpack(x):
                re, im = x[:m * ell], x[m * ell:]
                return (re + 1j * im).reshape(m, ell)

            def cost(x):
                u = unpack(x)
                return float(np.trace(u.conj().T @ u).real)

            def constraint(x):
                u = unpack(x)
                gram = u.conj().T @ hp.conj().T @ hp @ u
                return float(np.trace(np.linalg.inv(gram)).real) - gamma / n_k

            best = np.inf
            for _ in range(6):
                x0 = rng.standard_normal(2 * m * ell)
                res = minimize(cost, x0, method="SLSQP",
                               constraints=[{"type": "eq",
                                             "fun": constraint}],
                               options={"maxiter": 400, "ftol": 1e-12})
                if res.success:
                    best = min(best, res.fun)
            assert closed <= best * (1 + 1e-5)
            assert closed == pytest.approx(best, rel=1e-4)
