"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion
verdict lines; the printed details carry the measured values.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from oracles import allocation_total, brute_force_assignment, weight
from precode import recursion_precode
from thpalloc.assignment import solve_assignment
from thpalloc.baselines import Architecture
from thpalloc.channel import generate_drop, scenario_preset
from thpalloc.cli import main
from thpalloc.loading import loading_cost, power_loading
from thpalloc.sim import build_plans, link_level_verify, run_drop, run_sweep

PROPOSED = Architecture.THP_TX_LIN_RX
FIG6_SCHEMES = (PROPOSED, Architecture.THP_TX, Architecture.LIN_TX_LIN_RX)


def verdict(num: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {title}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --------------------------------------------------------------------------
# Criterion 1: closed-form minimum-power loading vs numerical minimizer
# --------------------------------------------------------------------------

def _diagonal_oracle(lam, gamma, n_k, s2, rng):
    """Numerically minimize sum(lambda_U) under the equality MSE budget.

    SLSQP gets the exact gradients of cost and constraint: with
    finite-difference gradients it stopped short of its tolerance from
    every start on some instances, depending on the BLAS thread count.
    The third start, equal per-stream MSEs, lies on the constraint and
    owes nothing to the closed form."""
    target = gamma / n_k

    def cost(x):
        return float(np.sum(np.exp(x)))

    def constraint(x):
        return float(np.sum(s2 / (np.exp(x) * lam))) - target

    def constraint_grad(x):
        return -s2 / (np.exp(x) * lam)

    closed = power_loading(lam, weight(gamma, n_k, s2))  # lambda_U
    best = math.inf
    for start in (np.log(closed) + 0.4 * rng.standard_normal(lam.size),
                  np.log(np.full(lam.size, closed.sum() / lam.size)),
                  np.log(s2 * lam.size / (target * lam))):
        res = minimize(cost, start, jac=np.exp, method="SLSQP",
                       constraints=[{"type": "eq", "fun": constraint,
                                     "jac": constraint_grad}],
                       options={"maxiter": 300, "ftol": 1e-14})
        if res.success:
            best = min(best, res.fun)
    return closed.sum(), best


def _full_matrix_oracle(lam_gen_rng, ell, m, gamma, n_k):
    rng = lam_gen_rng
    hp = random_complex(rng, (ell, m))
    sv = np.linalg.svd(hp, compute_uv=False)
    if sv[-1] < 0.2:
        return None
    lam = sv[:ell] ** 2
    closed = loading_cost(lam ** -0.5, weight(gamma, n_k, 1.0))

    def unpack(x):
        re, im = x[:m * ell], x[m * ell:]
        return (re + 1j * im).reshape(m, ell)

    def cost(x):
        u = unpack(x)
        return float(np.trace(u.conj().T @ u).real)

    def constraint(x):
        gram = unpack(x).conj().T @ hp.conj().T @ hp @ unpack(x)
        return float(np.trace(np.linalg.inv(gram)).real) - gamma / n_k

    best = math.inf
    for _ in range(3):
        x0 = rng.standard_normal(2 * m * ell)
        res = minimize(cost, x0, method="SLSQP",
                       constraints=[{"type": "eq", "fun": constraint}],
                       options={"maxiter": 250, "ftol": 1e-12})
        if res.success:
            best = min(best, res.fun)
    return closed, best


def test_criterion_1_proposition1_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(200):
        ell = int(rng.choice([1, 2, 4]))
        lam = rng.uniform(0.05, 10.0, ell)
        gamma = float(rng.uniform(0.1, 2.0))
        n_k = int(rng.integers(1, 9))
        s2 = float(rng.uniform(0.2, 3.0))
        closed, best = _diagonal_oracle(lam, gamma, n_k, s2, rng)
        assert math.isfinite(best)
        worst = max(worst, abs(closed - best) / closed)
    full_checked = 0
    for _ in range(12):
        ell = int(rng.choice([1, 2, 4]))
        out = _full_matrix_oracle(rng, ell, ell + int(rng.integers(0, 3)),
                                  float(rng.uniform(0.3, 1.5)), 2)
        if out is None:
            continue
        closed, best = out
        assert closed <= best * (1 + 1e-5)
        worst = max(worst, max(0.0, (closed - best) / closed))
        full_checked += 1

    # lambda_U = sqrt(nu sigma^2 / lambda_H'), so nu = lambda_U^2 lambda_H'
    hand = power_loading(np.array([1.0, 4.0]), weight(gamma_k=0.75, n_k=1,
                                                      noise_variance=1.0))
    hand_ok = (np.allclose(hand ** 2 * [1.0, 4.0], 4.0, rtol=0, atol=1e-12)
               and np.allclose(hand, [2.0, 1.0], atol=1e-12)
               and hand.sum() == pytest.approx(3.0, abs=1e-12))
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and hand_ok and full_checked >= 8 and elapsed < 30
    verdict(1, "closed-form loading matches numerical minimizer "
               "(200 instances, rel tol 1e-5) and hand example", ok,
            f"worst rel dev {worst:.2e}, full-matrix checks {full_checked}, "
            f"{elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# Criterion 2: assignment solver vs brute force
# --------------------------------------------------------------------------

def test_criterion_2_assignment_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2002)
    solved = 0
    attempts = 0
    while solved < 500 and attempts < 2000:
        attempts += 1
        n_sub = int(rng.integers(2, 9))
        n_users = int(rng.integers(1, 5))
        quotas = [int(q) for q in rng.integers(1, 4, n_users)]
        if sum(quotas) > n_sub:
            continue
        costs = rng.uniform(0.0, 10.0, (n_sub, n_users))
        costs[rng.uniform(size=costs.shape) < 0.1] = math.inf
        try:
            _, optimum = brute_force_assignment(costs, quotas)
        except Exception:
            continue
        a = solve_assignment(costs, quotas)
        assert abs(allocation_total(a, costs) - optimum) < 1e-9
        for k, q in enumerate(quotas):
            assert a[:, k].sum() == q
        assert np.all(a.sum(axis=1) <= 1)
        solved += 1
    elapsed = time.monotonic() - start
    ok = solved == 500 and elapsed < 30
    verdict(2, "assignment solver equals brute force on 500 instances "
               "(tol 1e-9), quotas and exclusivity hold", ok,
            f"{solved} instances, {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# Criterion 3: interference elimination on 100 S2/S3 drops
# --------------------------------------------------------------------------

def test_criterion_3_interference_elimination():
    worst = 0.0
    drops_checked = 0
    rng = np.random.default_rng(3003)
    for sid, count in (("S2", 50), ("S3", 50)):
        cfg = scenario_preset(sid, rho=0.25, rng_seed=33)
        for d in range(count):
            channels = generate_drop(cfg, d)
            res = run_drop(cfg, channels, PROPOSED)
            if not res.feasible:
                continue
            drops_checked += 1
            ell = cfg.streams_per_user
            forward, receiver, feedback = build_plans(cfg, channels, res)
            for n, placed in enumerate(res.order.tolist()):
                users = [k for k in placed if k >= 0]
                if not users:
                    continue
                h_all = channels.matrices[n]
                q = len(users)
                forwards = forward[n, :q]
                # null-space exactness and zero-forcing receivers
                for pos, k in enumerate(users):
                    f = forwards[pos]
                    if pos:
                        stack = np.vstack([h_all[i] for i in users[:pos]])
                        resid = np.linalg.norm(stack @ f) / np.linalg.norm(f)
                        worst = max(worst, resid)
                    g = receiver[n, pos]
                    eye_resid = np.linalg.norm(g @ h_all[k] @ f - np.eye(ell))
                    worst = max(worst, eye_resid)
                # feedback factorization D C = T
                t_full = np.block([[h_all[users[p]] @ forwards[i]
                                    if i <= p else
                                    np.zeros((cfg.rx_antennas, ell))
                                    for i in range(q)] for p in range(q)])
                d_full = np.block(
                    [[h_all[users[p]] @ forwards[i] if i == p else
                      np.zeros((cfg.rx_antennas, ell))
                      for i in range(q)] for p in range(q)])
                b_matrix = feedback[n, :q * ell, :q * ell]
                c = b_matrix + np.eye(q * ell)
                worst = max(worst, np.linalg.norm(d_full @ c - t_full)
                            / np.linalg.norm(t_full))
                # recursion identity and bounded outputs
                data = random_complex(rng, (q * ell, 16)) * 3
                b, v = recursion_precode(data, b_matrix, ell,
                                         cfg.constellation_size)
                worst = max(worst, np.linalg.norm(c @ b - v)
                            / max(np.linalg.norm(v), 1e-300))
                root = math.sqrt(cfg.constellation_size)
                assert np.all(b.real > -root) and np.all(b.real <= root)
                assert np.all(b.imag > -root) and np.all(b.imag <= root)
            if d < 3:  # noiseless end-to-end leakage
                err = link_level_verify(cfg, channels, res, num_symbols=64,
                                        noiseless=True)
                worst = max(worst, float(np.max(err)) ** 0.5)
    ok = worst < 1e-9 and drops_checked >= 95
    verdict(3, "interference-elimination residuals < 1e-9 on 100 S2/S3 "
               "drops; C b = v; outputs in modulo region", ok,
            f"worst residual {worst:.2e}, {drops_checked} drops")
    assert ok


# --------------------------------------------------------------------------
# Criterion 4: equal per-stream MSEs and tight per-user budgets
# --------------------------------------------------------------------------

def test_criterion_4_equal_mse_and_tightness():
    worst_eq = 0.0
    worst_sum = 0.0
    for sid in ("S1", "S2", "S3"):
        cfg = scenario_preset(sid, rho=0.25, rng_seed=44)
        eps = {k: cfg.mse_budget[k] / (cfg.streams_per_user * cfg.quota[k])
               for k in range(cfg.num_users)}
        for d in range(10):
            channels = generate_drop(cfg, d)
            res = run_drop(cfg, channels, PROPOSED)
            if not res.feasible:
                continue
            sums = np.zeros(cfg.num_users)
            _, receiver, _ = build_plans(cfg, channels, res)
            placed = res.order >= 0
            for k, g in zip(res.order[placed].tolist(), receiver[placed]):
                mse = cfg.noise_variance * np.diag(g @ g.conj().T).real
                dev = np.max(np.abs(mse - eps[k])) / eps[k]
                worst_eq = max(worst_eq, float(dev))
                sums[k] += float(mse.sum())
            worst_sum = max(worst_sum, float(np.max(
                np.abs(sums - np.asarray(cfg.mse_budget))
                / np.asarray(cfg.mse_budget))))
    ok = worst_eq < 1e-9 and worst_sum < 1e-9
    verdict(4, "per-stream MSEs equal gamma/(L n) and per-user sums equal "
               "gamma (rel tol 1e-9)", ok,
            f"worst stream dev {worst_eq:.2e}, worst sum dev {worst_sum:.2e}")
    assert ok


# --------------------------------------------------------------------------
# Criterion 5: link-level empirical MSE vs analytic budget
# --------------------------------------------------------------------------

def test_criterion_5_link_level_validation():
    start = time.monotonic()
    cfg = scenario_preset("S2", rho=0.05, rng_seed=55,
                          constellation_size=64)
    channels = generate_drop(cfg, 0)
    res = run_drop(cfg, channels, PROPOSED)
    assert res.feasible
    # n_k * L = 8 measured streams-per-symbol per user: 12500 symbol
    # instants give 1e5 symbols per user
    per_user = cfg.quota[0] * cfg.streams_per_user
    num_symbols = math.ceil(1e5 / per_user)
    err = link_level_verify(cfg, channels, res, num_symbols=num_symbols,
                            seed=5)
    budgets = np.asarray(cfg.mse_budget)
    rel = np.abs(err - budgets) / budgets
    elapsed = time.monotonic() - start
    ok = bool(np.max(rel) < 0.05) and elapsed < 120
    verdict(5, "S2 link level (rho=0.05, M=64, 1e5 symbols/user): "
               "empirical sum-MSE within 5% of budget", ok,
            f"worst rel dev {np.max(rel):.3f}, {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# Criterion 6: power-vs-target-MSE figure shape (reference scenario S3)
# --------------------------------------------------------------------------

def test_criterion_6_power_vs_mse_shape():
    start = time.monotonic()
    rhos = (0.05, 0.1, 0.25, 0.5)
    pts = [(r, scenario_preset("S3", rho=r, rng_seed=7)) for r in rhos]
    archs = (PROPOSED, Architecture.THP_TX, Architecture.LIN_TX_LIN_RX,
             Architecture.ZF_TX)
    sweep = run_sweep(pts, drops=200, architectures=archs)
    means = sweep.mean_power_db  # (rho, arch)
    details = []
    ordering_ok = True
    zf_gap_ok = True
    for p, r in enumerate(rhos):
        prop, thp, lin, zf = means[p]
        ordering_ok &= prop <= thp <= lin <= zf
        diffs = (sweep.power_db[p, 3] - sweep.power_db[p, 2])[
            sweep.feasible[p]]
        gap_se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        zf_gap_ok &= diffs.mean() - 2 * gap_se > 0
        details.append(f"rho={r}: {prop:.2f}/{thp:.2f}/{lin:.2f}/{zf:.2f}")
    monotone_ok = bool(np.all(np.diff(means, axis=0) <= 1e-9))
    elapsed = time.monotonic() - start
    ok = ordering_ok and zf_gap_ok and monotone_ok and elapsed < 600
    verdict(6, "S3 power-vs-MSE shape: proposed <= ThpTx <= LinTxLinRx <= "
               "ZfTx at every rho, ZfTx gap significant, curves monotone",
            ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok


# --------------------------------------------------------------------------
# Criterion 7: power-vs-user-count figure shape (S1 vs S3)
# --------------------------------------------------------------------------

def _paired_gaps(sweep, point, a, b):
    """Per-drop power gap (dB) of architecture a over b at one axis point,
    on the drops where every architecture was feasible."""
    return (sweep.power_db[point, a] - sweep.power_db[point, b])[
        sweep.feasible[point]]


def _paired_se(diffs):
    return diffs.std(ddof=1) / math.sqrt(diffs.size)


def test_criterion_7_power_vs_users_shape():
    start = time.monotonic()
    users = (8, 16, 24, 32)
    results = {}
    for sid in ("S1", "S3"):
        base = scenario_preset(sid, rho=0.25, rng_seed=7)
        pts = [(float(k), base.with_users(k, 0.25)) for k in users]
        results[sid] = run_sweep(pts, drops=200,
                                 architectures=FIG6_SCHEMES)
    s1, s3 = results["S1"], results["S3"]
    details = []
    thp_idx = FIG6_SCHEMES.index(Architecture.THP_TX)
    lin_idx = FIG6_SCHEMES.index(Architecture.LIN_TX_LIN_RX)

    # S1 (Q = 2, N_R = L = 1): all three schemes place group 0 at the
    # same single-user costs. The proposed scheme then assigns group 1 at
    # exactly the power ThpTx's final stacked QR precoder bills for it, so
    # ThpTx's spatially blind choice cannot cost less, and LinTxLinRx
    # also projects group 0 away from group 1. Both baselines therefore
    # lie at or above the proposed scheme on every drop, by gaps that do
    # not shrink with the drop count; convergence is read as the
    # LinTxLinRx gap shrinking from its K=8 value once K >= 16.
    order_ok = True
    gaps = {}  # (K, arch index) -> (paired mean gap, paired SE), dB
    for p, k in enumerate(users):
        for idx in (thp_idx, lin_idx):
            diffs = _paired_gaps(s1, p, idx, 0)
            order_ok &= bool(np.all(diffs >= -1e-9))
            gaps[k, idx] = (diffs.mean(), _paired_se(diffs))
            details.append(
                f"S1 K={k}: {s1.architectures[idx].value} - proposed "
                f"mean {gaps[k, idx][0]:.2f} se {gaps[k, idx][1]:.3f} "
                f"min {diffs.min():.2f} dB")

    converge_ok = True
    mean_8, se_8 = gaps[8, lin_idx]
    for k in users:
        if k < 16:
            continue
        mean_k, se_k = gaps[k, lin_idx]
        drop = mean_8 - mean_k
        band = 2 * math.sqrt(se_8 ** 2 + se_k ** 2)
        converge_ok &= bool(drop > band)
        details.append(f"S1 K={k}: LinTxLinRx gap below K=8 by {drop:.2f} "
                       f"dB vs band {band:.3f} dB")

    below_ok = True
    for p, k in enumerate(users):
        prop_m = s3.mean_power_db[p][0]
        lin_m = s3.mean_power_db[p][lin_idx]
        if not prop_m < lin_m:
            below_ok = False
        details.append(f"S3 K={k}: proposed {prop_m:.2f} vs "
                       f"linear {lin_m:.2f} dB")
    elapsed = time.monotonic() - start
    ok = order_ok and converge_ok and below_ok and elapsed < 900
    verdict(7, "S1/S3 power-vs-K shape: S1 ThpTx and LinTxLinRx never "
               "below proposed per drop, LinTxLinRx gap below its K=8 value "
               "by > 2 paired SE for K>=16; S3 proposed strictly below "
               "linear", ok,
            "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok


# --------------------------------------------------------------------------
# Criterion 8: deterministic CSV output across worker counts
# --------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    outputs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}.csv"
        code = main(["sweep", "--scenario", "S2", "--rho", "0.25,0.5",
                     "--drops", "5", "--seed", "17", "--arch", "all",
                     "--workers", workers, "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    rerun = tmp_path / "rerun.csv"
    main(["sweep", "--scenario", "S2", "--rho", "0.25,0.5", "--drops", "5",
          "--seed", "17", "--arch", "all", "--workers", "1",
          "--out", str(rerun)])
    ok = outputs[0] == outputs[1] == rerun.read_bytes()
    verdict(8, "identical seeds give byte-identical CSV across worker "
               "counts and reruns", ok,
            f"{len(outputs[0])} bytes compared")
    assert ok
