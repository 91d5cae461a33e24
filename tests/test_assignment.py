import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thpalloc
from oracles import brute_force_assignment
from thpalloc import assignment
from thpalloc.assignment import (Assignment, InfeasibleAssignmentError,
                                 solve_assignment)


def check_constraints(result: Assignment, costs, quotas):
    a = result.a
    for k, q in enumerate(quotas):
        assert a[:, k].sum() == q
    assert np.all(a.sum(axis=1) <= 1)
    used = a.astype(bool)
    assert np.all(np.isfinite(np.asarray(costs)[used]))
    total = float(np.asarray(costs)[used].sum())
    assert result.total_cost == pytest.approx(total, abs=1e-12)


class TestSolveAssignment:
    def test_two_by_two_matching(self):
        costs = np.array([[1.0, 3.0], [2.0, 1.0]])
        res = solve_assignment(costs, [1, 1])
        np.testing.assert_array_equal(res.a, np.eye(2, dtype=np.uint8))
        assert res.total_cost == pytest.approx(2.0)

    def test_forced_solution(self):
        costs = np.array([[4.0], [7.0]])
        res = solve_assignment(costs, [2])
        assert res.a[:, 0].tolist() == [1, 1]
        assert res.total_cost == pytest.approx(11.0)

    def test_counting_infeasibility(self):
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(np.ones((2, 2)), [2, 1])

    def test_finite_entry_infeasibility_names_user(self):
        costs = np.array([[1.0, math.inf], [2.0, math.inf]])
        with pytest.raises(InfeasibleAssignmentError) as exc:
            solve_assignment(costs, [1, 1])
        assert exc.value.blocking_users == [1]

    def test_hall_violation_names_one_blocking_user(self):
        # every user has a usable subcarrier, but users 0 and 1 share
        # their only one: counting passes and the solve itself fails
        costs = np.array([[1.0, 2.0, 3.0],
                          [math.inf, math.inf, 1.0],
                          [math.inf, math.inf, 2.0]])
        with pytest.raises(InfeasibleAssignmentError) as exc:
            solve_assignment(costs, [1, 1, 1])
        blocking = exc.value.blocking_users
        assert len(blocking) == 1 and blocking[0] in (0, 1)

    def test_infinite_entries_never_used(self):
        costs = np.array([[math.inf, 1.0], [5.0, math.inf], [7.0, 2.0]])
        res = solve_assignment(costs, [1, 1])
        check_constraints(res, costs, [1, 1])
        assert res.total_cost == pytest.approx(6.0)  # user0->sc1, user1->sc0

    def test_zero_costs_are_usable(self):
        costs = np.array([[0.0, 0.0], [0.0, math.inf], [5.0, 0.0]])
        res = solve_assignment(costs, [2, 1])
        check_constraints(res, costs, [2, 1])
        assert res.a[:, 1].tolist() == [0, 0, 1]
        assert res.total_cost == 0.0

    def test_constant_shift_property(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(1.0, 9.0, (6, 3))
        quotas = [2, 1, 2]
        base = solve_assignment(costs, quotas)
        shifted = costs.copy()
        shifted[:, 1] += 5.0
        after = solve_assignment(shifted, quotas)
        assert after.total_cost == pytest.approx(
            base.total_cost + quotas[1] * 5.0, rel=1e-9)
        np.testing.assert_array_equal(after.a, base.a)

    # small instances rarely tell a scale-invariant solver from one that
    # is not, so this cheap property draws more examples than the profile
    @settings(max_examples=100)
    @given(c=st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 20.0]),
           quotas=st.lists(st.integers(1, 3), min_size=1, max_size=4),
           spare=st.integers(0, 4), data=st.data())
    def test_scale_invariance(self, c, quotas, spare, data):
        # a common positive factor on every cost (a budget change in
        # the cost models) must not move the assignment
        n_sub = sum(quotas) + spare
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        finite = rng.uniform(0.01, 10.0, (n_sub, len(quotas)))
        costs = np.where(rng.uniform(size=finite.shape) < 0.3, math.inf,
                         finite)
        # keep one full placement finite, so Hall's condition holds
        slots = np.repeat(np.arange(len(quotas)), quotas)
        rows = rng.permutation(n_sub)[:slots.size]
        costs[rows, slots] = finite[rows, slots]
        base = solve_assignment(costs, quotas)
        scaled = solve_assignment(c * costs, quotas)
        np.testing.assert_array_equal(scaled.a, base.a)

    def test_matches_brute_force_batch(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n_sub = int(rng.integers(2, 9))
            n_users = int(rng.integers(1, 5))
            quotas = [int(q) for q in rng.integers(1, 4, n_users)]
            if sum(quotas) > n_sub:
                continue
            costs = rng.uniform(0.0, 10.0, (n_sub, n_users))
            costs[rng.uniform(size=costs.shape) < 0.15] = math.inf
            try:
                oracle = brute_force_assignment(costs, quotas)
            except InfeasibleAssignmentError:
                with pytest.raises(InfeasibleAssignmentError):
                    solve_assignment(costs, quotas)
                continue
            res = solve_assignment(costs, quotas)
            check_constraints(res, costs, quotas)
            assert res.total_cost == pytest.approx(oracle.total_cost,
                                                   abs=1e-9)

    def test_deterministic_ties(self):
        costs = np.ones((4, 2))
        a = solve_assignment(costs, [2, 2])
        b = solve_assignment(costs.copy(), [2, 2])
        np.testing.assert_array_equal(a.a, b.a)


def lsap_cases():
    """Rectangular (slots x subcarriers) matrices: random, tie-heavy,
    wide-range and with +inf patterns that leave a full matching."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        rows = int(rng.integers(1, 17))
        shape = (rows, rows + int(rng.integers(0, 9)))
        yield rng.uniform(0.0, 10.0, shape)
        yield rng.integers(0, 3, shape).astype(float)
        yield 10.0 ** rng.uniform(-3.0, 2.0, shape)
        costs = rng.uniform(0.0, 10.0, shape)
        costs[rng.uniform(size=shape) < 0.4] = math.inf
        costs[np.arange(rows), rng.permutation(shape[1])[:rows]] = 1.0
        yield costs


class TestSolver:
    def test_loaded_solver_is_scipys(self):
        from scipy.optimize import linear_sum_assignment
        solve = assignment._linear_sum_assignment()
        for costs in lsap_cases():
            got, want = solve(costs), linear_sum_assignment(costs)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_scipy_optimize_fallback(self, monkeypatch):
        # with no standalone extension found, scipy.optimize's function
        # solves, with the same assignments
        rng = np.random.default_rng(3)
        cases = []
        for _ in range(30):
            quotas = [int(q) for q in rng.integers(1, 4, 4)]
            costs = rng.uniform(0.0, 10.0, (sum(quotas) + 3, 4))
            costs[rng.uniform(size=costs.shape) < 0.2] = math.inf
            cases.append((costs, quotas))

        def solve_all():
            out = []
            for costs, quotas in cases:
                try:
                    out.append(solve_assignment(costs, quotas))
                except InfeasibleAssignmentError as exc:
                    out.append(exc.blocking_users)
            return out

        standalone = solve_all()
        assignment._linear_sum_assignment.cache_clear()
        monkeypatch.setattr(assignment, "EXTENSION_SUFFIXES", [])
        monkeypatch.delitem(sys.modules, assignment._LSAP, raising=False)
        try:
            from scipy.optimize import linear_sum_assignment
            assert assignment._linear_sum_assignment() is \
                linear_sum_assignment
            fallback = solve_all()
        finally:
            assignment._linear_sum_assignment.cache_clear()
        assert len(fallback) == len(standalone)
        for got, want in zip(fallback, standalone):
            if isinstance(want, list):
                assert got == want
            else:
                np.testing.assert_array_equal(got.a, want.a)
                assert got.total_cost == want.total_cost


def test_solve_imports_neither_csgraph_nor_scipy_optimize():
    # scipy.sparse and the scipy.optimize package cost tens of MB of
    # RSS; a solve loads only the compiled LSAP extension
    from importlib.util import find_spec
    optimize = os.path.join(
        find_spec("scipy").submodule_search_locations[0], "optimize")
    if not any(os.path.isfile(os.path.join(optimize, "_lsap" + suffix))
               for suffix in assignment.EXTENSION_SUFFIXES):
        pytest.skip("scipy ships no standalone _lsap extension")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(thpalloc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy as np, thpalloc.cli\n"
         "from thpalloc.assignment import solve_assignment\n"
         "solve_assignment(np.array([[1.0, 2.0], [3.0, 1.0]]), [1, 1])\n"
         "print(*(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "scipy.optimize._lsap" in loaded
    assert "scipy.optimize" not in loaded
    assert not [m for m in loaded if m.startswith("scipy.sparse")]


class TestBruteForce:
    def test_single_user_argmin(self):
        costs = np.array([[3.0], [1.0], [2.0]])
        res = brute_force_assignment(costs, [1])
        assert res.a[:, 0].tolist() == [0, 1, 0]

    def test_equal_costs_any_valid(self):
        costs = np.full((3, 2), 2.0)
        res = brute_force_assignment(costs, [1, 1])
        check_constraints(res, costs, [1, 1])
        assert res.total_cost == pytest.approx(4.0)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="too large"):
            brute_force_assignment(np.ones((11, 1)), [1])

    def test_no_feasible_assignment(self):
        costs = np.full((2, 2), math.inf)
        with pytest.raises(InfeasibleAssignmentError):
            brute_force_assignment(costs, [1, 1])
