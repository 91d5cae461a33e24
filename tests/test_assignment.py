import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thpalloc
from oracles import brute_force_assignment, reference_solve_assignment
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

    @settings(max_examples=50)
    @given(data=st.data(), n_sub=st.integers(1, 8), n_users=st.integers(1, 5))
    def test_counting_names_every_short_user(self, data, n_sub, n_users):
        # a user with fewer usable subcarriers than its quota blocks
        usable = np.array(data.draw(st.lists(
            st.booleans(), min_size=n_sub * n_users,
            max_size=n_sub * n_users))).reshape(n_sub, n_users)
        quotas = data.draw(st.lists(st.integers(0, 3), min_size=n_users,
                                    max_size=n_users))
        short = [k for k in range(n_users)
                 if np.count_nonzero(usable[:, k]) < quotas[k]]
        costs = np.where(usable, 1.0, math.inf)
        if short:
            with pytest.raises(InfeasibleAssignmentError) as exc:
                solve_assignment(costs, quotas)
            assert exc.value.blocking_users == short
            assert all(type(k) is int for k in exc.value.blocking_users)

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


def solve_outcome(costs, quotas):
    """solve_assignment's allocation and total, or its blocking users,
    in a form that crosses a process boundary."""
    try:
        res = solve_assignment(costs, quotas)
    except InfeasibleAssignmentError as exc:
        return None, exc.blocking_users
    return res.a, res.total_cost


@pytest.fixture(scope="module")
def in_child():
    """fn(*args) run in a spawned worker process: a call that outlasts
    its timeout fails, and the stuck worker is replaced, so a case that
    hangs the solver fails instead of stalling the suite."""
    context = multiprocessing.get_context("spawn")
    pools = [context.Pool(1)]

    def call(fn, *args, timeout=20.0):
        try:
            return pools[-1].apply_async(fn, args).get(timeout)
        except multiprocessing.TimeoutError:
            pools[-1].terminate()
            pools.append(context.Pool(1))
            raise

    yield call
    pools[-1].terminate()


@st.composite
def tie_heavy_cases(draw):
    """Small (N, U) cost matrices drawn from at most three levels in
    [1e-3, 1e2] (so many ties), +inf entries and whole blocked
    (subcarrier, user) rectangles; about half of them are feasible."""
    n_sub = draw(st.integers(1, 8))
    n_users = draw(st.integers(1, 4))
    quotas = draw(st.lists(st.integers(0, 3), min_size=n_users,
                           max_size=n_users).filter(lambda q: sum(q) <= 10))
    levels = draw(st.lists(st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e),
                           min_size=1, max_size=3))
    entries = st.one_of(st.sampled_from(levels), st.just(math.inf))
    costs = np.array(draw(st.lists(entries, min_size=n_sub * n_users,
                                   max_size=n_sub * n_users)))
    costs = costs.reshape(n_sub, n_users)
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, n_sub - 1), max_size=n_sub))
        users = draw(st.lists(st.integers(0, n_users - 1), max_size=n_users))
        costs[np.ix_(rows, users)] = math.inf
    return costs, quotas


class TestDifferentialFuzz:
    @settings(max_examples=300)
    @given(case=tie_heavy_cases())
    def test_matches_brute_force(self, in_child, case):
        # the exact solver against exhaustive search: equal feasibility
        # and optimal total cost, a valid allocation, and blocking users
        # only where the search finds no allocation
        costs, quotas = case
        a, outcome = in_child(solve_outcome, costs, quotas)
        try:
            oracle = brute_force_assignment(costs, quotas)
        except InfeasibleAssignmentError:
            assert a is None
            assert outcome and set(outcome) <= set(range(len(quotas)))
            return
        assert a is not None, f"solver blocked users {outcome}"
        check_constraints(Assignment(a=a, total_cost=outcome), costs, quotas)
        assert outcome == pytest.approx(oracle.total_cost, rel=1e-12,
                                        abs=1e-12)


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


def slot_matrix(costs, quotas):
    """The unreduced (slots x subcarriers) LSAP matrix of a group."""
    costs = np.where(np.isfinite(costs), costs, math.inf)
    return costs[:, np.repeat(np.arange(len(quotas)), quotas)].T


def scipy_outcome(costs, quotas):
    """scipy.optimize.linear_sum_assignment on the unreduced slot matrix:
    the allocation and its total, or None where scipy finds no finite
    matching."""
    from scipy.optimize import linear_sum_assignment
    cols = np.repeat(np.arange(len(quotas)), quotas)
    try:
        slots, rows = linear_sum_assignment(slot_matrix(costs, quotas))
    except ValueError:
        return None, None
    a = np.zeros(costs.shape, dtype=np.uint8)
    a[rows, cols[slots]] = 1
    return a, float(costs[rows, cols[slots]].sum())


@st.composite
def group_matrices(draw):
    """(N, U) matrices up to S1's 64 subcarriers and 16 users, with the
    slots filling every subcarrier or leaving some idle, costs
    10**U(-5, 3), and none, scattered, whole-row or whole-block +inf
    entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_users = draw(st.integers(1, 16))
    quotas = [int(q) for q in rng.integers(1, 5, n_users)]
    n_sub = min(64, sum(quotas) + draw(st.sampled_from([0, 0, 1, 4, 16])))
    while sum(quotas) > n_sub:
        quotas[int(np.argmax(quotas))] -= 1
    costs = 10.0 ** rng.uniform(-5.0, 3.0, (n_sub, n_users))
    pattern = draw(st.sampled_from(["none", "scattered", "rows", "block"]))
    if pattern == "scattered":
        costs[rng.uniform(size=costs.shape) < 0.3] = math.inf
    elif pattern == "rows":
        costs[rng.uniform(size=n_sub) < 0.1] = math.inf
    elif pattern == "block":
        costs[np.ix_(rng.uniform(size=n_sub) < 0.6,
                     rng.uniform(size=n_users) < 0.5)] = math.inf
    return costs, quotas


class TestReducedLsap:
    @settings(max_examples=200)
    @given(case=group_matrices())
    def test_matches_scipy_on_unreduced_slots(self, in_child, case):
        # the pre-reduced solve against scipy's solve of the unreduced
        # slot matrix: equal feasibility, allocation and total
        costs, quotas = case
        want_a, want_total = in_child(scipy_outcome, costs, quotas)
        a, outcome = in_child(solve_outcome, costs, quotas)
        if want_a is None:
            assert a is None and outcome
            return
        assert a is not None, f"solver blocked users {outcome}"
        np.testing.assert_array_equal(a, want_a)
        assert outcome == pytest.approx(want_total, rel=1e-12)

    @settings(max_examples=100)
    @given(case=group_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_row_and_column_constants_keep_allocation(self, case, seed):
        # a constant per user moves every allocation's total alike, and
        # so does one per subcarrier when the slots fill every subcarrier
        costs, quotas = case
        try:
            base = solve_assignment(costs, quotas)
        except InfeasibleAssignmentError:
            return
        rng = np.random.default_rng(seed)
        shifted = costs + rng.uniform(0.0, 100.0, len(quotas))
        if sum(quotas) == costs.shape[0]:
            shifted += rng.uniform(0.0, 100.0, (costs.shape[0], 1))
        np.testing.assert_array_equal(
            solve_assignment(shifted, quotas).a, base.a)

    def test_square_with_infinite_row_names_blocking_user(self):
        # 24 slots on 24 subcarriers, one of them unusable by all: the
        # reduced +inf row stays +inf, and the Hall path names one user
        n_sub = assignment._REDUCE_FROM
        costs = np.random.default_rng(5).uniform(1.0, 9.0, (n_sub, 6))
        costs[3] = math.inf
        with pytest.raises(InfeasibleAssignmentError) as exc:
            solve_assignment(costs, [n_sub // 6] * 6)
        assert len(exc.value.blocking_users) == 1
        assert exc.value.blocking_users[0] in range(6)

    def test_zero_quota_user_with_no_usable_subcarrier(self):
        # an all-+inf column with no slots must not turn the reduced
        # matrix into NaN, which would send a feasible group to the
        # 0/1 Hall solve and lose the optimum
        n_sub = assignment._REDUCE_FROM
        costs = np.random.default_rng(6).uniform(1.0, 9.0, (n_sub, 3))
        costs[:, 2] = math.inf
        quotas = [n_sub // 2, n_sub // 2, 0]
        want_a, want_total = scipy_outcome(costs, quotas)
        res = solve_assignment(costs, quotas)
        check_constraints(res, costs, quotas)
        np.testing.assert_array_equal(res.a, want_a)
        assert res.total_cost == pytest.approx(want_total, rel=1e-12)


@st.composite
def dual_start_groups(draw):
    """(N, U) groups of at least _REDUCE_FROM slots, up to S1's 64
    subcarriers and 16 users: square or with idle subcarriers, quotas
    of 0 to 8 (some users 0), costs 10**U(-5, 3), and none, scattered,
    whole-row, block or zero-quota-column +inf entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_users = draw(st.integers(2, 16))
    quotas = rng.integers(1, 9, n_users)
    if draw(st.booleans()):
        quotas[rng.uniform(size=n_users) < 0.3] = 0
        quotas[0] = max(quotas[0], 1)
    while quotas.sum() < assignment._REDUCE_FROM:
        quotas[rng.choice(quotas.nonzero()[0])] += 1
    while quotas.sum() > 64:
        quotas[int(np.argmax(quotas))] -= 1
    spare = draw(st.sampled_from([0, 0, 1, 4, 16]))
    n_sub = min(64, int(quotas.sum()) + spare)
    costs = 10.0 ** rng.uniform(-5.0, 3.0, (n_sub, n_users))
    pattern = draw(st.sampled_from(
        ["none", "scattered", "rows", "block", "idle users"]))
    if pattern == "scattered":
        costs[rng.uniform(size=costs.shape) < 0.3] = math.inf
    elif pattern == "rows":
        costs[rng.uniform(size=n_sub) < 0.1] = math.inf
    elif pattern == "block":
        costs[np.ix_(rng.uniform(size=n_sub) < 0.6,
                     rng.uniform(size=n_users) < 0.5)] = math.inf
    elif pattern == "idle users":
        costs[:, quotas == 0] = math.inf
    return costs, quotas.tolist()


class TestDualStart:
    @settings(max_examples=150, derandomize=True)
    @given(case=dual_start_groups())
    def test_quota_order_shift_matches_unreduced_scipy(self, case):
        # the quota-th cheapest cost off each user's column (then the
        # least off each row of a square group) is a constant per user
        # and per subcarrier: scipy's solve of the unreduced slot matrix
        # gives the same allocation, and no inf - inf reaches the core
        costs, quotas = case
        assert sum(quotas) >= assignment._REDUCE_FROM
        handed = []
        solve = assignment._linear_sum_assignment()

        def spy(matrix):
            handed.append(np.array(matrix))
            return solve(matrix)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assignment, "_linear_sum_assignment", lambda: spy)
            a, outcome = solve_outcome(costs, quotas)
        want_a, want_total = scipy_outcome(costs, quotas)
        assert not any(np.isnan(m).any() for m in handed)
        if want_a is None:
            assert a is None and outcome
            return
        assert a is not None, f"solver blocked users {outcome}"
        assert len(handed) == 1 and np.isfinite(handed[0]).any()
        np.testing.assert_array_equal(a, want_a)
        assert outcome == pytest.approx(want_total, rel=1e-12)


@st.composite
def reference_cases(draw):
    """(N, U) groups of 1 to 64 slots, quotas 0 to 8 (some 0), as a
    tuple, list or array: slots filling every subcarrier, leaving some
    idle, or exceeding N, or one quota above N; costs 10**U(-5, 3) or
    three tied levels, all finite or with scattered, whole-row or
    whole-column +inf, NaN or -inf entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_users = draw(st.integers(1, 16))
    quotas = rng.integers(0, 9, n_users)
    if draw(st.booleans()):
        quotas[rng.uniform(size=n_users) < 0.3] = 0
    while quotas.sum() > 64:
        quotas[int(np.argmax(quotas))] -= 1
    slots = int(quotas.sum())
    fit = draw(st.sampled_from(
        ["square", "square", "idle", "idle", "over", "big quota"]))
    n_sub = max(1, {"square": slots, "idle": slots + draw(st.sampled_from(
        [1, 4, 16])), "over": slots - draw(st.integers(1, 4)),
        "big quota": slots}[fit])
    if fit == "big quota":
        quotas[rng.integers(n_users)] = n_sub + 1
    costs = (10.0 ** rng.uniform(-5.0, 3.0, (n_sub, n_users))
             if draw(st.booleans()) else
             rng.choice([0.5, 1.0, 2.0], (n_sub, n_users)))
    value = draw(st.sampled_from([math.inf, math.nan, -math.inf]))
    pattern = draw(st.sampled_from(
        ["finite", "finite", "scattered", "rows", "columns"]))
    if pattern == "scattered":
        costs[rng.uniform(size=costs.shape) < 0.2] = value
    elif pattern == "rows":
        costs[rng.integers(n_sub)] = value
    elif pattern == "columns":
        costs[:, rng.integers(n_users)] = value
    kind = draw(st.sampled_from([tuple, list, np.asarray]))
    return costs, kind(quotas.tolist())


def outcome_bytes(solve, costs, quotas):
    """The allocation's dtype, shape and bytes and the total's bits, or
    the exception's type, message and blocking users."""
    try:
        res = solve(costs, quotas)
    except InfeasibleAssignmentError as exc:
        return type(exc), str(exc), exc.blocking_users
    except ValueError as exc:
        return type(exc), str(exc)
    return res.a.dtype, res.a.shape, res.a.tobytes(), res.total_cost.hex()


class TestSlotTables:
    @settings(max_examples=400, derandomize=True)
    @given(case=reference_cases())
    def test_matches_reference_wrapper(self, case):
        # cached tables and the all-finite path change nothing: the same
        # allocation bytes and total bits, or the same exception, message
        # and blocking users, as the wrapper that counts, masks and
        # guards every matrix
        costs, quotas = case
        assert (outcome_bytes(solve_assignment, costs, quotas)
                == outcome_bytes(reference_solve_assignment, costs, quotas))

    def test_tables_are_read_only_and_shared(self):
        quotas, cols, kth, axes, fits = assignment._slot_tables((3, 0, 2), 5)
        assert (quotas.tolist(), cols.tolist(), kth.tolist()) == (
            [3, 0, 2], [0, 0, 0, 2, 2], [6, 1, 5])
        assert axes == () and fits
        for table in (quotas, cols, kth):
            with pytest.raises(ValueError):
                table[0] = 1
        assert assignment._slot_tables((3, 0, 2), 5)[1] is cols
        assert assignment._slot_tables.cache_info().maxsize is not None
        assert assignment._slot_tables((12, 12), 24)[3:] == ((0, 1), True)
        assert assignment._slot_tables((12, 12), 30)[3:] == ((0,), True)
        assert assignment._slot_tables((12, 13), 24)[3:] == ((0,), False)
