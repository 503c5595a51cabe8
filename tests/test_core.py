"""Schedule construction and runner behaviour."""
import math

import numpy as np
import pytest

from chebiter import (
    DimensionError,
    EigenRange,
    FixedPointMap,
    InertialSchedule,
    InvalidInput,
    InvalidRange,
    NonFiniteValue,
    StopCriteria,
    StopReason,
    chebyshev_roots,
    chebyshev_schedule,
    constant_sor_schedule,
    inertial_step,
    plain_schedule,
    run_inertial,
)


# Values below were computed independently with 40-digit arithmetic and
# rounded to double precision.
Z_01_09_T2 = [0.78284271247461901, 0.21715728752538099]
W_01_09_T2 = [1.2773958089728294, 4.6049571322036412]


def affine_map(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return FixedPointMap(dim=len(b), eval=lambda x: A @ x + b, name="affine")


class TestEigenRange:
    def test_basic_properties(self):
        r = EigenRange(0.1, 0.9)
        assert r.center == 0.5
        assert r.halfwidth == pytest.approx(0.4)
        assert r.width == pytest.approx(0.8)

    def test_degenerate_interval_allowed(self):
        r = EigenRange(0.7, 0.7)
        assert r.halfwidth == 0.0

    def test_rejects_reversed(self):
        with pytest.raises(InvalidRange):
            EigenRange(0.9, 0.1)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidRange):
            EigenRange(0.1, math.inf)
        with pytest.raises(InvalidRange):
            EigenRange(math.nan, 0.9)

    def test_accepts_any_finite_ordered_interval(self):
        r = EigenRange(-0.1, 2.3)
        assert (r.a, r.b) == (-0.1, 2.3)
        r = EigenRange(0.1, 2.0)
        assert (r.a, r.b) == (0.1, 2.0)

    def test_clipped_lifts_ends_to_positive(self):
        r = EigenRange(-0.5, 2.5).clipped()
        assert (r.a, r.b) == (1e-6, 2.5)
        r = EigenRange(-0.5, -0.1).clipped()
        assert (r.a, r.b) == (1e-6, 1e-6)
        inner = EigenRange(0.3, 0.8).clipped()
        assert (inner.a, inner.b) == (0.3, 0.8)


class TestChebyshevRoots:
    def test_reference_values_period_2(self):
        z = chebyshev_roots(EigenRange(0.1, 0.9), 2)
        assert z.tolist() == pytest.approx(Z_01_09_T2, rel=1e-15)

    def test_roots_live_in_range_and_decrease(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.uniform(0.01, 0.9)
            b = a + rng.uniform(0.01, 1.9 - a)
            T = int(rng.integers(1, 40))
            z = chebyshev_roots(EigenRange(a, b), T)
            assert z.shape == (T,)
            assert np.all(z >= a - 1e-15) and np.all(z <= b + 1e-15)
            assert np.all(np.diff(z) < 0) or T == 1

    def test_midpoint_hit_exactly_for_odd_period(self):
        r = EigenRange(0.2, 1.2)
        for T in (1, 3, 5, 9):
            z = chebyshev_roots(r, T)
            assert z[T // 2] == r.center

    def test_period_one_is_interval_center(self):
        z = chebyshev_roots(EigenRange(0.1, 0.9), 1)
        assert z.tolist() == [0.5]

    def test_rejects_bad_period(self):
        with pytest.raises(InvalidInput):
            chebyshev_roots(EigenRange(0.1, 0.9), 0)


class TestChebyshevSchedule:
    def test_reference_factors_period_2(self):
        s = chebyshev_schedule(EigenRange(0.1, 0.9), 2)
        assert list(s.factors) == pytest.approx(W_01_09_T2, rel=1e-15)
        assert s.period == 2
        assert s.range == EigenRange(0.1, 0.9)

    def test_factors_bracketed_by_reciprocal_endpoints(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(0.01, 0.9)
            b = a + rng.uniform(0.01, 1.9 - a)
            T = int(rng.integers(1, 30))
            s = chebyshev_schedule(EigenRange(a, b), T)
            w = np.asarray(s.factors)
            assert np.all(w >= 1.0 / b - 1e-12)
            assert np.all(w <= 1.0 / a + 1e-12)
            assert np.all(np.diff(w) > 0) or T == 1

    def test_period_one_matches_constant_sor_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = rng.uniform(1e-4, 1.0)
            b = a + rng.uniform(1e-4, 1.99 - a)
            r = EigenRange(a, b)
            w_cheb = chebyshev_schedule(r, 1).factors[0]
            w_sor = constant_sor_schedule(r).factors[0]
            assert w_cheb == w_sor

    def test_requires_positive_lower_endpoint(self):
        with pytest.raises(InvalidRange):
            chebyshev_schedule(EigenRange(0.0, 0.9), 4)

    def test_permutation_reorders_within_period(self):
        r = EigenRange(0.1, 0.9)
        base = chebyshev_schedule(r, 4)
        perm = [3, 1, 0, 2]
        s = chebyshev_schedule(r, 4, permutation=perm)
        assert list(s.factors) == [base.factors[i] for i in perm]
        with pytest.raises(InvalidInput):
            chebyshev_schedule(r, 4, permutation=[0, 1, 2, 2])


class TestConstantSor:
    def test_reference_value(self):
        # 2 / (0.6766 + 1.922), checked against 40-digit arithmetic.
        s = constant_sor_schedule(EigenRange(0.6766, 1.922))
        assert s.factors[0] == 0.76964519356576618

    def test_accepts_negative_a_when_sum_positive(self):
        s = constant_sor_schedule(EigenRange(-0.5, 1.5))
        assert s.factors[0] == 2.0

    def test_rejects_nonpositive_sum(self):
        with pytest.raises(InvalidRange):
            constant_sor_schedule(EigenRange(-1.0, 1.0))


class TestInertialSchedule:
    def test_factor_at_wraps(self):
        s = InertialSchedule(period=3, factors=(1.0, 2.0, 3.0))
        assert [s.factor_at(k) for k in range(7)] == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]

    def test_rejects_mismatched_length(self):
        with pytest.raises(InvalidInput):
            InertialSchedule(period=2, factors=(1.0,))

    def test_rejects_nonfinite_factor(self):
        with pytest.raises(NonFiniteValue):
            InertialSchedule(period=1, factors=(math.inf,))

    def test_rejects_negative_index(self):
        s = plain_schedule()
        with pytest.raises(InvalidInput):
            s.factor_at(-1)

    def test_plain_schedule_is_all_ones(self):
        s = plain_schedule()
        assert s.period == 1 and s.factors == (1.0,)


class TestInertialStep:
    def test_omega_one_is_plain_application(self):
        m = affine_map([[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0])
        x = np.array([4.0, 8.0])
        out = inertial_step(m, x, 1.0)
        assert np.array_equal(out, m(x))

    def test_omega_zero_is_identity_copy(self):
        m = affine_map([[0.5]], [0.0])
        x = np.array([3.0])
        out = inertial_step(m, x, 0.0)
        assert np.array_equal(out, x)
        assert out is not x

    def test_general_combination(self):
        m = affine_map([[0.0]], [10.0])
        out = inertial_step(m, np.array([2.0]), 0.25)
        assert out[0] == pytest.approx(0.75 * 2.0 + 0.25 * 10.0)

    def test_dimension_mismatch_raises(self):
        m = affine_map([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0])
        with pytest.raises(DimensionError):
            inertial_step(m, np.array([1.0]), 1.0)
        bad = FixedPointMap(dim=2, eval=lambda x: np.zeros(3))
        with pytest.raises(DimensionError):
            inertial_step(bad, np.zeros(2), 1.0)

    def test_nonfinite_output_raises(self):
        m = FixedPointMap(dim=1, eval=lambda x: x * np.inf)
        with pytest.raises(NonFiniteValue):
            inertial_step(m, np.array([1.0]), 1.0)
        with pytest.raises(NonFiniteValue):
            inertial_step(m, np.array([1.0]), math.nan)

    @pytest.mark.filterwarnings("error")
    def test_finiteness_check_raises_no_warning(self):
        # The check scans the entries: a screen such as isfinite(y.dot(y))
        # overflows, with a RuntimeWarning, on entries as large as these.
        big = FixedPointMap(dim=3, eval=lambda x: np.full(3, 1e200))
        for omega in (1.0, 0.5):
            assert np.array_equal(inertial_step(big, np.full(3, 1e200), omega), np.full(3, 1e200))
        inf = FixedPointMap(dim=3, eval=lambda x: np.array([1e200, np.inf, 1.0]))
        for omega in (1.0, 0.5):
            with pytest.raises(NonFiniteValue):
                inertial_step(inf, np.full(3, 1e200), omega)


class TestRunInertial:
    def test_all_ones_schedule_matches_plain_iteration_bitwise(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 6)) * 0.1
        b = rng.normal(size=6)
        m = affine_map(A, b)
        ones = InertialSchedule(period=4, factors=(1.0, 1.0, 1.0, 1.0))
        x0 = rng.normal(size=6)

        x = x0.copy()
        manual = [x.copy()]
        for _ in range(25):
            x = m(x)
            manual.append(x.copy())

        tr = run_inertial(m, ones, x0, StopCriteria(max_iters=25), store_iterates=True)
        assert tr.steps == 25
        for got, want in zip(tr.iterates, manual):
            assert np.array_equal(got, want)

    def test_identity_map_stops_after_one_step(self):
        m = FixedPointMap(dim=2, eval=lambda x: x.copy())
        x0 = np.array([1.0, -2.0])
        tr = run_inertial(m, plain_schedule(), x0, StopCriteria(max_iters=50))
        assert tr.steps == 1
        assert tr.converged
        assert tr.stop_reason is StopReason.TOLERANCE
        assert np.array_equal(tr.x_final, x0)

    def test_fixed_point_preserved_and_errors_shrink(self):
        # Contractive affine map with known fixed point x* = (I - A)^{-1} b.
        rng = np.random.default_rng(9)
        A = np.diag([0.3, 0.5, 0.7])
        b = rng.normal(size=3)
        x_star = np.linalg.solve(np.eye(3) - A, b)
        m = affine_map(A, b)
        sched = chebyshev_schedule(EigenRange(0.3, 0.7), 4)
        tr = run_inertial(m, sched, np.zeros(3), StopCriteria(max_iters=40), x_ref=x_star)
        assert len(tr.errors) == tr.steps + 1
        assert tr.errors[-1] < 1e-12 * max(1.0, tr.errors[0])
        # step_tol=0 still stops once the iterate is exactly stationary
        assert tr.stop_reason in (StopReason.MAX_ITERS, StopReason.TOLERANCE)
        # at multiples of the period the error must not grow (ulp slack at
        # the rounding floor, scaled by the fixed point magnitude)
        floor = 1e-14 * np.linalg.norm(x_star)
        for k in range(4, tr.steps + 1, 4):
            assert tr.errors[k] <= tr.errors[k - 4] + floor

    def test_factors_used_follow_schedule(self):
        m = affine_map(np.eye(2) * 0.5, np.zeros(2))
        sched = InertialSchedule(period=3, factors=(1.0, 1.5, 0.5))
        tr = run_inertial(m, sched, np.ones(2), StopCriteria(max_iters=7))
        assert tr.factors_used.tolist() == [1.0, 1.5, 0.5, 1.0, 1.5, 0.5, 1.0]

    def test_reference_defaults_to_final_iterate(self):
        m = affine_map(np.eye(1) * 0.5, np.array([1.0]))
        tr = run_inertial(m, plain_schedule(), np.zeros(1), StopCriteria(max_iters=30))
        assert tr.x_ref_was_final
        assert tr.errors[-1] == 0.0
        assert tr.errors[0] == pytest.approx(np.linalg.norm(tr.x_final - np.zeros(1)))

    def test_divergence_by_threshold_drops_offending_step(self):
        m = affine_map(np.eye(1) * 3.0, np.zeros(1))
        tr = run_inertial(
            m,
            plain_schedule(),
            np.ones(1),
            StopCriteria(max_iters=200, divergence_threshold=1e6),
            x_ref=np.zeros(1),
        )
        assert tr.stop_reason is StopReason.DIVERGENCE
        assert not tr.converged
        assert tr.steps < 200
        assert np.all(np.isfinite(tr.errors))
        assert len(tr.errors) == tr.steps + 1
        # the trace ends at the last iterate still inside the threshold
        assert np.linalg.norm(tr.x_final) <= 1e6
        assert tr.errors[-1] == pytest.approx(np.linalg.norm(tr.x_final))

    @pytest.mark.filterwarnings("error")
    def test_divergence_by_overflow_keeps_finite_errors(self):
        def blow_up(x):
            return x * 1e200

        m = FixedPointMap(dim=1, eval=blow_up)
        tr = run_inertial(
            m,
            plain_schedule(),
            np.ones(1),
            StopCriteria(max_iters=10),
            x_ref=np.zeros(1),
        )
        assert tr.stop_reason is StopReason.DIVERGENCE
        assert tr.steps == 0
        assert np.all(np.isfinite(tr.errors))
        assert len(tr.errors) == tr.steps + 1

    def test_nonfinite_inputs_rejected(self):
        m = affine_map(np.eye(1) * 0.5, np.zeros(1))
        with pytest.raises(NonFiniteValue):
            run_inertial(m, plain_schedule(), np.array([np.nan]), StopCriteria(max_iters=5))
        with pytest.raises(NonFiniteValue):
            run_inertial(
                m,
                plain_schedule(),
                np.ones(1),
                StopCriteria(max_iters=5),
                x_ref=np.array([np.inf]),
            )

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 4)) * 0.2
        m = affine_map(A, rng.normal(size=4))
        sched = chebyshev_schedule(EigenRange(0.5, 1.5), 8)
        x0 = rng.normal(size=4)
        t1 = run_inertial(m, sched, x0, StopCriteria(max_iters=64), x_ref=np.zeros(4))
        t2 = run_inertial(m, sched, x0, StopCriteria(max_iters=64), x_ref=np.zeros(4))
        assert np.array_equal(t1.errors, t2.errors)
        assert np.array_equal(t1.x_final, t2.x_final)

    def test_step_tolerance_stop(self):
        m = affine_map(np.eye(1) * 0.5, np.array([1.0]))
        tr = run_inertial(
            m, plain_schedule(), np.zeros(1), StopCriteria(max_iters=500, step_tol=1e-9)
        )
        assert tr.converged
        assert tr.stop_reason is StopReason.TOLERANCE
        assert tr.steps < 60

    def test_error_target_stops_at_first_hit(self):
        A = np.diag([0.3, 0.5, 0.7])
        b = np.array([1.0, -2.0, 0.5])
        x_star = np.linalg.solve(np.eye(3) - A, b)
        m = affine_map(A, b)
        sched = chebyshev_schedule(EigenRange(0.3, 0.7), 4)
        full = run_inertial(m, sched, np.zeros(3), StopCriteria(max_iters=40), x_ref=x_star)
        target = float(full.errors[9])
        hit = int(np.nonzero(full.errors <= target)[0][0])
        tr = run_inertial(
            m, sched, np.zeros(3), StopCriteria(max_iters=40, error_target=target), x_ref=x_star
        )
        assert tr.stop_reason is StopReason.TARGET
        assert tr.converged
        assert tr.steps == hit
        assert len(tr.errors) == tr.steps + 1
        assert np.array_equal(tr.errors, full.errors[: hit + 1])
        cut = run_inertial(m, sched, np.zeros(3), StopCriteria(max_iters=hit), x_ref=x_star)
        assert np.array_equal(tr.x_final, cut.x_final)

    def test_unreached_error_target_runs_full_budget(self):
        m = affine_map(np.eye(2) * 0.5, np.zeros(2))
        tr = run_inertial(
            m,
            plain_schedule(),
            np.ones(2),
            StopCriteria(max_iters=20, error_target=1e-12),
            x_ref=np.zeros(2),
        )
        assert tr.stop_reason is StopReason.MAX_ITERS
        assert not tr.converged
        assert tr.steps == 20
        assert tr.errors[-1] > 1e-12

    def test_error_target_needs_reference(self):
        m = affine_map(np.eye(1) * 0.5, np.zeros(1))
        with pytest.raises(InvalidInput):
            run_inertial(
                m, plain_schedule(), np.ones(1), StopCriteria(max_iters=5, error_target=0.1)
            )

    def test_stop_criteria_validation(self):
        with pytest.raises(InvalidInput):
            StopCriteria(max_iters=0)
        with pytest.raises(InvalidInput):
            StopCriteria(max_iters=5, step_tol=-1.0)
        with pytest.raises(InvalidInput):
            StopCriteria(max_iters=5, divergence_threshold=0.0)
        with pytest.raises(InvalidInput):
            StopCriteria(max_iters=5, divergence_threshold=math.inf)
        for bad in (-1e-9, math.nan, math.inf):
            with pytest.raises(InvalidInput):
                StopCriteria(max_iters=5, error_target=bad)
        assert StopCriteria(max_iters=5, error_target=0.0).error_target == 0.0
        for bad in (5.0, 5.7, "5"):
            with pytest.raises(InvalidInput):
                StopCriteria(max_iters=bad)
        stop = StopCriteria(max_iters=np.int64(5))
        assert stop.max_iters == 5 and type(stop.max_iters) is int
