"""Schedule construction and runner behaviour."""
import math
import warnings

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
    StopReason,
    chebyshev_roots,
    chebyshev_schedule,
    core,
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
    return FixedPointMap(dim=len(b), eval=lambda x: A @ x + b)


class TestEigenRange:
    def test_basic_properties(self):
        r = EigenRange(0.1, 0.9)
        assert r.center == 0.5
        assert r.halfwidth == pytest.approx(0.4)

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

    def test_endpoints_are_real_numbers(self):
        for bad in ("0.1", "x", b"0.1", True, np.bool_(False), None, 1j, [0.1]):
            with pytest.raises(InvalidInput, match="real number"):
                EigenRange(bad, 0.9)
            with pytest.raises(InvalidInput, match="real number"):
                EigenRange(0.0, bad)
        for a, b in ((0, 1), (np.int64(0), np.float32(0.5)), (np.float64(0.1), 0.9)):
            r = EigenRange(a, b)
            assert (r.a, r.b) == (float(a), float(b))
            assert type(r.a) is float and type(r.b) is float

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
        r = EigenRange(0.1, 0.9)
        with pytest.raises(InvalidInput):
            chebyshev_roots(r, 0)
        for bad in (2.5, 2.0, "2"):
            with pytest.raises(InvalidInput):
                chebyshev_roots(r, bad)
            with pytest.raises(InvalidInput):
                chebyshev_schedule(r, bad)
        s = chebyshev_schedule(r, np.int64(2))
        assert s.period == 2 and type(s.period) is int


class TestChebyshevSchedule:
    def test_reference_factors_period_2(self):
        s = chebyshev_schedule(EigenRange(0.1, 0.9), 2)
        assert list(s.factors) == pytest.approx(W_01_09_T2, rel=1e-15)
        assert s.period == 2

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
            assert chebyshev_schedule(EigenRange(a, b), 1).factors[0] == 2.0 / (a + b)
        # and on ranges spread over many decades, a down to 1e-8
        for _ in range(1000):
            a = 10.0 ** rng.uniform(-8.0, 0.0)
            b = a + 10.0 ** rng.uniform(-8.0, 1.0)
            assert chebyshev_schedule(EigenRange(a, b), 1).factors[0] == 2.0 / (a + b)

    def test_requires_positive_lower_endpoint(self):
        with pytest.raises(InvalidRange):
            chebyshev_schedule(EigenRange(0.0, 0.9), 4)

    def test_overflowing_factors_raise_typed_error(self):
        # 1 / 1e-320 overflows; the schedule's finite check reports it,
        # with no numpy warning first (the suite turns those into errors).
        with pytest.raises(NonFiniteValue):
            chebyshev_schedule(EigenRange(1e-320, 1e-320), 8)


class TestConstantSor:
    """The best constant factor 2 / (a + b), built as the period-1 schedule."""

    def test_reference_value(self):
        # 2 / (0.6766 + 1.922), checked against 40-digit arithmetic.
        s = chebyshev_schedule(EigenRange(0.6766, 1.922), 1)
        assert s.factors[0] == 0.76964519356576618


class TestFixedPointMap:
    def test_dimension_is_a_positive_integer(self):
        for bad in (0, -1, 2.5, 3.0, "3", True, np.bool_(True)):
            with pytest.raises(InvalidInput):
                FixedPointMap(dim=bad, eval=lambda x: x)
        m = FixedPointMap(dim=np.int64(3), eval=lambda x: x)
        assert m.dim == 3 and type(m.dim) is int


class TestInertialSchedule:
    def test_period_is_the_factor_count(self):
        with pytest.raises(InvalidInput, match="at least one factor"):
            InertialSchedule(factors=())
        s = InertialSchedule(factors=(1.0, 1.0))
        assert s.period == 2 and type(s.period) is int
        with pytest.raises(AttributeError):
            s.period = 3
        # a period is not stated apart from the factors, so it cannot disagree
        with pytest.raises(TypeError):
            InertialSchedule(period=2, factors=(1.0,))

    def test_rejects_nonfinite_factor(self):
        with pytest.raises(NonFiniteValue):
            InertialSchedule(factors=(math.inf,))

    def test_factors_are_real_numbers(self):
        for bad in ("1.5", b"1", True, np.bool_(True), None, 1j):
            with pytest.raises(InvalidInput, match="real number"):
                InertialSchedule(factors=(bad,))
        s = InertialSchedule(factors=(1, np.float32(0.5), np.int64(2)))
        assert s.factors == (1.0, 0.5, 2.0)
        assert all(type(w) is float for w in s.factors)

    def test_plain_schedule_is_all_ones(self):
        s = plain_schedule()
        assert s.period == 1 and s.factors == (1.0,)


class TestAlignedEmpty:
    def test_data_starts_on_cache_line(self):
        # Many small and large arrays, kept alive so the heap moves on.
        kept = []
        for shape in [(1,), (3,), (7, 5), (256, 256), (60, 784)] * 20:
            a = core._aligned_empty(shape)
            kept.append(a)
            assert a.shape == shape and a.dtype == np.float64
            assert a.flags.c_contiguous and a.flags.writeable
            assert a.ctypes.data % 64 == 0
        # no data to place, but the shape still holds
        assert core._aligned_empty((2, 0)).shape == (2, 0)


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

    def test_iterates_other_than_float_vectors_are_converted(self):
        m = affine_map([[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0])
        want = m(np.array([4.0, 8.0]))
        for x in ([4, 8], np.array([4, 8]), np.array([4.0, 8.0], dtype=np.float32),
                  np.array([4.0, 8.0], dtype=">f8"), np.array([4.0, 0.0, 8.0])[::2]):
            for omega in (1.0, 0.0):
                out = inertial_step(m, x, omega)
                assert type(out) is np.ndarray and out.dtype == np.float64
                assert out.tobytes() == (want if omega else np.asarray(x, float)).tobytes()
        listed = FixedPointMap(dim=2, eval=lambda x: [1, 2])
        assert inertial_step(listed, np.zeros(2), 1.0).tobytes() == np.array([1.0, 2.0]).tobytes()

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


def oracle_step(x, fx, w):
    """The textbook relaxed update, written as the paper states it."""
    return (1 - w) * x + w * fx


def recorded(fn, *args):
    """fn(*args) and the warnings it raised, as sorted (category, text)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except NonFiniteValue:
            out = None
    return out, sorted((w.category.__name__, str(w.message)) for w in caught)


class TestInertialStepBits:
    """The step matches the textbook update bit for bit, warning for warning."""

    OMEGAS = (-0.5, 1e-300, 0.3, 1.7, 2.5, 1e10)
    VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e200, -1e200, 0.7, -3.0, 1.0 / 3.0])
    # large enough that some factors overflow a product or the sum
    HUGE = np.array([1e308, -1e308, 1.5e308, 0.0, -0.0, 5e-324, 1.0])

    @staticmethod
    def step(x, fx, w):
        return inertial_step(FixedPointMap(dim=len(x), eval=lambda _: fx), x, w)

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_bits_match_textbook_update(self, omega):
        for shift in range(len(self.VALUES)):
            x, fx = self.VALUES, np.roll(self.VALUES[::-1], shift)
            want, want_warnings = recorded(oracle_step, x, fx, omega)
            got, got_warnings = recorded(self.step, x, fx, omega)
            assert want_warnings == got_warnings == []
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_warns_and_raises_like_textbook_update(self, omega):
        overflowed = 0
        for shift in range(len(self.HUGE)):
            x, fx = self.HUGE, np.roll(self.HUGE[::-1], shift)
            want, want_warnings = recorded(oracle_step, x, fx, omega)
            got, got_warnings = recorded(self.step, x, fx, omega)
            assert got_warnings == want_warnings
            if np.isfinite(want).all():
                assert got.tobytes() == want.tobytes()
            else:
                overflowed += 1
                assert got is None  # NonFiniteValue
        if abs(omega) > 1:
            assert overflowed > 0


def loop_errors(fpmap, schedule, x0, ref, max_iters, error_target=None):
    """Errors of an independent relaxed loop, each by np.linalg.norm."""
    x = np.array(x0, dtype=float)
    errors = [np.linalg.norm(x - ref)]
    for k in range(max_iters):
        w = schedule.factors[k % schedule.period]
        fx = fpmap(x)
        y = fx if w == 1.0 else oracle_step(x, fx, w)
        if not (np.isfinite(y).all() and np.linalg.norm(y) <= core._DIVERGENCE_NORM):
            return errors, StopReason.DIVERGENCE
        errors.append(np.linalg.norm(y - ref))
        step, x = np.linalg.norm(y - x), y
        if step == 0.0:
            return errors, StopReason.TOLERANCE
        if error_target is not None and errors[-1] <= error_target:
            return errors, StopReason.TARGET
    return errors, StopReason.MAX_ITERS


class TestRunInertialBits:
    """run_inertial's errors match an independent loop bit for bit."""

    N = 6
    REFS = {
        "zeros": np.zeros(N),
        "negative zeros": -np.zeros(N),
        "tiny": np.full(N, 1e-300),
        "fixed point": None,  # the map's own nonzero fixed point
        # a fixed point of norm near 3.5e11, so that error + |ref| crosses
        # half the divergence norm, where the runner starts taking |x|
        "large fixed point": None,
    }

    def problem(self, scenario, ref_kind):
        rng = np.random.default_rng(17)
        Q, _ = np.linalg.qr(rng.normal(size=(self.N, self.N)))
        B = Q @ np.diag(np.linspace(0.3, 0.9, self.N)) @ Q.T
        A = np.eye(self.N) - B
        if scenario == "divergence":
            A = 2.5 * A + 0.5 * np.eye(self.N)
        b = np.zeros(self.N)
        if ref_kind.endswith("fixed point"):
            b = rng.normal(size=self.N) * (5e10 if ref_kind.startswith("large") else 1.0)
        ref = self.REFS[ref_kind]
        if ref is None:
            ref = np.linalg.solve(np.eye(self.N) - A, b)
        fpmap = affine_map(A, b)
        x0 = rng.normal(size=self.N) * 3.0
        if scenario == "divergence":
            return fpmap, plain_schedule(), x0, ref, (200,), StopReason.DIVERGENCE
        schedule = chebyshev_schedule(EigenRange(0.3, 0.9), 4)
        if scenario == "target":
            target = 1e-9 * float(np.linalg.norm(x0 - ref))
            return fpmap, schedule, x0, ref, (200, target), StopReason.TARGET
        return fpmap, schedule, x0, ref, (30,), StopReason.MAX_ITERS

    @pytest.mark.parametrize("ref_kind", sorted(REFS))
    @pytest.mark.parametrize("scenario", ["budget", "divergence", "target"])
    def test_errors_match_independent_loop(self, scenario, ref_kind):
        fpmap, schedule, x0, ref, stop, reason = self.problem(scenario, ref_kind)
        want, want_reason = loop_errors(fpmap, schedule, x0, ref, *stop)
        tr = run_inertial(fpmap, schedule, x0, ref, *stop)
        assert want_reason is tr.stop_reason is reason
        assert 1 < tr.steps < stop[0] or reason is StopReason.MAX_ITERS
        assert tr.errors.tobytes() == np.array(want).tobytes()


class TestRunInertialStepNorm:
    """The runner takes the norm of a step only when the error barely
    moved; each stop still matches the independent loop, which takes it
    on every step."""

    def run_both(self, fpmap, schedule, x0, ref, *stop):
        want, want_reason = loop_errors(fpmap, schedule, x0, ref, *stop)
        tr = run_inertial(fpmap, schedule, x0, ref, *stop)
        assert tr.stop_reason is want_reason
        assert tr.errors.tobytes() == np.array(want).tobytes()
        return tr

    @pytest.mark.parametrize("ref", [np.zeros(3), np.array([1e-155, -3e-156, 2e-160])])
    def test_underflowing_last_step_stops_at_the_same_step(self, ref):
        # x <- x / 2, exactly: the iterate keeps changing, but once every
        # |d_i| is below about 1.5e-162 the squares of the step underflow
        # and its computed norm is 0, while the error still moves, by far
        # less than the band's 1e-150 floor. The start puts that first such
        # step's components at 0.9e-162 and below.
        halve = affine_map(0.5 * np.eye(3), np.zeros(3))
        x0 = np.array([1.8e-162, -1e-162, 5e-163]) * 2.0**60
        tr = self.run_both(halve, plain_schedule(), x0, ref, 500)
        assert tr.stop_reason is StopReason.TOLERANCE
        before = run_inertial(halve, plain_schedule(), x0, ref, tr.steps - 1).x_final
        step = tr.x_final - before
        assert step.any() and np.all(np.abs(step) < 1e-162)
        assert step.dot(step) == 0.0
        assert tr.errors[-1] != tr.errors[-2]

    def test_underflowing_step_that_moves_the_error_by_an_ulp(self):
        # x <- x + 2^-538 next to ref r = 1.5 2^-434, whose spacing is
        # u = 2^-486: x - r rounds to a grid point of r's, and the step from
        # just below the tie x = 1.5 u to the tie itself moves the computed
        # error from r - u to r - 2u (ties to even). That is far above the
        # band's 1e-150 floor, but the step's square underflows all the
        # same, so it is the relative part of the band that keeps the norm
        # taken and the run stopped there.
        u, delta = 2.0**-486, 2.0**-538
        shift = FixedPointMap(dim=1, eval=lambda x: x + delta)
        x0, ref = np.array([1.5 * u - delta]), np.array([1.5 * 2.0**-434])
        tr = self.run_both(shift, plain_schedule(), x0, ref, 10)
        assert tr.stop_reason is StopReason.TOLERANCE and tr.steps == 1
        assert tr.errors.tolist() == [ref[0] - u, ref[0] - 2 * u]

    @pytest.mark.parametrize("n", [2, 8, 200])
    def test_norm_preserving_map_has_no_false_stop(self, n):
        # an orthogonal Q keeps |x| = |x - 0| up to rounding on every step,
        # so the error barely moves, though no step is zero
        rng = np.random.default_rng(23)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        x0 = rng.normal(size=n)
        tr = self.run_both(affine_map(Q, np.zeros(n)), plain_schedule(), x0, np.zeros(n), 300)
        assert tr.stop_reason is StopReason.MAX_ITERS and tr.steps == 300
        assert np.all(np.abs(np.diff(tr.errors)) <= 1e-13 * tr.errors[0])

    def test_factors_used_is_the_cyclic_schedule_prefix(self):
        sched = InertialSchedule(factors=(1.0, 1.5, 0.5))
        contract = affine_map(0.5 * np.eye(2), np.zeros(2))
        grow = affine_map(3.0 * np.eye(2), np.zeros(2))
        x0, ref = np.ones(2), np.zeros(2)
        runs = {
            "budget": (contract, (7,)),
            "divergence": (grow, (200,)),
            "target": (contract, (200, 1e-3)),
        }
        for name, (fpmap, stop) in runs.items():
            tr = self.run_both(fpmap, sched, x0, ref, *stop)
            assert tr.stop_reason.value == ("max_iters" if name == "budget" else name)
            assert tr.steps % 3 != 0
            want = [sched.factors[k % 3] for k in range(tr.steps)]
            assert tr.factors_used.dtype == np.float64
            assert tr.factors_used.tolist() == want

    def test_one_inertial_step_call_per_attempted_step(self, monkeypatch):
        calls = []
        step = core.inertial_step

        def counted(*args):
            calls.append(args[2])
            return step(*args)

        monkeypatch.setattr(core, "inertial_step", counted)
        sched = chebyshev_schedule(EigenRange(0.3, 0.9), 4)
        rng = np.random.default_rng(4)
        A = np.diag(np.linspace(0.1, 0.7, 5))
        x0 = rng.normal(size=5)
        cases = [
            (affine_map(A, np.zeros(5)), (50,), 0),  # budget
            (affine_map(A, np.zeros(5)), (200, 1e-6), 0),  # target
            (affine_map(0.5 * np.eye(5), np.ones(5)), (500,), 0),  # tolerance
            (affine_map(4.0 * np.eye(5), np.zeros(5)), (500,), 1),  # divergence
        ]
        for fpmap, stop, rejected in cases:
            calls.clear()
            want, _ = loop_errors(fpmap, sched, x0, np.zeros(5), *stop)
            tr = run_inertial(fpmap, sched, x0, np.zeros(5), *stop)
            assert tr.errors.tobytes() == np.array(want).tobytes()
            assert len(calls) == tr.steps + rejected
            assert calls == [sched.factors[k % 4] for k in range(len(calls))]


class TestRunInertial:
    def test_all_ones_schedule_matches_plain_iteration_bitwise(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 6)) * 0.1
        b = rng.normal(size=6)
        m = affine_map(A, b)
        ones = InertialSchedule(factors=(1.0, 1.0, 1.0, 1.0))
        x0 = rng.normal(size=6)

        x = x0.copy()
        manual = [x.copy()]
        for _ in range(25):
            x = m(x)
            manual.append(x.copy())

        for k in range(1, 26):
            tr = run_inertial(m, ones, x0, np.zeros(6), k)
            assert tr.steps == k
            assert np.array_equal(tr.x_final, manual[k])

    def test_identity_map_stops_after_one_step(self):
        m = FixedPointMap(dim=2, eval=lambda x: x.copy())
        x0 = np.array([1.0, -2.0])
        tr = run_inertial(m, plain_schedule(), x0, x0, 50)
        assert tr.steps == 1
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
        tr = run_inertial(m, sched, np.zeros(3), x_star, 40)
        assert len(tr.errors) == tr.steps + 1
        assert tr.errors[-1] < 1e-12 * max(1.0, tr.errors[0])
        # the run also stops once the iterate is exactly stationary
        assert tr.stop_reason in (StopReason.MAX_ITERS, StopReason.TOLERANCE)
        # at multiples of the period the error must not grow (ulp slack at
        # the rounding floor, scaled by the fixed point magnitude)
        floor = 1e-14 * np.linalg.norm(x_star)
        for k in range(4, tr.steps + 1, 4):
            assert tr.errors[k] <= tr.errors[k - 4] + floor

    def test_factors_used_follow_schedule(self):
        m = affine_map(np.eye(2) * 0.5, np.zeros(2))
        sched = InertialSchedule(factors=(1.0, 1.5, 0.5))
        tr = run_inertial(m, sched, np.ones(2), np.zeros(2), 7)
        assert tr.factors_used.tolist() == [1.0, 1.5, 0.5, 1.0, 1.5, 0.5, 1.0]

    def test_divergence_by_threshold_drops_offending_step(self):
        m = affine_map(np.eye(1) * 3.0, np.zeros(1))
        tr = run_inertial(m, plain_schedule(), np.ones(1), np.zeros(1), 200)
        assert tr.stop_reason is StopReason.DIVERGENCE
        assert tr.steps < 200
        assert np.all(np.isfinite(tr.errors))
        assert len(tr.errors) == tr.steps + 1
        # the trace ends at the last iterate still inside the threshold
        assert np.linalg.norm(tr.x_final) <= 1e12
        assert tr.errors[-1] == pytest.approx(np.linalg.norm(tr.x_final))

    @pytest.mark.filterwarnings("error")
    def test_divergence_by_overflow_keeps_finite_errors(self):
        def blow_up(x):
            return x * 1e200

        m = FixedPointMap(dim=1, eval=blow_up)
        tr = run_inertial(m, plain_schedule(), np.ones(1), np.zeros(1), 10)
        assert tr.stop_reason is StopReason.DIVERGENCE
        assert tr.steps == 0
        assert np.all(np.isfinite(tr.errors))
        assert len(tr.errors) == tr.steps + 1

    def test_nonfinite_inputs_rejected(self):
        m = affine_map(np.eye(1) * 0.5, np.zeros(1))
        with pytest.raises(NonFiniteValue):
            run_inertial(m, plain_schedule(), np.array([np.nan]), np.zeros(1), 5)
        with pytest.raises(NonFiniteValue):
            run_inertial(m, plain_schedule(), np.ones(1), np.array([np.inf]), 5)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_error_norms_rejected(self):
        # Both used to record inf errors after a numpy overflow warning.
        m = FixedPointMap(2, lambda x: 0.5 * x)
        with pytest.raises(NonFiniteValue, match=r"\|x_ref\| = inf"):
            run_inertial(m, plain_schedule(), np.ones(2), np.full(2, 1e200), 3)
        with pytest.raises(NonFiniteValue, match=r"\|x0 - x_ref\| overflows"):
            run_inertial(m, plain_schedule(), np.full(2, 1e200), np.zeros(2), 3)
        # |x_ref| + 1e12 must stay at most 1e154, even when |x_ref| is finite
        with pytest.raises(NonFiniteValue, match=r"\|x_ref\| = 1\.273e\+154"):
            run_inertial(m, plain_schedule(), np.ones(2), np.full(2, 9e153), 3)
        # just inside the bound every error is finite, iterates up to 1e12 too
        ref = np.full(2, 7e153)
        for x0 in (np.ones(2), np.full(2, 7e11)):
            tr = run_inertial(m, plain_schedule(), x0, ref, 3)
            assert tr.stop_reason is StopReason.MAX_ITERS
            assert np.all(np.isfinite(tr.errors)) and len(tr.errors) == 4

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 4)) * 0.2
        m = affine_map(A, rng.normal(size=4))
        sched = chebyshev_schedule(EigenRange(0.5, 1.5), 8)
        x0 = rng.normal(size=4)
        for ref in (np.zeros(4), rng.normal(size=4)):
            t1 = run_inertial(m, sched, x0, ref, 64)
            first = t1.x_final.tobytes()
            t2 = run_inertial(m, sched, x0, ref, 64)
            assert np.array_equal(t1.errors, t2.errors)
            assert np.array_equal(t1.x_final, t2.x_final)
            # no array the runner writes into is handed out as x_final:
            # another run on the same map leaves the first one's bytes alone
            run_inertial(m, sched, -x0, ref, 9)
            assert t1.x_final.tobytes() == first

    def test_step_tolerance_stop(self):
        # x <- x/2 + 1 from 0 lands on 2.0 exactly in floating point, and
        # the next step, which leaves it unchanged, ends the run.
        m = affine_map(np.eye(1) * 0.5, np.array([1.0]))
        tr = run_inertial(m, plain_schedule(), np.zeros(1), np.full(1, 2.0), 500)
        assert tr.stop_reason is StopReason.TOLERANCE
        assert tr.steps < 60
        assert tr.errors[-2:].tolist() == [0.0, 0.0]

    def test_error_target_stops_at_first_hit(self):
        A = np.diag([0.3, 0.5, 0.7])
        b = np.array([1.0, -2.0, 0.5])
        x_star = np.linalg.solve(np.eye(3) - A, b)
        m = affine_map(A, b)
        sched = chebyshev_schedule(EigenRange(0.3, 0.7), 4)
        full = run_inertial(m, sched, np.zeros(3), x_star, 40)
        target = float(full.errors[9])
        hit = int(np.nonzero(full.errors <= target)[0][0])
        tr = run_inertial(m, sched, np.zeros(3), x_star, 40, error_target=target)
        assert tr.stop_reason is StopReason.TARGET
        assert tr.steps == hit
        assert len(tr.errors) == tr.steps + 1
        assert np.array_equal(tr.errors, full.errors[: hit + 1])
        cut = run_inertial(m, sched, np.zeros(3), x_star, hit)
        assert np.array_equal(tr.x_final, cut.x_final)

    def test_unreached_error_target_runs_full_budget(self):
        m = affine_map(np.eye(2) * 0.5, np.zeros(2))
        tr = run_inertial(m, plain_schedule(), np.ones(2), np.zeros(2), 20, error_target=1e-12)
        assert tr.stop_reason is StopReason.MAX_ITERS
        assert tr.steps == 20
        assert tr.errors[-1] > 1e-12

    def test_stop_criteria_validation(self):
        # x <- x/2 from (1, 1): the error after step k is sqrt(2) / 2^k, so
        # a target of t stops the run at the first k with that at most t.
        m = affine_map(np.eye(2) * 0.5, np.zeros(2))

        def run(max_iters, error_target=None):
            x0, ref = np.ones(2), np.zeros(2)
            return run_inertial(m, plain_schedule(), x0, ref, max_iters, error_target)

        with pytest.raises(InvalidInput, match="max_iters must be >= 1, got 0"):
            run(0)
        for bad in (-1e-9, math.nan, math.inf):
            with pytest.raises(InvalidInput, match="error_target must be finite and >= 0"):
                run(5, bad)
        tr = run(5, 0.0)
        assert tr.stop_reason is StopReason.MAX_ITERS and tr.steps == 5
        for bad in (True, np.bool_(True), "0.1", b"0.1", 1j):
            with pytest.raises(InvalidInput, match="real number"):
                run(5, bad)
        for good, steps in ((0, 5), (np.int64(2), 1), (np.float32(0.25), 3)):
            tr = run(5, good)
            assert tr.steps == steps
            assert tr.stop_reason is (StopReason.TARGET if steps < 5 else StopReason.MAX_ITERS)
        assert run(5).stop_reason is StopReason.MAX_ITERS
        for bad in (5.0, 5.7, "5", True):
            with pytest.raises(InvalidInput, match="max_iters must be an integer"):
                run(bad)
        assert run(np.int64(5)).steps == 5
        # the stop arguments are checked before the vectors
        with pytest.raises(InvalidInput):
            run_inertial(m, plain_schedule(), [np.nan, 0.0], np.zeros(2), 0)
