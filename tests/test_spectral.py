"""Polynomial bounds, eigensolver contracts, and range estimation."""
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
    NotAFixedPoint,
    NotConverged,
    SpectrumNotCertifiedReal,
    StopReason,
    bounds_rows,
    chebyshev_roots,
    chebyshev_schedule,
    core,
    estimate_eigen_range,
    jacobian_fd,
    per_step_rate,
    per_step_rate_limit,
    period_contraction_bound,
    period_polynomial,
    period_spectral_radius,
    plain_schedule,
    run_inertial,
    spectral,
)

from oracles import (
    NotSymmetric,
    brute_real_eigs_sorted,
    certified_spectrum,
    chebyshev_eval,
    monic_chebyshev,
    symmetric_eigenvalues,
)

R19 = EigenRange(0.1, 0.9)

# Reference values computed independently with 40-digit arithmetic and
# rounded to double precision.
BOUND_19 = {2: 0.47058823529411765, 4: 0.1245136186770428, 6: 0.031242372467659263}
BOUND_03_1 = {2: 0.79676517910068592, 4: 0.46502410672926234, 8: 0.12123173485185501}
QCI_19 = {2: 0.68599434057003535, 64: 0.50544464302585023, 512: 0.5006773599460541}
LIMIT_19 = 0.5
LIMIT_GRAM = 0.7346496305390466  # range (0.0234, 1.0)
LIMIT_NARROW = 0.00027793220601620654  # range (0.899, 0.9)


def random_range(rng, max_ratio=30.0):
    a = rng.uniform(0.02, 1.0)
    b = a * rng.uniform(1.05, max_ratio)
    return EigenRange(a, min(b, 1.999))


class TestChebyshevEval:
    def test_matches_cosine_form_inside_interval(self):
        x = np.linspace(-1.0, 1.0, 2001)
        for T in (0, 1, 2, 3, 5, 8, 13):
            lhs = chebyshev_eval(x, T)
            rhs = np.cos(T * np.arccos(x))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_known_value(self):
        # cos(3 * arccos(1/2)) = cos(pi) = -1
        assert chebyshev_eval(0.5, 3) == pytest.approx(-1.0, abs=1e-15)

    def test_degree_zero_and_one(self):
        x = np.array([-0.3, 0.7])
        assert np.array_equal(chebyshev_eval(x, 0), np.ones(2))
        assert np.array_equal(chebyshev_eval(x, 1), x)

    def test_rejects_negative_degree(self):
        with pytest.raises(InvalidInput):
            chebyshev_eval(0.5, -1)


class TestMonicChebyshev:
    def test_vanishes_at_shifted_roots(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            r = random_range(rng)
            T = int(rng.integers(1, 12))
            z = chebyshev_roots(r, T)
            vals = monic_chebyshev(z, r, T)
            assert np.max(np.abs(vals)) <= 1e-12

    def test_leading_coefficient_is_one(self):
        r = EigenRange(0.3, 1.1)
        for T in (1, 2, 5):
            # at large x the monic polynomial behaves like x^T
            x = 1e6
            assert monic_chebyshev(x, r, T) / x**T == pytest.approx(1.0, rel=1e-4)

    def test_value_at_zero_is_signed_root_product(self):
        r = R19
        for T in (1, 2, 3, 4, 7):
            z = chebyshev_roots(r, T)
            expect = (-1.0) ** T * np.prod(z)
            assert monic_chebyshev(0.0, r, T) == pytest.approx(expect, rel=1e-13)

    def test_zero_width_range_degenerates_to_power(self):
        r = EigenRange(0.7, 0.7)
        assert monic_chebyshev(1.7, r, 3) == pytest.approx(1.0, rel=1e-15)


class TestPeriodPolynomial:
    def test_reference_value(self):
        s = chebyshev_schedule(R19, 2)
        assert period_polynomial(0.5, s) == pytest.approx(-8.0 / 17.0, rel=1e-13)

    def test_equals_normalized_monic_polynomial(self):
        rng = np.random.default_rng(23)
        lam = np.linspace(0.05, 1.5, 97)
        for _ in range(10):
            r = random_range(rng)
            T = int(rng.integers(1, 10))
            s = chebyshev_schedule(r, T)
            beta = period_polynomial(lam, s)
            monic = monic_chebyshev(lam, r, T) / monic_chebyshev(0.0, r, T)
            assert np.max(np.abs(beta - monic)) <= 1e-9

    def test_one_at_zero(self):
        s = chebyshev_schedule(R19, 5)
        assert period_polynomial(0.0, s) == 1.0


class TestContractionBound:
    def test_reference_values(self):
        for T, want in BOUND_19.items():
            assert period_contraction_bound(R19, T) == pytest.approx(want, rel=1e-14)
        r = EigenRange(0.03, 1.0)
        for T, want in BOUND_03_1.items():
            assert period_contraction_bound(r, T) == pytest.approx(want, rel=1e-14)

    def test_bound_dominates_polynomial_on_range_and_is_tight(self):
        rng = np.random.default_rng(31)
        grid = np.linspace(0.0, 1.0, 10000)
        for _ in range(10):
            r = random_range(rng)
            lam = r.a + (r.b - r.a) * grid
            for T in (1, 2, 4, 6, 8):
                s = chebyshev_schedule(r, T)
                vals = np.abs(period_polynomial(lam, s))
                bound = period_contraction_bound(r, T)
                assert np.max(vals) <= bound + 1e-10
                assert np.max(vals) >= 0.999 * bound

    def test_long_period_underflows_gracefully(self):
        assert period_contraction_bound(R19, 4000) == 0.0
        assert per_step_rate(R19, 4000) > 0.49

    def test_zero_width_range(self):
        r = EigenRange(0.5, 0.5)
        assert period_contraction_bound(r, 3) == 0.0
        assert per_step_rate(r, 3) == 0.0
        assert per_step_rate_limit(r) == 0.0

    def test_rejects_nonpositive_lower_endpoint(self):
        bad = EigenRange(0.0, 0.9)
        with pytest.raises(InvalidRange):
            period_contraction_bound(bad, 2)
        with pytest.raises(InvalidRange):
            per_step_rate(bad, 2)
        with pytest.raises(InvalidRange):
            per_step_rate_limit(bad)

    def test_rejects_non_integer_period(self):
        for bad in (2.5, 2.0, "2"):
            with pytest.raises(InvalidInput, match="integer"):
                period_contraction_bound(R19, bad)
            with pytest.raises(InvalidInput, match="integer"):
                per_step_rate(R19, bad)
        assert period_contraction_bound(R19, np.int64(2)) == period_contraction_bound(R19, 2)
        assert per_step_rate(R19, np.int64(2)) == per_step_rate(R19, 2)


class TestPerStepRate:
    def test_reference_values(self):
        for T, want in QCI_19.items():
            assert per_step_rate(R19, T) == pytest.approx(want, rel=1e-14)
        assert per_step_rate_limit(R19) == pytest.approx(LIMIT_19, abs=1e-15)
        assert per_step_rate_limit(EigenRange(0.0234, 1.0)) == pytest.approx(
            LIMIT_GRAM, rel=1e-14
        )
        assert per_step_rate_limit(EigenRange(0.899, 0.9)) == pytest.approx(
            LIMIT_NARROW, rel=1e-13
        )

    def test_rate_decreases_with_period_toward_limit(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            r = random_range(rng)
            limit = per_step_rate_limit(r)
            rates = [per_step_rate(r, T) for T in range(1, 65)]
            assert all(x > y for x, y in zip(rates, rates[1:]))
            assert all(x > limit for x in rates)
            assert rates[63] - limit < 1e-2

    def test_period_one_equals_sor_rate(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            r = random_range(rng)
            sor = (r.b - r.a) / (r.b + r.a)
            assert per_step_rate(r, 1) == pytest.approx(sor, rel=1e-13)

    def test_bounds_row_bundle(self):
        (row,) = bounds_rows(R19.a, R19.b, [2])
        assert row["period"] == 2
        assert row["period_bound"] == pytest.approx(BOUND_19[2], rel=1e-14)
        assert row["per_step"] == pytest.approx(QCI_19[2], rel=1e-14)
        assert row["limit"] == pytest.approx(0.5, abs=1e-15)
        assert row["sor_rate"] == pytest.approx(0.8, rel=1e-15)


class TestPeriodSpectralRadius:
    def test_matches_bound_for_extremal_spectrum(self):
        r = R19
        s = chebyshev_schedule(r, 4)
        grid = np.linspace(r.a, r.b, 5000)
        rho = period_spectral_radius(grid, s)
        assert rho <= period_contraction_bound(r, 4) + 1e-12

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            period_spectral_radius(np.array([]), chebyshev_schedule(R19, 2))


class TestJacobianFd:
    def test_matches_analytic_jacobian(self):
        rng = np.random.default_rng(47)
        A = rng.normal(size=(5, 5)) * 0.4

        def f(x):
            return np.tanh(A @ x)

        def jac(x):
            return (1.0 / np.cosh(A @ x) ** 2)[:, None] * A

        for _ in range(5):
            x = rng.normal(size=5)
            assert np.max(np.abs(jacobian_fd(f, x) - jac(x))) <= 1e-6

    def test_exact_for_affine(self):
        A = np.array([[0.3, -0.2], [0.1, 0.5]])

        def f(x):
            return A @ x + 1.0

        J = jacobian_fd(f, np.array([0.4, -1.2]))
        assert np.max(np.abs(J - A)) <= 1e-9

    def test_rejects_wrong_output_length(self):
        with pytest.raises(DimensionError):
            jacobian_fd(lambda x: np.zeros(3), np.zeros(2))


class TestSymmetricEigenvalues:
    """The test oracle's eigensolver, behind its symmetry checks."""

    def test_known_spectrum(self):
        lam = symmetric_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert lam == pytest.approx([1.0, 3.0], rel=1e-14)

    def test_residual_certificate(self):
        # independent check: for symmetric S the distance from lambda to the
        # spectrum equals the smallest singular value of S - lambda I
        rng = np.random.default_rng(53)
        for n in (3, 8, 24, 64):
            M = rng.normal(size=(n, n))
            S = (M + M.T) / 2.0
            lam = symmetric_eigenvalues(S)
            norm = np.linalg.norm(S)
            for v in (lam[0], lam[n // 2], lam[-1]):
                sigma_min = np.linalg.svd(S - v * np.eye(n), compute_uv=False)[-1]
                assert sigma_min <= 1e-8 * norm
            assert np.sum(lam) == pytest.approx(np.trace(S), rel=1e-10, abs=1e-10)
            assert np.sum(lam**2) == pytest.approx(norm**2, rel=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_tolerates_roundoff_asymmetry(self):
        S = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        lam = symmetric_eigenvalues(S)
        assert lam == pytest.approx([1.0, 3.0], rel=1e-12)

    def test_rejects_nonsquare_nonfinite_oversize(self):
        with pytest.raises(DimensionError):
            symmetric_eigenvalues(np.zeros((2, 3)))
        with pytest.raises(NonFiniteValue):
            symmetric_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInput):
            symmetric_eigenvalues(np.zeros((1025, 1025)))


def scaled_symmetric_pair(rng, n):
    """Symmetric A with well separated eigenvalues and nonnegative q,
    about one in five entries of q exactly zero."""
    while True:
        mags = rng.uniform(0.3, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        M = rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(M)
        A = Q.T @ np.diag(mags) @ Q
        A = (A + A.T) / 2.0
        q = rng.uniform(0.3, 1.2, size=n)
        q[rng.uniform(size=n) < 0.2] = 0.0
        lam = certified_spectrum(A, q)
        if np.min(np.diff(np.sort(lam))) >= 0.02:
            return A, q


def definite_pair(rng, n):
    """Symmetric positive definite A with eigenvalues in (0.3, 1) and its
    exact inverse from the same eigenvectors."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mags = rng.uniform(0.3, 1.0, size=n)
    return Q.T @ np.diag(mags) @ Q, Q.T @ np.diag(1.0 / mags) @ Q


class TestRealSpectrumViaSimilarity:
    """The real spectrum of diag(q) A: through the spectrum hook that
    _factored_jacobian builds, and in the layer beneath it,
    _similarity_spectrum."""

    def test_agrees_with_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(59)
        for n in (2, 5, 9, 12):
            for _ in range(8):
                A, q = scaled_symmetric_pair(rng, n)
                ours = certified_spectrum(A, q)
                oracle = brute_real_eigs_sorted(np.diag(q) @ A)
                assert np.max(np.abs(ours - oracle)) <= 1e-6

    def test_zero_entries_give_exact_zero_eigenvalues(self):
        rng = np.random.default_rng(61)
        A, q = scaled_symmetric_pair(rng, 8)
        q[:3] = 0.0
        lam = certified_spectrum(A, q)
        assert np.count_nonzero(lam == 0.0) >= 3

    def test_full_support_skips_copy_bit_for_bit(self):
        # With every q_i > 0 the spectrum uses A itself instead of the
        # A[ix_(support, support)] copy; the bits must not move.
        def with_copy(A, q):
            support = q > 0.0
            s = np.sqrt(q[support])
            core = (s[:, None] * A[np.ix_(support, support)]) * s[None, :]
            lam = np.linalg.eigvalsh((core + core.T) / 2.0)
            return np.sort(np.concatenate([lam, np.zeros(q.size - s.size)]))

        rng = np.random.default_rng(71)
        M = rng.normal(size=(40, 40))
        A = (M + M.T) / 2.0
        q = rng.uniform(0.1, 1.0, size=40)
        q_zeros = q.copy()
        q_zeros[::3] = 0.0
        for qq in (q, q_zeros):
            ours = spectral._similarity_spectrum(A, qq)
            assert ours.tobytes() == with_copy(A, qq).tobytes()

    def test_matvec_gets_lanczos_extremes(self):
        # A positive definite A given as (matvec, inverse) gets only the two
        # extremes; they agree with the dense spectrum, both when the Krylov
        # space fills R^n and when the Ritz residual test stops it, and a
        # zero in q gives an exact 0.0 lower end.
        rng = np.random.default_rng(67)
        cases = [definite_pair(rng, n) + (rng.uniform(0.3, 1.2, size=n),) for n in (2, 5, 9, 12)]
        A, inverse = definite_pair(rng, 300)
        q = rng.uniform(0.0, 1.0, size=300)
        cases.append((A, inverse, q))
        q = q.copy()
        q[::4] = 0.0
        cases.append((A, inverse, q))
        for A, inverse, q in cases:
            n = q.size
            calls = []

            def counted(v):
                calls.append(1)
                return inverse @ v

            pair = (lambda v: A @ v, counted)
            dense = certified_spectrum(A, q)
            ours = spectral._similarity_spectrum(pair, q)
            assert ours.shape == (2,)
            assert np.max(np.abs(ours - dense[[0, -1]])) <= 1e-12 * np.max(np.abs(dense))
            assert np.array_equal(spectral._similarity_spectrum(pair, q), ours)
            if n < 20:
                assert len(calls) == 2 * n  # each call stopped at m = n
            if not q.all():
                assert ours[0] == 0.0 and not calls
        identity = (lambda v: v, lambda v: v)
        assert np.array_equal(spectral._similarity_spectrum(identity, np.zeros(4)), [0.0, 0.0])

    def test_lanczos_basis_starts_on_cache_line(self, monkeypatch):
        # The reorthogonalization multiplies by the stored basis every step.
        bases = []

        def recorded(shape):
            bases.append(core._aligned_empty(shape))
            return bases[-1]

        monkeypatch.setattr(spectral, "_aligned_empty", recorded)
        d = np.linspace(1.0, 2.0, 60)
        assert spectral._lanczos_extremes(lambda v: d * v, 60) == pytest.approx(2.0, rel=1e-12)
        assert [V.shape for V in bases] == [(60, 60)]
        assert bases[0].ctypes.data % 64 == 0

    def test_lanczos_failures_are_typed(self, monkeypatch):
        d = np.linspace(1.0, 2.0, 50)
        pair = (lambda v: d * v, lambda v: v / d)
        for bad in (np.inf, np.nan):
            with pytest.raises(NonFiniteValue):
                spectral._similarity_spectrum((lambda v: np.full(5, bad), pair[1]), np.ones(5))
            # one bad entry among finite ones, first met at a later step
            calls = []

            def matvec(v):
                calls.append(1)
                w = v.copy()
                if len(calls) == 3:
                    w[2] = bad
                return w

            with pytest.raises(NonFiniteValue, match="step 3"):
                spectral._similarity_spectrum((matvec, pair[1]), np.linspace(1.0, 2.0, 6))
        with pytest.raises(DimensionError):
            spectral._similarity_spectrum(pair, np.ones((2, 2)))
        # a cap below n that the stopping rule cannot meet
        monkeypatch.setattr(spectral, "_LANCZOS_MAX_STEPS", 5)
        with pytest.raises(NotConverged):
            spectral._similarity_spectrum(pair, np.ones(50))

    def test_all_zero_q(self):
        A = np.eye(4)
        assert np.array_equal(certified_spectrum(A, np.zeros(4)), np.zeros(4))

    def test_uniform_q_recovers_scaled_spectrum(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        lam = certified_spectrum(A, np.full(2, 0.5))
        assert lam == pytest.approx([0.5, 1.5], rel=1e-14)

    def test_input_contracts(self):
        A = np.eye(3)
        with pytest.raises(InvalidInput):
            spectral._similarity_spectrum(A, np.array([0.5, -0.1, 0.2]))
        with pytest.raises(DimensionError):
            spectral._similarity_spectrum(A, np.ones(2))
        with pytest.raises(NonFiniteValue):
            spectral._similarity_spectrum(A, np.array([1.0, np.inf, 1.0]))


def affine_fp_map(A, b, **kw):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return FixedPointMap(
        dim=len(b), eval=lambda x: A @ x + b, jacobian=lambda x: A.copy(), **kw
    )


class TestEstimateEigenRange:
    def test_symmetric_affine_exact(self):
        A = np.diag([0.3, 0.5, 0.7])
        m = affine_fp_map(A, np.zeros(3))
        r = estimate_eigen_range(m, np.zeros(3))
        assert r.a == pytest.approx(0.3, abs=1e-12)
        assert r.b == pytest.approx(0.7, abs=1e-12)

    def test_fd_fallback_when_no_jacobian(self):
        A = np.diag([0.4, 0.6])
        m = FixedPointMap(dim=2, eval=lambda x: A @ x)
        r = estimate_eigen_range(m, np.zeros(2))
        assert r.a == pytest.approx(0.4, abs=1e-8)
        assert r.b == pytest.approx(0.6, abs=1e-8)

    def test_asymmetric_jacobian_warns_and_symmetrizes(self):
        # asymmetric matrix with real eigenvalues 0.65351264816351576 and
        # -0.74591264816351576 (computed from the exact quadratic)
        A = np.array([[-0.6929, -0.2487], [-0.2870, 0.6005]])
        m = affine_fp_map(A, np.zeros(2))
        with pytest.warns(SpectrumNotCertifiedReal):
            r = estimate_eigen_range(m, np.zeros(2))
        sym_eigs = np.linalg.eigvalsh(np.eye(2) - (A + A.T) / 2.0)
        assert r.a == pytest.approx(sym_eigs[0], abs=1e-12)
        assert r.b == pytest.approx(sym_eigs[-1], abs=1e-12)

    def test_spectrum_hook_bypasses_symmetry_requirement(self):
        A = np.array([[-0.6929, -0.2487], [-0.2870, 0.6005]])
        eigs = np.linalg.eigvals(A).real
        m = affine_fp_map(A, np.zeros(2), jacobian_spectrum=lambda x: eigs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = estimate_eigen_range(m, np.zeros(2))
        assert r.a == pytest.approx(0.34648735183648424, rel=1e-10)
        assert r.b == pytest.approx(1.7459126481635158, rel=1e-10)

    def test_spectrum_hook_may_return_only_extremes(self):
        # the hook returns real eigenvalues of J that include the smallest and
        # the largest: 1 to dim finite values in a vector
        A = np.diag([0.2, 0.5, 0.7])
        for eigs, error in (
            ([0.7, 0.2], None),
            ([0.5], None),
            ([], DimensionError),
            ([0.2, 0.5, 0.7, 0.9], DimensionError),
            ([[0.2, 0.7]], DimensionError),
            ([0.2, np.nan], NonFiniteValue),
        ):
            m = affine_fp_map(A, np.zeros(3), jacobian_spectrum=lambda x, e=eigs: np.array(e))
            if error is None:
                r = estimate_eigen_range(m, np.zeros(3))
                assert (r.a, r.b) == (1.0 - max(eigs), 1.0 - min(eigs))
            else:
                with pytest.raises(error):
                    estimate_eigen_range(m, np.zeros(3))

    def test_dense_path_checks_and_cap(self):
        # x -> 0.5 x for x >= 0, NaN below: the central differences at the
        # fixed point 0 are not finite
        half = FixedPointMap(dim=1, eval=lambda x: np.where(x < 0.0, np.nan, 0.5 * x))
        with pytest.raises(NonFiniteValue):
            estimate_eigen_range(half, np.zeros(1))
        n = 1025
        big = affine_fp_map(np.zeros((n, n)), np.zeros(n))
        with pytest.raises(InvalidInput):
            estimate_eigen_range(big, np.zeros(n))
        # a map with no Jacobian is refused after the fixed-point check's
        # one evaluation, not after 2n more for the central differences
        calls = []
        hookless = FixedPointMap(dim=n, eval=lambda x: calls.append(x) or 0.5 * x)
        with pytest.raises(InvalidInput, match="dense solver limited"):
            estimate_eigen_range(hookless, np.zeros(n))
        assert len(calls) == 1

    def test_rejects_non_fixed_point(self):
        m = affine_fp_map(np.diag([0.5]), np.array([1.0]))
        with pytest.raises(NotAFixedPoint):
            estimate_eigen_range(m, np.zeros(1))
        # a NaN defect is no fixed point either, though NaN > tol is false
        nan = FixedPointMap(
            dim=2, eval=lambda x: np.full(2, np.nan), jacobian=lambda x: 0.5 * np.eye(2)
        )
        with pytest.raises(NotAFixedPoint):
            estimate_eigen_range(nan, np.zeros(2))
        # a defect whose norm overflows is inf, with no numpy warning
        huge = FixedPointMap(
            dim=2, eval=lambda x: np.full(2, 1e200), jacobian=lambda x: 0.5 * np.eye(2)
        )
        with pytest.raises(NotAFixedPoint, match="= inf exceeds"):
            estimate_eigen_range(huge, np.zeros(2))

    def test_point_whose_norm_overflows(self):
        # |x| overflows, so the tolerance fp_tol (1 + |x|) would be inf and
        # admit any point: 0 is the only fixed point of x -> 0.5 x
        half = affine_fp_map(np.diag([0.5, 0.5]), np.zeros(2))
        with pytest.raises(NotAFixedPoint, match="7.071e\\+199 exceeds 1.414e\\+194"):
            estimate_eigen_range(half, np.full(2, 1e200))
        # an actual fixed point of that size still passes: c of x -> (x + c) / 2
        c = np.full(2, 1e308)
        mean = FixedPointMap(
            dim=2, eval=lambda x: 0.5 * x + 0.5 * c, jacobian=lambda x: 0.5 * np.eye(2)
        )
        assert estimate_eigen_range(mean, c) == EigenRange(0.5, 0.5)
        with pytest.raises(NotAFixedPoint):
            estimate_eigen_range(mean, c * (1.0 - 1e-5))

    def test_fp_tol_admits_pilot_iterates(self):
        # fixed point of x -> 0.5 x + b is 2 b; probe nearby with a loose
        # tolerance, as a pilot run that stopped early would
        m = affine_fp_map(np.diag([0.5]), np.array([1.0]))
        near = np.array([2.0 + 1e-4])
        with pytest.raises(NotAFixedPoint):
            estimate_eigen_range(m, near)
        r = estimate_eigen_range(m, near, fp_tol=1e-3)
        assert r.a == pytest.approx(0.5, abs=1e-12)

    def test_range_clipping_workflow(self):
        # a measured range may reach below 0; clipping makes it usable
        m = affine_fp_map(np.diag([1.02, 0.5]), np.zeros(2))  # B eigs -0.02, 0.5
        r = estimate_eigen_range(m, np.zeros(2))
        assert r.a < 0.0
        c = r.clipped()
        assert c.a == 1e-6
        s = chebyshev_schedule(c, 4)
        assert all(np.isfinite(s.factors))


class TestNonContractingMap:
    """x <- y - 2 tanh(x): B = 1 + 2 sech^2(x) lies in (1, 3], so the plain
    iteration need not contract, yet the spectrum is on one side of 0 and
    a Chebyshev schedule on the whole of it converges within its bound."""

    def test_schedule_converges_where_plain_does_not(self):
        y = np.array([0.1, 0.6, 1.5])
        fpmap = FixedPointMap(
            dim=3,
            eval=lambda x: y - 2.0 * np.tanh(x),
            jacobian_spectrum=lambda x: -2.0 / np.cosh(x) ** 2,
        )
        x0 = np.zeros(3)
        pilot = run_inertial(fpmap, chebyshev_schedule(EigenRange(1.0, 3.0), 8), x0, x0, 64)
        x_star = pilot.x_final
        assert pilot.stop_reason is StopReason.TOLERANCE and pilot.steps <= 32
        assert np.linalg.norm(fpmap(x_star) - x_star) < 1e-15

        rng = estimate_eigen_range(fpmap, x_star).clipped()
        assert 2.5 < rng.a < rng.b and 2.99 < rng.b < 3.0

        cheb = run_inertial(fpmap, chebyshev_schedule(rng, 8), x0, x_star, 64)
        assert cheb.stop_reason is StopReason.TOLERANCE and cheb.steps < 64
        assert cheb.errors[8] / cheb.errors[0] <= period_contraction_bound(rng, 8)

        plain = run_inertial(fpmap, plain_schedule(), x0, x_star, 64)
        assert plain.steps == 64 and plain.errors[-1] > 1.0
