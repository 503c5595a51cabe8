"""Shrinkage operators, problem constructions, and instance generators."""
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from chebiter import (
    DegenerateOperator,
    DimensionError,
    DomainError,
    InvalidInput,
    NonFiniteValue,
    ProximalProblem,
    SingularDiagonal,
    SparseRecoveryInstance,
    StopCriteria,
    blur_map,
    blur_matrix,
    build_ista,
    deblur_map,
    estimate_eigen_range,
    fista_momentum,
    fista_run,
    gen_gram_matrix,
    gen_jacobi_instance,
    gen_sparse_instance,
    gen_synthetic_image,
    jacobian_fd,
    jacobi_map,
    plain_schedule,
    power_iteration,
    power_map,
    richardson_map,
    run_inertial,
    sigmoid,
    smooth_soft_shrink,
    smooth_soft_shrink_grad,
    soft_shrink,
    softplus,
    symmetric_eigenvalues,
    tanh_affine_map,
    tanh_equation_map,
)

from oracles import brute_real_eigs_sorted

# Independently computed with 40-digit arithmetic, rounded to double.
SIGMOID_15 = 0.81757447619364366
SOFTPLUS_0_100 = 0.0069314718055994531  # log(2)/100
ENVELOPE_100 = 0.013862943611198906  # 2 log(2)/100
GOLDEN = 1.6180339887498948
TANH_SOLVE_X = [0.050020838536700192, 0.30453904941801504]
TANH_SOLVE_B = [1.9127028266811898, 1.9975020834194254]
POWER_FP = 2.9645655163368224
POWER_B = [0.62576286215399513, 1.206553321640678]
POWER_J_296 = [0.083945346642434815, 0.2906190968595482]


class TestSigmoid:
    def test_reference_value(self):
        assert float(sigmoid(1.5)) == pytest.approx(SIGMOID_15, rel=1e-15)
        assert float(sigmoid(0.0)) == 0.5

    def test_stable_for_large_arguments(self):
        assert float(sigmoid(1000.0)) == 1.0
        assert float(sigmoid(-1000.0)) == pytest.approx(0.0, abs=1e-300)

    def test_symmetry(self):
        x = np.linspace(-30, 30, 101)
        assert np.max(np.abs(sigmoid(x) + sigmoid(-x) - 1.0)) <= 1e-15


class TestShrinkage:
    def test_soft_shrink_values(self):
        x = np.array([-2.0, -0.3, 0.0, 0.3, 2.0])
        out = soft_shrink(x, 0.5)
        assert out.tolist() == [-1.5, 0.0, 0.0, 0.0, 1.5]
        with pytest.raises(InvalidInput):
            soft_shrink(x, -0.1)

    def test_softplus_reference_and_stability(self):
        assert float(softplus(0.0, 100.0)) == pytest.approx(SOFTPLUS_0_100, rel=1e-15)
        assert float(softplus(1000.0, 100.0)) == 1000.0
        assert float(softplus(-1000.0, 100.0)) == 0.0
        with pytest.raises(InvalidInput):
            softplus(1.0, 0.0)

    def test_odd_variant_is_odd_with_global_envelope(self):
        tau, beta = 0.5, 100.0
        x = np.linspace(-50.0, 50.0, 20001)
        f = smooth_soft_shrink(x, tau, beta)
        assert np.max(np.abs(f + smooth_soft_shrink(-x, tau, beta))) == 0.0
        assert float(smooth_soft_shrink(0.0, tau, beta)) == 0.0
        dev = np.abs(f - soft_shrink(x, tau))
        assert np.max(dev) <= ENVELOPE_100 + 1e-15

    def test_gradient_ranges(self):
        tau, beta = 0.3, 100.0
        x = np.linspace(-20, 20, 5001)
        g_odd = smooth_soft_shrink_grad(x, tau, beta)
        assert np.all(g_odd > 0.0) and np.all(g_odd <= 1.0)

    def test_gradient_matches_finite_differences(self):
        tau, beta, h = 0.4, 100.0, 1e-6
        x = np.linspace(-2.0, 2.0, 401)
        fd = (
            smooth_soft_shrink(x + h, tau, beta) - smooth_soft_shrink(x - h, tau, beta)
        ) / (2 * h)
        g = smooth_soft_shrink_grad(x, tau, beta)
        assert np.max(np.abs(fd - g)) <= 1e-6


def softplus_two_pass(x, beta):
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(beta * x))) / beta


def smooth_soft_shrink_two_pass(x, tau, beta):
    x = np.asarray(x, dtype=float)
    return softplus_two_pass(x - tau, beta) - softplus_two_pass(-x - tau, beta)


def shrink_inputs(tau):
    """0-d, every length 1-700 and 2-D arrays mixing special values with
    random ones around the threshold. Magnitudes stop at 1e300, so beta x
    stays finite for beta <= 100."""
    tiny = np.finfo(float).tiny
    special = np.array(
        [0.0, -0.0, tau, -tau, np.inf, -np.inf, np.nan, 1e300, -1e300,
         5e-324, -5e-324, tiny / 3, -tiny / 7]
    )
    rng = np.random.default_rng(11)
    yield np.asarray(0.3)
    for v in special:
        yield np.asarray(v)
    for n in range(1, 701):
        x = rng.normal(scale=rng.choice([0.01, 1.0, 1e3]), size=n)
        hits = rng.random(n) < 0.2
        x[hits] = rng.choice(special, size=int(hits.sum()))
        yield x
    x = rng.normal(size=(17, 23))
    x.flat[::5] = np.resize(special, x.flat[::5].shape)
    yield x
    yield np.asfortranarray(x)
    yield x[::2, 1::3]


def same_bits(got, want):
    """Equal bytes once every NaN is the canonical one. The sign of a NaN
    made by nan + nan depends on the numpy loop the operands reach: the
    two-pass formula itself can give -nan for a 0-d input and +nan for a
    length-1 one."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    got[np.isnan(got)] = np.nan
    want[np.isnan(want)] = np.nan
    return got.tobytes() == want.tobytes()


class TestShrinkageBitIdentity:
    # The one-pass forms must reproduce the two-pass formulas bit for bit.
    @pytest.mark.parametrize("tau,beta", [(0.5, 100.0), (0.0, 100.0), (0.03, 7.0)])
    def test_matches_two_pass_formulas(self, tau, beta):
        for x in shrink_inputs(tau):
            before = x.copy()
            for got, want in (
                (softplus(x, beta), softplus_two_pass(x, beta)),
                (smooth_soft_shrink(x, tau, beta), smooth_soft_shrink_two_pass(x, tau, beta)),
            ):
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert same_bits(got, want), x
            assert x.tobytes() == before.tobytes()

    def test_python_scalars_and_lists(self):
        for x in (0.7, -2.0, [0.1, -0.6, 3.0]):
            assert same_bits(smooth_soft_shrink(x, 0.5), smooth_soft_shrink_two_pass(x, 0.5, 100.0))

    def test_checks_kept(self):
        with pytest.raises(InvalidInput):
            smooth_soft_shrink(np.ones(3), -0.1)
        with pytest.raises(InvalidInput):
            smooth_soft_shrink(np.ones(3), 0.1, beta=0.0)


def power_iteration_with_linalg_norm(B, rtol=1e-10, max_iters=10000):
    n = B.shape[0]
    v = np.linspace(1.0, 2.0, n)
    v /= np.linalg.norm(v)
    lam, residual, iters = 0.0, np.inf, 0
    for iters in range(1, max_iters + 1):
        w = B @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, 0.0, iters
        lam = float(v @ w)
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= rtol * max(1.0, abs(lam)):
            break
        v = w / nw
    return lam, residual, iters


class TestNormsMatchLinalg:
    def test_power_iteration(self):
        inst = gen_sparse_instance(128, 64, 0.1, 0.1, seed=2)
        rng = np.random.default_rng(3)
        for B in (
            inst.M.T @ inst.M,
            gen_gram_matrix(40, 0.2, seed=1),
            rng.normal(size=(30, 30)),
            np.diag([3.0, -3.0, 1.0]),
            np.zeros((4, 4)),
        ):
            res = power_iteration(B, max_iters=500)
            assert (res.value, res.residual, res.iters) == power_iteration_with_linalg_norm(
                B, max_iters=500
            )

    def test_fista_errors(self):
        inst = gen_sparse_instance(128, 64, 0.1, 0.1, seed=4)
        problem = build_ista(inst)
        gamma, tau = problem.gamma, problem.tau
        x = np.zeros(inst.n)
        z, t = x.copy(), 1.0
        errors = [float(np.linalg.norm(x - inst.x_true))]
        for _ in range(60):
            x_next = soft_shrink(z - gamma * (inst.M.T @ (inst.M @ z - inst.y)), tau)
            t_next = fista_momentum(t)
            z = x_next + ((t - 1.0) / t_next) * (x_next - x)
            x, t = x_next, t_next
            errors.append(float(np.linalg.norm(x - inst.x_true)))
        assert fista_run(problem, 60).errors.tobytes() == np.asarray(errors).tobytes()


class TestSparseInstances:
    def test_reproducible_and_trial_dependent(self):
        a = gen_sparse_instance(64, 32, 0.1, 0.1, seed=3)
        b = gen_sparse_instance(64, 32, 0.1, 0.1, seed=3)
        c = gen_sparse_instance(64, 32, 0.1, 0.1, seed=3, trial=1)
        assert np.array_equal(a.M, b.M) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.M, c.M)

    def test_support_size_within_binomial_band(self):
        # Binomial(256, 0.1): mean 25.6, sd 4.8, 3 sigma band roughly [11, 40]
        for seed in range(5):
            inst = gen_sparse_instance(256, 128, 0.1, 0.1, seed=seed)
            k = int(np.count_nonzero(inst.x_true))
            assert 11 <= k <= 40

    def test_noise_scale(self):
        inst = gen_sparse_instance(256, 128, 0.1, 0.1, seed=1)
        resid = inst.y - inst.M @ inst.x_true
        assert 0.05 <= np.std(resid) <= 0.2

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_sparse_instance(0, 4, 0.1, 0.1, seed=0)
        with pytest.raises(InvalidInput):
            gen_sparse_instance(8, 4, 1.5, 0.1, seed=0)
        with pytest.raises(InvalidInput):
            gen_sparse_instance(8, 4, 0.1, -0.1, seed=0)
        with pytest.raises(DimensionError):
            SparseRecoveryInstance(M=np.eye(3), y=np.zeros(2), x_true=np.zeros(3))


class TestBuildIsta:
    def test_identity_operator_example(self):
        # with M = I the step size is 1, A = 0, and the map is constant:
        # the fixed point is the shrinkage of y itself
        y = np.array([2.0, -2.0, 0.5, 0.0])
        inst = SparseRecoveryInstance(M=np.eye(4), y=y, x_true=np.zeros(4))
        prob = build_ista(inst)
        assert prob.gamma == pytest.approx(1.0, rel=1e-10)
        assert prob.tau == pytest.approx(1.0, rel=1e-10)
        assert np.max(np.abs(prob.A)) <= 1e-10
        x_star = prob.fpmap(np.zeros(4))
        assert x_star == pytest.approx([1.0, -1.0, 0.0, 0.0], abs=2e-2)
        tr = run_inertial(prob.fpmap, plain_schedule(), np.zeros(4), StopCriteria(max_iters=5))
        assert tr.converged

    def test_step_size_against_dense_eigensolver(self):
        inst = gen_sparse_instance(48, 24, 0.15, 0.05, seed=7)
        prob = build_ista(inst)
        lam = symmetric_eigenvalues(inst.M.T @ inst.M)
        assert prob.gamma * lam[-1] == pytest.approx(1.0, rel=1e-8)
        assert np.max(np.abs(prob.A - prob.A.T)) == 0.0

    def test_spectrum_hook_only_for_odd_variant(self):
        inst = gen_sparse_instance(32, 16, 0.2, 0.05, seed=2)
        assert build_ista(inst).fpmap.jacobian_spectrum is not None

    def test_spectrum_hook_matches_general_eigensolver(self):
        inst = gen_sparse_instance(24, 12, 0.2, 0.05, seed=5)
        prob = build_ista(inst)
        x = np.full(24, 0.3)
        ours = np.sort(prob.fpmap.jacobian_spectrum(x))
        theirs = np.linalg.eigvals(prob.fpmap.jacobian(x))
        assert np.max(np.abs(theirs.imag)) <= 1e-8
        assert np.max(np.abs(ours - np.sort(theirs.real))) <= 1e-6

    def test_converges_to_interior_fixed_point(self):
        inst = gen_sparse_instance(32, 16, 0.1, 0.05, seed=11)
        prob = build_ista(inst)
        tr = run_inertial(
            prob.fpmap, plain_schedule(), np.zeros(32), StopCriteria(max_iters=800)
        )
        x = tr.x_final
        assert np.linalg.norm(prob.fpmap(x) - x) <= 1e-8 * (1 + np.linalg.norm(x))
        rng = estimate_eigen_range(prob.fpmap, x)
        assert rng.b < 2.0
        assert rng.a > -0.5

    def test_zero_operator_rejected(self):
        inst = SparseRecoveryInstance(
            M=np.zeros((4, 6)), y=np.zeros(4), x_true=np.zeros(6)
        )
        with pytest.raises(DegenerateOperator):
            build_ista(inst)
        with pytest.raises(InvalidInput):
            build_ista(gen_sparse_instance(8, 4, 0.1, 0.1, seed=0), reg_weight=0.0)


class TestFista:
    def test_momentum_reference(self):
        assert fista_momentum(1.0) == GOLDEN

    def test_error_curve_shape_and_progress(self):
        inst = gen_sparse_instance(128, 64, 0.1, 0.1, seed=4)
        res = fista_run(build_ista(inst), 100)
        assert len(res.errors) == 101
        assert res.errors[-1] < 0.25 * res.errors[0]
        assert res.steps == 100

    def test_validation(self):
        inst = gen_sparse_instance(16, 8, 0.1, 0.1, seed=0)
        with pytest.raises(InvalidInput):
            fista_run(build_ista(inst), 0)
        with pytest.raises(DimensionError):
            fista_run(build_ista(inst), 5, x_ref=np.zeros(3))


class TestJacobi:
    def test_two_by_two_example(self):
        P = np.array([[2.0, 1.0], [1.0, 2.0]])
        q = np.array([3.0, 3.0])
        fpmap, B = jacobi_map(P, q)
        x_star = np.array([1.0, 1.0])
        assert np.max(np.abs(fpmap(x_star) - x_star)) == 0.0
        assert np.array_equal(B, np.array([[1.0, 0.5], [0.5, 1.0]]))
        lam = symmetric_eigenvalues(B)
        assert lam == pytest.approx([0.5, 1.5], rel=1e-14)
        rng = estimate_eigen_range(fpmap, x_star)
        assert rng.a == pytest.approx(0.5, abs=1e-12)
        assert rng.b == pytest.approx(1.5, abs=1e-12)

    def test_certificate_matches_general_eigensolver(self):
        # jacobi spectra cluster tightly, which the characteristic-polynomial
        # oracle cannot resolve; the general QR solver is the cross-check here
        inst = gen_jacobi_instance(24, seed=9)
        fpmap, B = jacobi_map(inst.P, inst.q)
        assert fpmap.jacobian_spectrum is not None
        spec_j = np.sort(fpmap.jacobian_spectrum(inst.x0))
        theirs = np.linalg.eigvals(np.eye(24) - B)
        assert np.max(np.abs(theirs.imag)) <= 1e-10
        assert np.max(np.abs(spec_j - np.sort(theirs.real))) <= 1e-8

    def test_no_certificate_for_asymmetric_system(self):
        P = np.array([[2.0, 1.0], [0.0, 2.0]])
        fpmap, _ = jacobi_map(P, np.zeros(2))
        assert fpmap.jacobian_spectrum is None

    def test_singular_diagonal_rejected(self):
        with pytest.raises(SingularDiagonal):
            jacobi_map(np.array([[0.0, 1.0], [1.0, 2.0]]), np.zeros(2))

    def test_generated_instance_range(self):
        # entry scale is tuned so D^{-1} P stays contracting near (0.68, 1.92)
        inst = gen_jacobi_instance(64, seed=0)
        _, B = jacobi_map(inst.P, inst.q)
        d = np.diag(inst.P)
        lam = symmetric_eigenvalues(np.sqrt(1 / d)[:, None] * inst.P * np.sqrt(1 / d)[None, :])
        assert 0.55 <= lam[0] <= 0.8
        assert 1.5 <= lam[-1] <= 2.0

    def test_large_instance_matches_reference_conditioning(self):
        inst = gen_jacobi_instance(512, seed=0)
        d = np.diag(inst.P)
        r = 1.0 / np.sqrt(d)
        lam = np.linalg.eigvalsh(r[:, None] * inst.P * r[None, :])
        assert lam[0] == pytest.approx(0.6766, rel=0.02)
        assert lam[-1] == pytest.approx(1.922, rel=0.02)

    def test_reproducible(self):
        a = gen_jacobi_instance(16, seed=5)
        b = gen_jacobi_instance(16, seed=5)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.x0, b.x0)


class TestGramGenerator:
    def test_reference_statistics(self):
        # at n=512, std=0.022 the top eigenvalue concentrates near 0.9766
        # and the bottom one is tiny, so 1 - lam_min stays within 5e-3 of 1
        tops, bottoms = [], []
        for seed in range(5):
            G = gen_gram_matrix(512, 0.022, seed=seed)
            lam = np.linalg.eigvalsh(G)
            tops.append(lam[-1])
            bottoms.append(1.0 - lam[0])
        assert np.mean(tops) == pytest.approx(0.9766, rel=0.10)
        assert np.mean(bottoms) == pytest.approx(1.0, abs=5e-3)

    def test_normalization_pins_top_eigenvalue(self):
        G = gen_gram_matrix(128, 0.022, seed=0, normalize_to=0.97)
        lam = np.linalg.eigvalsh(G)
        assert lam[-1] == pytest.approx(0.97, abs=1e-10)
        assert lam[0] >= 0.0 - 1e-12

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_gram_matrix(8, -0.1, seed=0)
        with pytest.raises(InvalidInput):
            gen_gram_matrix(8, 0.1, seed=0, normalize_to=0.0)


class TestTanhMaps:
    def test_affine_jacobian_and_certificate(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(6, 6)) * 0.3
        A = (M + M.T) / 2.0
        fpmap = tanh_affine_map(A)
        x = rng.normal(size=6) * 0.5
        assert np.max(np.abs(jacobian_fd(fpmap.eval, x) - fpmap.jacobian(x))) <= 1e-6
        assert fpmap.jacobian_spectrum is not None
        ours = np.sort(fpmap.jacobian_spectrum(x))
        theirs = np.linalg.eigvals(fpmap.jacobian(x))
        assert np.max(np.abs(ours - np.sort(theirs.real))) <= 1e-8

    def test_affine_spectrum_at_origin_is_matrix_spectrum(self):
        A = np.array([[0.4, 0.1], [0.1, 0.3]])
        fpmap = tanh_affine_map(A)
        assert np.sort(fpmap.jacobian_spectrum(np.zeros(2))) == pytest.approx(
            np.linalg.eigvalsh(A), rel=1e-12
        )

    def test_asymmetric_matrix_gets_no_certificate(self):
        A = np.array([[-0.6929, -0.2487], [-0.2870, 0.6005]])
        assert tanh_affine_map(A).jacobian_spectrum is None

    def test_equation_fixed_point_reference(self):
        fpmap = tanh_equation_map(np.array([0.1, 0.6]))
        x_star = np.array(TANH_SOLVE_X)
        assert np.max(np.abs(fpmap(x_star) - x_star)) <= 1e-15
        rng = estimate_eigen_range(fpmap, x_star)
        assert rng.a == pytest.approx(TANH_SOLVE_B[0], rel=1e-12)
        assert rng.b == pytest.approx(TANH_SOLVE_B[1], rel=1e-12)

    def test_equation_jacobian_is_diagonal(self):
        fpmap = tanh_equation_map(np.array([0.2, -0.4, 1.0]))
        x = np.array([0.3, 0.0, -0.7])
        J = fpmap.jacobian(x)
        assert np.max(np.abs(J - np.diag(np.diag(J)))) == 0.0
        assert np.max(np.abs(jacobian_fd(fpmap.eval, x) - J)) <= 1e-6


class TestPowerMap:
    def test_fixed_point_reference(self):
        fpmap = power_map()
        x_star = np.full(2, POWER_FP)
        assert np.max(np.abs(fpmap(x_star) - x_star)) <= 1e-13

    def test_jacobian_reference_at_296(self):
        J = power_map().jacobian(np.full(2, 2.96))
        assert J[0, 0] == pytest.approx(POWER_J_296[0], rel=1e-14)
        assert J[0, 1] == pytest.approx(POWER_J_296[1], rel=1e-14)
        assert J[1, 0] == J[0, 1] and J[1, 1] == J[0, 0]

    def test_jacobian_matches_finite_differences(self):
        fpmap = power_map()
        for x in ([2.0, 3.5], [0.5, 1.2], [4.0, 0.9]):
            x = np.asarray(x)
            assert np.max(np.abs(jacobian_fd(fpmap.eval, x) - fpmap.jacobian(x))) <= 1e-7

    def test_range_at_fixed_point(self):
        rng = estimate_eigen_range(power_map(), np.full(2, POWER_FP))
        assert rng.a == pytest.approx(POWER_B[0], rel=1e-10)
        assert rng.b == pytest.approx(POWER_B[1], rel=1e-10)

    def test_clamp_and_strict_modes(self):
        clamped = power_map()
        out = clamped(np.array([-1.0, 4.0]))
        assert np.all(np.isfinite(out))
        strict = power_map(clamp=False)
        with pytest.raises(DomainError):
            strict(np.array([-1.0, 4.0]))
        with pytest.raises(InvalidInput):
            power_map(p=1.5)


class TestRichardson:
    def test_fixed_points_solve_forward_problem(self):
        A = np.array([[0.5, 0.1], [0.1, 0.4]])
        forward = tanh_affine_map(A)
        x_true = np.array([0.3, -0.2])
        y = forward(x_true)
        fpmap = richardson_map(forward, y, 0.8)
        assert np.max(np.abs(fpmap(x_true) - x_true)) == 0.0

    def test_jacobian_and_spectrum_composition(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(5, 5)) * 0.3
        A = (M + M.T) / 2.0
        forward = tanh_affine_map(A)
        y = np.zeros(5)
        fpmap = richardson_map(forward, y, 0.8)
        x = rng.normal(size=5) * 0.4
        assert np.max(np.abs(jacobian_fd(fpmap.eval, x) - fpmap.jacobian(x))) <= 1e-6
        ours = np.sort(fpmap.jacobian_spectrum(x))
        oracle = brute_real_eigs_sorted(fpmap.jacobian(x))
        assert np.max(np.abs(ours - oracle)) <= 1e-8

    def test_validation(self):
        forward = tanh_affine_map(np.eye(2) * 0.5)
        with pytest.raises(DimensionError):
            richardson_map(forward, np.zeros(3), 0.8)
        with pytest.raises(InvalidInput):
            richardson_map(forward, np.zeros(2), 0.0)


class TestBlur:
    def test_matrix_structure(self):
        C = blur_matrix(10, 10)
        assert np.array_equal(C, C.T)
        # interior pixel: full 7x7 window
        row = C[55]
        assert np.count_nonzero(row) == 49
        assert row[55] == 1.5
        assert np.sum(row) == pytest.approx(1.5 + 48 * 0.1, rel=1e-14)
        # corner pixel: only the 4x4 quadrant survives
        assert np.count_nonzero(C[0]) == 16
        assert np.sum(C[0]) == pytest.approx(1.5 + 15 * 0.1, rel=1e-14)

    def test_matrix_is_cached_and_read_only(self):
        C1 = blur_matrix(9, 9)
        C2 = blur_matrix(9, 9)
        assert C1 is C2
        with pytest.raises(ValueError):
            C1[0, 0] = 5.0

    def test_spectrum_at_study_size(self):
        lam = np.linalg.eigvalsh(blur_matrix(28, 28))
        assert 0.34 < lam[0] < 0.36
        assert 6.0 < lam[-1] < 6.1

    def test_forward_reference_values(self):
        fpmap = blur_map(8, 8)
        out = fpmap(np.zeros(64))
        assert np.max(np.abs(out - 0.5)) == 0.0
        e = np.zeros(64)
        center = 8 * 4 + 4
        e[center] = 1.0
        out = fpmap(e)
        assert out[center] == pytest.approx(SIGMOID_15, rel=1e-15)

    def test_jacobian_and_certificate(self):
        fpmap = blur_map(8, 8)
        rng = np.random.default_rng(12)
        x = rng.uniform(0.1, 0.9, size=64)
        assert np.max(np.abs(jacobian_fd(fpmap.eval, x) - fpmap.jacobian(x))) <= 1e-6
        ours = np.sort(fpmap.jacobian_spectrum(x))
        theirs = np.linalg.eigvals(fpmap.jacobian(x))
        assert np.max(np.abs(theirs.imag)) <= 1e-8
        assert np.max(np.abs(ours - np.sort(theirs.real))) <= 1e-6

    def test_deblur_fixed_point_and_spectrum_composition(self):
        img = gen_synthetic_image(12, 12, seed=3)
        forward = blur_map(12, 12)
        y = forward(img.ravel())
        fpmap = deblur_map(y, 12, 12, relax=0.8)
        assert np.max(np.abs(fpmap(img.ravel()) - img.ravel())) == 0.0
        spec = fpmap.jacobian_spectrum(img.ravel())
        expect = 1.0 - 0.8 * np.asarray(forward.jacobian_spectrum(img.ravel()))
        assert np.max(np.abs(np.sort(spec) - np.sort(expect))) <= 1e-12


class TestSyntheticImages:
    def test_reproducible(self):
        a = gen_synthetic_image(28, 28, seed=0)
        b = gen_synthetic_image(28, 28, seed=0)
        c = gen_synthetic_image(28, 28, seed=0, trial=1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_value_ranges(self):
        for seed in range(6):
            img = gen_synthetic_image(28, 28, seed=seed)
            assert img.shape == (28, 28)
            assert 0.10 <= img.min() <= 0.18
            assert 0.4 <= img.max() <= 1.0

    def test_rejects_tiny_images(self):
        with pytest.raises(InvalidInput):
            gen_synthetic_image(8, 28, seed=0)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plain_fixed_point(fpmap):
    x0 = np.full(fpmap.dim, 0.5)
    return run_inertial(fpmap, plain_schedule(), x0, StopCriteria(max_iters=800)).x_final


class TestTracedMaps:
    def test_traced_maps_keep_their_range(self):
        # The benchmark tracer rebuilds each map a builder returns with
        # dataclasses.replace, wrapping eval and the spectrum hook; the range
        # must come out the same and through the wrapped hook.
        img = gen_synthetic_image(12, 12, seed=3)
        y12 = blur_map(12, 12)(img.ravel())
        cases = {  # builder -> (arguments, fixed point or None to iterate to one)
            "build_ista": ((gen_sparse_instance(32, 16, 0.1, 0.05, seed=11),), None),
            "blur_map": ((12, 12), None),
            "deblur_map": ((y12, 12, 12), img.ravel()),
            "jacobi_map": ((gen_jacobi_instance(16, 4).P, np.zeros(16)), np.zeros(16)),
            "power_map": ((), np.full(2, POWER_FP)),
            "tanh_affine_map": ((gen_gram_matrix(16, 0.1, 2),), np.zeros(16)),
            "tanh_equation_map": ((np.array([0.1, 0.6]),), np.array(TANH_SOLVE_X)),
        }
        calls = []

        def wrap(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)

            return wrapped

        hooked = []
        for module, attr, _, kind in _load_tracing().WRAPS:
            if kind != "builder":
                continue
            args, x_star = cases[attr]
            built = getattr(module, attr)(*args)
            fpmap = built.fpmap if isinstance(built, ProximalProblem) else built
            fpmap = fpmap[0] if isinstance(fpmap, tuple) else fpmap
            hook = fpmap.jacobian_spectrum
            if hook is None:
                continue
            traced = dataclasses.replace(fpmap, eval=wrap(fpmap.eval), jacobian_spectrum=wrap(hook))
            if isinstance(built, ProximalProblem):
                problem = dataclasses.replace(built, fpmap=traced)
                traced = problem.fpmap
                assert np.array_equal(fista_run(problem, 5).errors, fista_run(built, 5).errors)
            x = _plain_fixed_point(fpmap) if x_star is None else x_star
            assert estimate_eigen_range(traced, x) == estimate_eigen_range(fpmap, x), attr
            assert hook in calls, attr
            hooked.append(attr)
        assert sorted(hooked) == [
            "blur_map",
            "build_ista",
            "deblur_map",
            "jacobi_map",
            "tanh_affine_map",
            "tanh_equation_map",
        ]
