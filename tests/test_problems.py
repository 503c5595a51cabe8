"""Shrinkage operators, problem constructions, and instance generators."""
import dataclasses
import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from chebiter import (
    DegenerateOperator,
    DimensionError,
    EigenRange,
    InvalidInput,
    IterationTrace,
    NonFiniteValue,
    NotConverged,
    ProximalProblem,
    SingularDiagonal,
    SparseRecoveryInstance,
    StopReason,
    blur_map,
    build_ista,
    chebyshev_schedule,
    deblur_map,
    estimate_eigen_range,
    experiments,
    fista_momentum,
    fista_run,
    gen_gram_matrix,
    gen_jacobi_instance,
    gen_sparse_instance,
    gen_synthetic_image,
    jacobian_fd,
    jacobi_map,
    plain_schedule,
    power_map,
    problems,
    real_spectrum_via_similarity,
    run_inertial,
    sigmoid,
    smooth_soft_shrink,
    smooth_soft_shrink_grad,
    soft_shrink,
    softplus,
    spectral,
    tanh_affine_map,
    tanh_equation_map,
)
from chebiter.cli import EX_OK, main

from oracles import (
    blur_matrix,
    blur_slice_sum,
    brute_real_eigs_sorted,
    sigmoid_two_branch,
    symmetric_eigenvalues,
)

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

    def test_matches_two_branch_form_bit_for_bit(self):
        # The smooth shrinkage gradient calls sigmoid, so ISTA's outputs
        # keep their bytes only if the shared denominator changes nothing.
        special = [0.0, -0.0, np.inf, -np.inf, 1e-320, -1e-320, 36.8, -36.8, 745.2, -745.2, 800.0, -800.0]
        rng = np.random.default_rng(75)
        lengths = list(range(1, 65)) + [784, 5000]
        cases = special + [np.array(special)] + [rng.uniform(-800.0, 800.0, m) for m in lengths]
        cases += [rng.standard_normal(m) for m in lengths]
        for u in cases:
            ours = sigmoid(u)
            assert ours.shape == np.shape(u)
            assert ours.tobytes() == sigmoid_two_branch(u).tobytes()


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

    def test_ista_step_is_the_public_shrink(self):
        # build_ista's map runs the shrinkage kernel without the public
        # wrapper; its bits must be smooth_soft_shrink(A x + b, tau)'s.
        inst = gen_sparse_instance(256, 128, 0.1, 0.1, seed=0)
        prob = build_ista(inst)
        iterate = run_inertial(
            prob.fpmap, plain_schedule(), np.zeros(256), inst.x_true, 40
        ).x_final
        # with M = I, u = A 0 + b = gamma y, so y = +-1 puts u on +-tau exactly
        y = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
        eye = build_ista(SparseRecoveryInstance(M=np.eye(5), y=y, x_true=np.zeros(5)))
        assert np.abs(eye.A @ np.zeros(5) + eye.b)[:2].tolist() == [eye.tau, eye.tau]
        for prob, x in ((prob, np.zeros(256)), (prob, iterate), (eye, np.zeros(5))):
            want = smooth_soft_shrink(prob.A @ x + prob.b, prob.tau)
            assert prob.fpmap.eval(x).tobytes() == want.tobytes()


class TestShrinkageParameters:
    # NaN fails every parameter check, and so does beta = inf, which would
    # give NaN at 0 (|z| (-beta) = 0 (-inf)); the exact shrink is soft_shrink.
    def test_soft_shrink_rejects_nan_threshold(self):
        with pytest.raises(InvalidInput):
            soft_shrink(np.ones(3), np.nan)

    def test_softplus_rejects_nan_sharpness(self):
        with pytest.raises(InvalidInput):
            softplus(np.ones(3), np.nan)

    def test_smooth_soft_shrink_rejects_nan(self):
        with pytest.raises(InvalidInput):
            smooth_soft_shrink(np.ones(3), np.nan)
        with pytest.raises(InvalidInput):
            smooth_soft_shrink(np.ones(3), 0.1, beta=np.nan)

    def test_smooth_soft_shrink_grad_rejects_nan(self):
        with pytest.raises(InvalidInput):
            smooth_soft_shrink_grad(np.ones(3), np.nan)
        for beta in (np.nan, 0.0, -1.0):
            with pytest.raises(InvalidInput):
                smooth_soft_shrink_grad(np.ones(3), 0.1, beta=beta)

    def test_gram_generator_rejects_nan_std(self):
        for std in (np.nan, np.inf, 0.0, -0.1):
            with pytest.raises(InvalidInput, match="std must be finite and > 0"):
                gen_gram_matrix(8, std, seed=0)
        with pytest.raises(InvalidInput):
            gen_gram_matrix(8, 0.1, seed=0, normalize_to=np.nan)
        # a finite std whose Gram overflows is refused before eigvalsh, with
        # no numpy warning (the suite turns those into errors)
        for std in (1e200, 1e308):
            for normalize_to in (None, 0.97):
                with pytest.raises(NonFiniteValue, match="gram matrix overflows"):
                    gen_gram_matrix(8, std, seed=0, normalize_to=normalize_to)

    def test_infinite_sharpness_is_refused(self):
        for call in (
            lambda: softplus(0.0, np.inf),
            lambda: smooth_soft_shrink([0.5, -0.5], 0.5, beta=np.inf),
            lambda: smooth_soft_shrink_grad(0.5, 0.5, beta=np.inf),
        ):
            with pytest.raises(InvalidInput, match="finite"):
                call()


class TestNormsMatchLinalg:
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
        res = fista_run(problem, 60)
        assert res.errors.tobytes() == np.asarray(errors).tobytes()
        assert res.x_final.tobytes() == x.tobytes()


class TestSeededStreams:
    # Exact bits of a few raw draws at seed 0, one generator each; any change
    # to how a seed becomes a stream moves every study's output. Only values
    # whose bits no BLAS summation order or libm function can move are pinned.
    def test_seed_zero_draws_are_pinned(self):
        sparse = gen_sparse_instance(6, 4, 0.5, 0.1, seed=0)
        assert sparse.M[0].tobytes() == bytes.fromhex(
            "fa59bfaf5b19f73fd0e771e596abecbfa0ead6e7f28ce73f"
            "16f864058612783fc407bc53e74eeb3fb88063f4f199c43f"
        )
        assert sparse.x_true.tobytes() == bytes.fromhex(
            "4e1ac26fe3c8de3f0000000000000080000000000000008090a63b507bd7f0bf"
            "00000000000000000000000000000080"
        )
        assert gen_jacobi_instance(4, seed=0).x0.tobytes() == bytes.fromhex(
            "c07ae4a9eb85e03fe9b5fd714e11bcbf829e98cecbd3ea3fee7ff755a311e2bf"
        )
        assert gen_gram_matrix(1, 0.5, seed=0).tobytes() == bytes.fromhex("a95fece487ace03f")
        # the corner pixel is the background level: no blob reaches it
        img = gen_synthetic_image(12, 12, seed=0)
        assert img[0, 0].tobytes() == bytes.fromhex("4241df7aa774c63f")


class TestIntegerArguments:
    # Sizes, seeds and iteration counts are integers: numpy integers pass,
    # and floats, text and bools raise InvalidInput instead of a bare
    # TypeError or a silent truncation.
    def test_sizes(self):
        for bad in (16.0, 16.5, "16", True):
            for make in (
                lambda: gen_sparse_instance(bad, 8, 0.1, 0.1, seed=0),
                lambda: gen_sparse_instance(16, bad, 0.1, 0.1, seed=0),
                lambda: gen_jacobi_instance(bad, 0),
                lambda: gen_gram_matrix(bad, 0.1, seed=0),
                lambda: blur_map(bad, 12),
                lambda: blur_map(12, bad),
                lambda: gen_synthetic_image(bad, 12, 0),
                lambda: gen_synthetic_image(12, bad, 0),
            ):
                with pytest.raises(InvalidInput, match="integer"):
                    make()
        a = gen_sparse_instance(np.int64(16), np.int32(8), 0.1, 0.1, seed=0)
        assert a.M.tobytes() == gen_sparse_instance(16, 8, 0.1, 0.1, seed=0).M.tobytes()
        img = gen_synthetic_image(np.int64(12), np.uint8(12), 0)
        assert img.tobytes() == gen_synthetic_image(12, 12, 0).tobytes()
        assert blur_map(np.int32(3), np.int64(4)).dim == 12

    def test_seeds(self):
        makers = (
            lambda seed: gen_sparse_instance(8, 4, 0.1, 0.1, seed).M,
            lambda seed: gen_jacobi_instance(4, seed).P,
            lambda seed: gen_gram_matrix(4, 0.1, seed),
            lambda seed: gen_synthetic_image(12, 12, seed),
        )
        for make in makers:
            for bad in (3.0, 2.5, "3", True, np.bool_(True)):
                with pytest.raises(InvalidInput, match="integer"):
                    make(bad)
            with pytest.raises(InvalidInput, match=">= 0"):
                make(-1)
            assert make(np.uint8(3)).tobytes() == make(3).tobytes()

    def test_fista_iterations(self):
        prob = build_ista(gen_sparse_instance(16, 8, 0.1, 0.1, seed=0))
        for bad in (2.5, 2.0, "2", True):
            with pytest.raises(InvalidInput, match="integer"):
                fista_run(prob, bad)
        res = fista_run(prob, np.int64(2))
        assert res.steps == 2 and type(res.steps) is int and len(res.errors) == 3
        assert res.factors_used.tolist() == [1.0, 1.0]


class TestSparseInstances:
    def test_reproducible_and_trial_dependent(self):
        a = gen_sparse_instance(64, 32, 0.1, 0.1, seed=3)
        b = gen_sparse_instance(64, 32, 0.1, 0.1, seed=3)
        c = gen_sparse_instance(64, 32, 0.1, 0.1, seed=4)
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
        for noise in (-0.1, np.nan, np.inf):
            with pytest.raises(InvalidInput, match="noise_sigma must be finite and >= 0"):
                gen_sparse_instance(8, 4, 0.1, noise, seed=0)
        # a finite noise level whose draw overflows is refused, with no
        # numpy warning (the suite turns those into errors)
        with pytest.raises(NonFiniteValue, match=r"measurements overflow at noise_sigma=1e\+308"):
            gen_sparse_instance(8, 4, 0.1, 1e308, seed=0)
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
        tr = run_inertial(
            prob.fpmap, plain_schedule(), np.zeros(4), x_star, 5
        )
        assert tr.stop_reason is StopReason.TOLERANCE

    def test_overflowing_measurements_raise_typed_error(self):
        # finite measurements whose gamma M^T y overflows are refused, with
        # no numpy warning (the suite turns those into errors)
        M = np.array([[1.0, 1.0], [1.0, -1.0]])
        inst = SparseRecoveryInstance(M=M, y=np.array([1.5e308, 1.5e308]), x_true=np.zeros(2))
        with pytest.raises(NonFiniteValue, match="gamma M\\^T y overflows"):
            build_ista(inst)

    def test_step_size_against_dense_eigensolver(self):
        inst = gen_sparse_instance(48, 24, 0.15, 0.05, seed=7)
        prob = build_ista(inst)
        lam = symmetric_eigenvalues(inst.M.T @ inst.M)
        assert prob.gamma * lam[-1] == pytest.approx(1.0, rel=1e-8)
        assert np.max(np.abs(prob.A - prob.A.T)) == 0.0
        # wide, tall and square M: gamma comes from the smaller Gram exactly
        for n, m in ((48, 24), (24, 48), (30, 30)):
            M = gen_sparse_instance(n, m, 0.15, 0.05, seed=7).M
            small = M @ M.T if m <= n else M.T @ M
            inst = SparseRecoveryInstance(M=M, y=np.zeros(m), x_true=np.zeros(n))
            assert build_ista(inst).gamma == 1.0 / np.linalg.eigvalsh(small)[-1]

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
            prob.fpmap, plain_schedule(), np.zeros(32), np.zeros(32), 800
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
        M = np.ones((4, 6))
        M[1, 2] = np.nan
        with pytest.raises(NonFiniteValue):
            build_ista(SparseRecoveryInstance(M=M, y=np.zeros(4), x_true=np.zeros(6)))


def empty_at_offset(offset, shape):
    """Uninitialised float array whose data starts `offset` bytes past a
    64-byte boundary: a stand-in for core._aligned_empty."""
    size = int(np.prod(shape))
    buf = np.empty(size + 8)
    start = ((offset - buf.ctypes.data) % 64) // 8
    return buf[start : start + size].reshape(shape)


class TestOperandLayout:
    def test_operator_is_eye_minus_gamma_gram_bit_for_bit(self):
        # A is built in the Gram's own buffer; the Gram's zeros off the
        # diagonal must still give +0.0, as eye(n) - gamma G does
        M = np.zeros((3, 5))
        M[0, 0], M[1, 1:3], M[2, 3:] = 2.0, (1.0, -1.5), (0.5, 3.0)
        assert (M.T @ M == 0.0).any()
        for M in (M, M.T, gen_sparse_instance(256, 128, 0.1, 0.1, seed=3).M):
            m, n = M.shape
            prob = build_ista(SparseRecoveryInstance(M=M, y=np.ones(m), x_true=np.zeros(n)))
            want = np.eye(n) - prob.gamma * (M.T @ M)
            assert prob.A.tobytes() == want.tobytes()

    def test_jacobi_splitting_bit_for_bit(self):
        inst = gen_jacobi_instance(64, seed=2)
        P = inst.P.copy()
        P[3, 5] = P[5, 3] = -0.0
        d = np.diag(P).copy()
        x = np.random.default_rng(4).standard_normal(64)
        q = np.linspace(-1.0, 1.0, 64)
        want = (1.0 / d) * (q - (P - np.diag(d)) @ x)
        assert jacobi_map(P, q).eval(x).tobytes() == want.tobytes()

    def test_operands_start_on_cache_lines(self):
        for n, m in ((256, 128), (48, 24), (7, 5)):
            inst = gen_sparse_instance(n, m, 0.1, 0.1, seed=1)
            assert inst.M.ctypes.data % 64 == 0
            assert build_ista(inst).A.ctypes.data % 64 == 0
        for normalize_to in (None, 0.97):
            assert gen_gram_matrix(33, 0.1, seed=0, normalize_to=normalize_to).ctypes.data % 64 == 0

    def test_ista_traces_do_not_depend_on_operand_offset(self, monkeypatch):
        # OpenBLAS's matrix-vector kernels load differently at each offset
        # of the operand from a cache line; the bits must not move.
        def run():
            inst = gen_sparse_instance(256, 128, 0.1, 0.1, seed=0)
            prob = build_ista(inst)
            x0 = np.zeros(inst.n)
            sched = chebyshev_schedule(EigenRange(0.007, 1.0), 8)
            runs = [
                run_inertial(prob.fpmap, s, x0, inst.x_true, 300) for s in (plain_schedule(), sched)
            ]
            fista = fista_run(prob, 100)
            offsets = (inst.M.ctypes.data % 64, prob.A.ctypes.data % 64)
            return offsets, [r.errors.tobytes() + r.x_final.tobytes() for r in runs] + [
                fista.errors.tobytes() + fista.x_final.tobytes()
            ]

        offsets, want = run()
        assert offsets == (0, 0)
        for offset in range(8, 64, 8):
            monkeypatch.setattr(problems, "_aligned_empty", functools.partial(empty_at_offset, offset))
            offsets, got = run()
            assert offsets == (offset, offset)
            assert got == want


class TestFista:
    def test_momentum_reference(self):
        assert fista_momentum(1.0) == GOLDEN

    def test_error_curve_shape_and_progress(self):
        inst = gen_sparse_instance(128, 64, 0.1, 0.1, seed=4)
        res = fista_run(build_ista(inst), 100)
        assert len(res.errors) == 101
        assert res.errors[-1] < 0.25 * res.errors[0]
        assert res.steps == 100
        # recorded like a run_inertial run: a unit factor per step, and the
        # full budget as the stop reason
        assert isinstance(res, IterationTrace)
        assert res.factors_used.tobytes() == np.full(100, 1.0).tobytes()
        assert res.stop_reason is StopReason.MAX_ITERS

    def test_validation(self):
        inst = gen_sparse_instance(16, 8, 0.1, 0.1, seed=0)
        with pytest.raises(InvalidInput):
            fista_run(build_ista(inst), 0)


class TestJacobi:
    def test_two_by_two_example(self):
        P = np.array([[2.0, 1.0], [1.0, 2.0]])
        q = np.array([3.0, 3.0])
        fpmap = jacobi_map(P, q)
        x_star = np.array([1.0, 1.0])
        assert np.max(np.abs(fpmap(x_star) - x_star)) == 0.0
        rng = estimate_eigen_range(fpmap, x_star)
        assert rng.a == pytest.approx(0.5, abs=1e-12)
        assert rng.b == pytest.approx(1.5, abs=1e-12)

    def test_certificate_matches_general_eigensolver(self):
        # jacobi spectra cluster tightly, which the characteristic-polynomial
        # oracle cannot resolve; the general QR solver is the cross-check here
        inst = gen_jacobi_instance(24, seed=9)
        fpmap = jacobi_map(inst.P, np.zeros(24))
        B = inst.P / np.diag(inst.P)[:, None]
        assert fpmap.jacobian_spectrum is not None
        spec_j = np.sort(fpmap.jacobian_spectrum(inst.x0))
        theirs = np.linalg.eigvals(np.eye(24) - B)
        assert np.max(np.abs(theirs.imag)) <= 1e-10
        assert np.max(np.abs(spec_j - np.sort(theirs.real))) <= 1e-8

    def test_no_certificate_for_asymmetric_system(self):
        P = np.array([[2.0, 1.0], [0.0, 2.0]])
        fpmap = jacobi_map(P, np.zeros(2))
        assert fpmap.jacobian_spectrum is None

    def test_singular_diagonal_rejected(self):
        with pytest.raises(SingularDiagonal):
            jacobi_map(np.array([[0.0, 1.0], [1.0, 2.0]]), np.zeros(2))

    def test_generated_instance_range(self):
        # entry scale is tuned so D^{-1} P stays contracting near (0.68, 1.92)
        inst = gen_jacobi_instance(64, seed=0)
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

    def test_equation_hooks_keep_the_hand_formula_bits(self):
        # The statement with no A and scale -1 gives the bits of the formulas
        # -1/cosh^2 and its diagonal matrix, off-diagonal +0.0 included.
        # Past |x| ~ 355 the square of cosh overflows, and past ~ 710 cosh
        # itself; the slope is then 0 with no warning, and the statement's
        # shift 0.0 makes it +0.0, so the formula is written 0 - 1/cosh^2,
        # which is -1/cosh^2 bit for bit at every nonzero value.
        points = [0.0, -0.0, 0.7, -0.7, 20.0, -20.0, 5e-324, -1e-310, 0.3]
        points += [400.0, -400.0, 800.0, -800.0, 0.3]
        for k in range(1, 6):
            fpmap = tanh_equation_map(np.zeros(k))
            for start in range(len(points) - k + 1):
                x = np.array(points[start : start + k])
                with np.errstate(over="ignore"):
                    want = 0.0 - 1.0 / np.cosh(x) ** 2
                spectrum, J = fpmap.jacobian_spectrum(x), fpmap.jacobian(x)
                assert spectrum.shape == (k,) and J.shape == (k, k)
                assert spectrum.tobytes() == want.tobytes()
                assert J.tobytes() == np.diag(want).tobytes()

    def test_ranges_far_from_the_origin(self):
        # slopes of cosh overflows are +0.0, with no numpy warning (an error
        # in this suite): x + tanh(x) = (800, 0.5) at x = (799, 0.2526...),
        # and tanh(A x) at x = (1, 0), where A x = (800, 0)
        x2 = 0.25
        for _ in range(8):
            x2 -= (x2 + math.tanh(x2) - 0.5) / (1.0 + 1.0 / math.cosh(x2) ** 2)
        rng = estimate_eigen_range(tanh_equation_map([800.0, 0.5]), np.array([799.0, x2]))
        assert rng.a == 1.0
        assert rng.b == pytest.approx(1.0 + 1.0 / math.cosh(x2) ** 2, rel=1e-15)
        assert rng.b == pytest.approx(1.9388, abs=1e-4)
        fpmap = tanh_affine_map(np.diag([800.0, 0.5]))
        assert fpmap.jacobian(np.array([1.0, 0.0])).tolist() == [[0.0, 0.0], [0.0, 0.5]]
        rng = estimate_eigen_range(fpmap, np.array([1.0, 0.0]))
        assert (rng.a, rng.b) == (0.5, 1.0)


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
        out = power_map()(np.array([-1.0, 4.0]))
        assert np.all(np.isfinite(out))


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

    @pytest.mark.parametrize("height", range(1, 9))
    @pytest.mark.parametrize("width", range(1, 9))
    def test_matrix_matches_pixel_oracle(self, height, width):
        n = height * width
        oracle = np.zeros((n, n))
        for p in range(n):
            for q in range(n):
                dr = abs(p // width - q // width)
                dc = abs(p % width - q % width)
                if p == q:
                    oracle[p, q] = 1.5
                elif dr <= 3 and dc <= 3:
                    oracle[p, q] = 0.1
        assert np.array_equal(blur_matrix(height, width), oracle)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (3, 3), (9, 13), (12, 12), (28, 28)])
    def test_matrix_free_eval_matches_dense_product(self, shape):
        # eval never forms C; it must agree with the dense product up to the
        # rounding of two different 49-term summation orders.
        C = blur_matrix(*shape)
        rng = np.random.default_rng(sum(shape))
        for x in (rng.uniform(0.0, 1.0, C.shape[0]), rng.standard_normal(C.shape[0])):
            bound = 8 * np.finfo(float).eps * np.max(np.abs(x)) * 49
            bands = [problems._band(m) for m in shape]
            assert np.max(np.abs(problems._blur(x, *bands) - C @ x)) <= bound
            assert np.max(np.abs(blur_slice_sum(x, *shape) - C @ x)) <= bound
            got = blur_map(*shape).eval(x)
            assert np.max(np.abs(got - sigmoid(C @ x))) <= bound

    @pytest.mark.parametrize("shape", [(40, 40), (13, 128), (128, 128)])
    def test_band_kernel_matches_slice_sum_oracle_past_dense_cap(self, shape):
        # Past MAX_DENSE_DIM blur_matrix refuses to build, so the slice sums
        # are the reference, within the bound of the dense comparison above.
        n = shape[0] * shape[1]
        bands = [problems._band(m) for m in shape]
        rng = np.random.default_rng(n)
        for x in (rng.uniform(0.0, 1.0, n), rng.standard_normal(n)):
            bound = 8 * np.finfo(float).eps * np.max(np.abs(x)) * 49
            assert np.max(np.abs(problems._blur(x, *bands) - blur_slice_sum(x, *shape))) <= bound

    @pytest.mark.parametrize("shape", [(3, 3), (28, 28), (13, 128), (128, 128)])
    def test_band_kernel_is_symmetric(self, shape):
        # The Lanczos certificate needs u.Cv = v.Cu up to rounding: at most
        # (49 + n) eps |u|.C|v| for each side, C being entrywise >= 0.
        n = shape[0] * shape[1]
        bands = [problems._band(m) for m in shape]
        rng = np.random.default_rng(n + 1)
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        gap = abs(u @ problems._blur(v, *bands) - v @ problems._blur(u, *bands))
        scale = np.abs(u) @ blur_slice_sum(np.abs(v), *shape)
        assert gap <= 2 * (49 + n) * np.finfo(float).eps * scale

    def test_inf_pixel_spreads_nan(self):
        # The band products take 0 * inf, so one inf pixel leaves its 7 x 7
        # window saturated at 1.0 and every other pixel NaN; the slice sums
        # kept the rest finite. No library caller passes a non-finite vector.
        x = np.zeros((12, 12))
        x[5, 6] = np.inf
        with np.errstate(invalid="ignore"):
            out = blur_map(12, 12).eval(x.ravel()).reshape(12, 12)
        window = np.zeros((12, 12), dtype=bool)
        window[2:9, 3:10] = True
        assert np.all(out[window] == 1.0)
        assert np.all(np.isnan(out[~window]))

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
        ours = fpmap.jacobian_spectrum(x)
        theirs = np.linalg.eigvals(fpmap.jacobian(x))
        assert np.max(np.abs(theirs.imag)) <= 1e-8
        assert ours.shape == (2,)
        assert np.max(np.abs(ours - [theirs.real.min(), theirs.real.max()])) <= 1e-6

    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (8, 8), (12, 12), (28, 28)])
    def test_lanczos_certificate_matches_dense_spectrum(self, shape):
        # Pixels at 100 saturate the sigmoid, so their slope q is exactly 0.
        n = shape[0] * shape[1]
        C = blur_matrix(*shape)
        hook = blur_map(*shape).jacobian_spectrum
        x = np.random.default_rng(n).uniform(0.0, 1.0, n)
        saturated = x.copy()
        saturated[::3] = 100.0
        for point in (x, saturated):
            s = sigmoid(C @ point)
            q = s * (1.0 - s)
            dense = real_spectrum_via_similarity(C, q)
            ours = hook(point)
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(ours - dense[[0, -1]])) <= 1e-12 * scale
            assert np.array_equal(hook(point), ours)
        assert np.any(q == 0.0)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (8, 8), (28, 28)])
    def test_inverse_kernel_matches_dense_solve(self, shape):
        n = shape[0] * shape[1]
        C = blur_matrix(*shape)
        U_h, U_w, d = problems._band_eigen(*[problems._band(m) for m in shape])
        cond = d.max() / d.min()
        rng = np.random.default_rng(n)
        for x in (rng.uniform(0.0, 1.0, n), rng.standard_normal(n)):
            ref = np.linalg.solve(C, x)
            got = problems._unblur(x, U_h, U_w, d)
            assert np.max(np.abs(got - ref)) <= 8 * cond * np.finfo(float).eps * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape", [(40, 40), (13, 128), (128, 128)])
    def test_inverse_kernel_inverts_blur_past_dense_cap(self, shape):
        n = shape[0] * shape[1]
        bands = [problems._band(m) for m in shape]
        U_h, U_w, d = problems._band_eigen(*bands)
        cond = d.max() / d.min()
        rng = np.random.default_rng(n)
        for x in (rng.uniform(0.0, 1.0, n), rng.standard_normal(n)):
            back = problems._blur(problems._unblur(x, U_h, U_w, d), *bands)
            assert np.max(np.abs(back - x)) <= 8 * cond * np.finfo(float).eps * np.max(np.abs(x))

    def test_blur_is_positive_definite_with_margin(self):
        # The zero-q shortcut and the shift-invert lower end both rest on
        # C's eigenvalues 1.4 + 0.1 lam_h lam_w staying above 0.25.
        lams = [np.linalg.eigvalsh(problems._band(m)) for m in range(1, 65)]
        worst = min(
            np.min(problems._BLUR_SELF + problems._BLUR_WEIGHT * np.outer(lh, lw))
            for lh in lams
            for lw in lams
        )
        assert worst > 0.25


    def test_dense_matrix_only_within_cap(self):
        # 40 x 40 is past MAX_DENSE_DIM: the jacobian hook, which assembles
        # the dense C, is refused, the matrix-free range certificate is not.
        img = gen_synthetic_image(40, 40, seed=0).ravel()
        forward = blur_map(40, 40)
        with pytest.raises(InvalidInput):
            forward.jacobian(img)
        r = estimate_eigen_range(deblur_map(forward(img), 40, 40, 0.8), img)
        assert 0.0 < r.a < r.b < 1.0
        with pytest.raises(InvalidInput):
            blur_map(0, 5)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (8, 8), (12, 12), (28, 28)])
    def test_jacobian_is_slope_times_dense_blur_bit_for_bit(self, shape):
        # The jacobian hooks assemble C from the matvec; entrywise that is
        # 0/1 window counts times 0.1 plus 1.4 on the diagonal, exactly the
        # Kronecker form, so the bits match. Pixels at 100 give slope 0.
        n = shape[0] * shape[1]
        C = blur_matrix(*shape)
        forward = blur_map(*shape)
        x = np.random.default_rng(n).uniform(0.0, 1.0, n)
        x[::5] = 100.0
        g = forward(x)
        slope = g * (1.0 - g)
        J = slope[:, None] * C
        assert forward.jacobian(x).tobytes() == J.tobytes()
        y = forward(np.random.default_rng(n + 1).uniform(0.0, 1.0, n))
        residual = np.eye(n) - 0.8 * J
        assert deblur_map(y, *shape, 0.8).jacobian(x).tobytes() == residual.tobytes()

    def test_deblur_fixed_point_and_spectrum_composition(self):
        img = gen_synthetic_image(12, 12, seed=3)
        forward = blur_map(12, 12)
        y = forward(img.ravel())
        fpmap = deblur_map(y, 12, 12, relax=0.8)
        assert np.max(np.abs(fpmap(img.ravel()) - img.ravel())) == 0.0
        # Exact: the scale -0.8 gives (-0.8) lam = -(0.8 lam), and 1 + (-t) is 1 - t.
        spec = fpmap.jacobian_spectrum(img.ravel())
        expect = 1.0 - 0.8 * np.asarray(forward.jacobian_spectrum(img.ravel()))
        assert spec.tobytes() == expect.tobytes()

    def test_deblur_validation(self):
        y = np.zeros(12)
        with pytest.raises(DimensionError, match=r"y has shape \(13,\), expected \(12,\)"):
            deblur_map(np.zeros(13), 3, 4, 0.8)
        with pytest.raises(DimensionError, match=r"expected \(12,\)"):
            deblur_map(np.zeros((3, 4)), 3, 4, 0.8)
        for bad in (np.inf, np.nan):
            with pytest.raises(NonFiniteValue, match="y must be finite"):
                deblur_map(np.where(np.arange(12) == 5, bad, 0.0), 3, 4, 0.8)
        for relax in (0.0, math.inf, math.nan):
            with pytest.raises(InvalidInput, match="relax must be positive and finite"):
                deblur_map(y, 3, 4, relax)


def blur_pair(height, width):
    """(C matvec, C^-1 matvec) as blur_map hands them to the certificate."""
    bands = [problems._band(m) for m in (height, width)]
    eigen = problems._band_eigen(*bands)
    return (lambda x: problems._blur(x, *bands)), (lambda x: problems._unblur(x, *eigen))


class TestShiftInvertCertificate:
    """The blur's two-run certificate on S = sqrt(q) C sqrt(q)."""

    @staticmethod
    def extreme_q(n, seed):
        q = np.random.default_rng(seed).uniform(0.05, 0.25, n)
        q[::7] = 1e-300
        q[3::11] = 1e-16
        return q

    @pytest.mark.parametrize("shape", [(8, 8), (28, 28)])
    def test_tiny_slopes_stay_finite_and_exact(self, shape):
        n = shape[0] * shape[1]
        q = self.extreme_q(n, n)
        dense = real_spectrum_via_similarity(blur_matrix(*shape), q)
        ours = spectral._similarity_spectrum(blur_pair(*shape), q)
        assert np.all(np.isfinite(ours))
        assert np.max(np.abs(ours - dense[[0, -1]])) <= 1e-12 * np.max(np.abs(dense))

    def test_zero_slope_gives_exact_zero_lower_end(self):
        q = self.extreme_q(64, 1)
        q[10] = 0.0
        ours = spectral._similarity_spectrum(blur_pair(8, 8), q)
        assert ours[0] == 0.0
        dense = real_spectrum_via_similarity(blur_matrix(8, 8), q)
        assert abs(ours[1] - dense[-1]) <= 1e-12 * dense[-1]

    @pytest.mark.parametrize("shape", [(8, 8), (28, 28)])
    def test_lower_end_residual_on_dense_s(self, shape, monkeypatch):
        # The lower end is the Rayleigh quotient of the inverse run's last
        # Ritz vector y; its residual on the dense S meets the certificate.
        seen = []
        lanczos = spectral._lanczos_extremes

        def spy(matvec, n, rayleigh=None):
            if rayleigh is not None:
                inner = rayleigh

                def rayleigh(y):
                    seen.append((y, *inner(y)))
                    return seen[-1][1:]

            return lanczos(matvec, n, rayleigh)

        monkeypatch.setattr(spectral, "_lanczos_extremes", spy)
        n = shape[0] * shape[1]
        q = np.random.default_rng(n + 2).uniform(0.05, 0.25, n)
        s = np.sqrt(q)
        S = s[:, None] * blur_matrix(*shape) * s[None, :]
        lower, upper = spectral._similarity_spectrum(blur_pair(*shape), q)
        y, rho, _ = seen[-1]
        assert lower == rho
        lam = np.linalg.eigvalsh(S)
        assert np.linalg.norm(S @ y - rho * y) <= 1e-12 * np.max(np.abs(lam))
        assert abs(upper - lam[-1]) <= 1e-12 * lam[-1]

    def test_each_run_rejects_non_finite_products(self):
        blur, unblur = blur_pair(8, 8)
        q = np.random.default_rng(3).uniform(0.05, 0.25, 64)
        for bad in (np.inf, np.nan):

            def poisoned(v):
                return np.full(64, bad)

            with pytest.raises(NonFiniteValue):
                spectral._similarity_spectrum((poisoned, unblur), q)
            with pytest.raises(NonFiniteValue):
                spectral._similarity_spectrum((blur, poisoned), q)

    def test_each_run_raises_at_the_step_cap(self, monkeypatch):
        blur, unblur = blur_pair(28, 28)
        inverse_calls = []

        def counted(v):
            inverse_calls.append(1)
            return unblur(v)

        monkeypatch.setattr(spectral, "_LANCZOS_MAX_STEPS", 20)
        q = np.random.default_rng(4).uniform(0.05, 0.25, 784)
        with pytest.raises(NotConverged):
            spectral._similarity_spectrum((blur, counted), q)
        assert not inverse_calls
        # One steep pixel: S is nearly rank one, so the upper end converges
        # within the cap, while the inverse run needs about 40 steps.
        q = np.full(784, 1e-16)
        q[400] = 1.0
        with pytest.raises(NotConverged):
            spectral._similarity_spectrum((blur, counted), q)
        assert len(inverse_calls) == 20

    def test_repeat_calls_give_identical_bits(self):
        hook = blur_map(28, 28).jacobian_spectrum
        x = gen_synthetic_image(28, 28, seed=2).ravel()
        first = hook(x)
        assert hook(x).tobytes() == first.tobytes()
        q = self.extreme_q(784, 9)
        pair = blur_pair(28, 28)
        assert (
            spectral._similarity_spectrum(pair, q).tobytes()
            == spectral._similarity_spectrum(pair, q).tobytes()
        )


class TestSyntheticImages:
    def test_reproducible(self):
        a = gen_synthetic_image(28, 28, seed=0)
        b = gen_synthetic_image(28, 28, seed=0)
        c = gen_synthetic_image(28, 28, seed=1)
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


def test_certified_maps_state_their_jacobian_once():
    # Every certified builder's hooks come from spectral._factored_jacobian,
    # the one statement J = shift I + scale diag(q(x)) A; none writes its own.
    maps = {
        "build_ista": build_ista(gen_sparse_instance(32, 16, 0.1, 0.05, seed=11)).fpmap,
        "jacobi_map": jacobi_map(gen_jacobi_instance(16, 4).P, np.zeros(16)),
        "tanh_affine_map": tanh_affine_map(gen_gram_matrix(16, 0.1, 2)),
        "tanh_equation_map": tanh_equation_map(np.array([0.1, 0.6])),
        "blur_map": blur_map(4, 5),
        "deblur_map": deblur_map(np.full(20, 0.5), 4, 5, 0.8),
    }
    for name, fpmap in maps.items():
        for hook in (fpmap.jacobian, fpmap.jacobian_spectrum):
            assert hook.__qualname__.startswith("_factored_jacobian."), name


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plain_fixed_point(fpmap):
    x0 = np.full(fpmap.dim, 0.5)
    return run_inertial(fpmap, plain_schedule(), x0, np.zeros(fpmap.dim), 800).x_final


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
            "deblur_map": ((y12, 12, 12, 0.8), img.ravel()),
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

    def test_tracer_installs_around_the_cli(self, capsys):
        # The benchmark's --trace 1 installs the tracer over the drivers,
        # run_inertial, inertial_step and the map builders, all at once.
        tracer = _load_tracing().Tracer()
        tracer.unit_id = 0
        tracer.install()
        try:
            assert main(["bounds"]) == EX_OK
            assert main(["toy", "--map", "power"]) == EX_OK
            before = len(tracer.cheb_steps)
            assert main(["toy", "--map", "tanh"]) == EX_OK
        finally:
            tracer.uninstall()
        assert tracer.steps > 0
        # the tanh study's pilot is a Chebyshev run, ahead of its cheb8 run
        fpmap = tanh_equation_map(np.array([0.1, 0.6]))
        coarse = chebyshev_schedule(EigenRange(1.0, 2.0 - 1e-6), 8)
        pilot = run_inertial(fpmap, coarse, np.zeros(2), np.zeros(2), 40)
        assert tracer.cheb_steps[before:][0] == pilot.steps > 0
        assert len(tracer.cheb_steps) == before + 2
        # uninstall put every attribute back
        assert experiments.run_inertial is run_inertial and problems.blur_map is blur_map

    def test_layer_metrics_of_a_traced_cli(self, capsys):
        # --trace 1 reduces the spans with layer_metrics, whose
        # core.accept_ratio divides the accepted steps by the calls of
        # core.inertial_step: a runner that stopped calling the step through
        # that attribute would make it divide by zero.
        tracing = _load_tracing()
        tracer = tracing.Tracer()
        traced_main = tracer.wrap(main, "cli.main")
        tracer.unit_id = 0
        tracer.install()
        try:
            assert traced_main(["toy", "--map", "tanh"]) == EX_OK
            ista = ["ista", "--seeds", "1", "--n", "32", "--m", "16", "--iters", "100"]
            assert traced_main(ista) == EX_OK
        finally:
            tracer.uninstall()
        files = {"traceio_rows": 10, "traceio_bytes": 400, "useful_steps": 6, "cheb_steps": 8}
        metrics = tracing.layer_metrics(tracer, 1, files, [1.0, 1.0])
        assert all(math.isfinite(value) for value, _ in metrics.values()), metrics
        assert metrics["core.accept_ratio"][0] == 1.0
        assert metrics["core.steps"][0] == tracer.steps > 0
        assert metrics["problems.map_eval_us"][0] > 0.0
        assert metrics["core.step_overhead_us"][0] > 0.0
