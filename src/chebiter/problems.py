"""Fixed-point problems: shrinkage operators, sparse recovery, Jacobi
systems, toy nonlinear maps, and the sigmoid blur model, plus the seeded
generators that produce reproducible instances of each.

Every certified map (ISTA shrinkage, Jacobi, tanh(A x), x + tanh(x) = y,
the blur and its deblurring inverse) knows its Jacobian as
shift I + scale diag(q) A, with A symmetric and q >= 0, and states it
once through spectral._factored_jacobian, which gives both its jacobian
hook and a jacobian_spectrum hook: range estimation gets the exact real
spectrum instead of falling back to symmetrization. A is a dense array,
None (the identity) for the diagonal tanh_equation_map, or for the blur
and deblur a positive definite operator, given as a matrix-free matvec
together with its exact inverse (blur_map).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import FixedPointMap, IterationTrace, StopReason, _aligned_empty, _index, _norm
from .errors import (
    DegenerateOperator,
    DimensionError,
    InvalidInput,
    NonFiniteValue,
    SingularDiagonal,
)
from .spectral import _check_square, _factored_jacobian

__all__ = [
    "sigmoid",
    "soft_shrink",
    "softplus",
    "smooth_soft_shrink",
    "smooth_soft_shrink_grad",
    "SparseRecoveryInstance",
    "gen_sparse_instance",
    "ProximalProblem",
    "build_ista",
    "fista_momentum",
    "fista_run",
    "jacobi_map",
    "JacobiInstance",
    "gen_jacobi_instance",
    "gen_gram_matrix",
    "tanh_affine_map",
    "tanh_equation_map",
    "power_map",
    "blur_map",
    "deblur_map",
    "gen_synthetic_image",
]


def _seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator stream for a seed.

    Every generator in this module derives its stream this way, so an
    instance is pinned by its seed alone regardless of platform. The
    spawn key (0,) is kept from when a second index chose among streams:
    without it every seeded instance, and so every study output, changes.
    """
    seed = _index(seed, "seed")
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))


def sigmoid(u):
    """Logistic function, computed without overflow for large |u|."""
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    # One shared denominator: the same bits as the two-branch form
    # where(u >= 0, 1 / (1 + e), e / (1 + e)), with one division fewer.
    return np.where(u >= 0.0, 1.0, e) / (1.0 + e)


# Sharpness of the smooth shrinkage, the default of every function that
# takes one and the value build_ista's map uses.
_BETA = 100.0


def _check_tau(tau) -> None:
    # Written so that NaN fails it too.
    if not tau >= 0.0:
        raise InvalidInput(f"shrinkage threshold must be >= 0, got {tau}")


def _check_beta(beta) -> None:
    # Written so that NaN fails it too. inf fails as well: |z| (-beta) is
    # then 0 (-inf), NaN, at z = 0; the exact shrink is soft_shrink.
    if not 0.0 < beta < math.inf:
        raise InvalidInput(f"softplus sharpness must be finite and > 0, got {beta}")


def soft_shrink(x, tau: float):
    """Soft shrinkage sign(x) * max(|x| - tau, 0)."""
    _check_tau(tau)
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


# The zero of softplus's max(x, 0) as a 0-d array, which a ufunc takes
# without converting it on every call as it does a Python float.
_ZERO = np.zeros(())


def _softplus_inplace(z: np.ndarray, neg_beta, beta) -> np.ndarray:
    """softplus(z, beta) written over z itself, which must be a fresh float
    array, and returned; neg_beta is -beta.

    Every ufunc gets its output positionally (keyword out= costs a
    dictionary parse per call), except np.maximum, whose positional form
    is deprecated. -beta |z| is -|beta z| bit for bit, since beta > 0.
    """
    t = np.abs(z)
    np.multiply(t, neg_beta, t)
    np.exp(t, t)
    np.log1p(t, t)
    np.divide(t, beta, t)
    np.maximum(z, _ZERO, out=z)
    np.add(z, t, z)
    return z


# The (2, 1) column that one broadcast product turns u into the rows u, -u.
_SIGNS = np.array([[1.0], [-1.0]])


def _shrink(u: np.ndarray, tau, neg_beta, beta) -> np.ndarray:
    """smooth_soft_shrink of a 1-D float array, without the checks;
    neg_beta is -beta.

    Both softplus shifts run on one (2, n) array: the rows u and -u are
    exact products with +1 and -1, then minus tau.
    """
    z = np.multiply(_SIGNS, u)
    np.subtract(z, tau, z)
    _softplus_inplace(z, neg_beta, beta)
    return z[0] - z[1]


def softplus(x, beta: float = _BETA):
    """Softplus log(1 + exp(beta x)) / beta in the overflow-free form
    max(x, 0) + log1p(exp(-beta |x|)) / beta."""
    _check_beta(beta)
    # A C-ordered copy, since x may be the caller's own array, so that its
    # flat view is written in place; [()] turns a 0-d result into a numpy
    # scalar, as a ufunc on a 0-d array gives.
    x = np.array(x, dtype=float, order="C")
    return _softplus_inplace(x.reshape(-1), -beta, beta).reshape(x.shape)[()]


def smooth_soft_shrink(x, tau: float, beta: float = _BETA):
    """Differentiable surrogate for soft shrinkage built from softplus.

    softplus(x - tau) - softplus(-x - tau) is an odd function whose
    deviation from soft shrinkage stays below 2 log(2) / beta everywhere
    and whose derivative lies in [0, 1], which is what lets an iteration
    built on it certify a real Jacobian spectrum.
    """
    _check_tau(tau)
    _check_beta(beta)
    x = np.asarray(x, dtype=float)
    return _shrink(x.reshape(-1), tau, -beta, beta).reshape(x.shape)[()]


def smooth_soft_shrink_grad(x, tau: float, beta: float = _BETA):
    """Derivative of smooth_soft_shrink with matching arguments, in [0, 1]."""
    _check_tau(tau)
    _check_beta(beta)
    x = np.asarray(x, dtype=float)
    return sigmoid(beta * (x - tau)) + sigmoid(-beta * (x + tau))


@dataclass(frozen=True)
class SparseRecoveryInstance:
    """Measurements y = M x_true + noise of a sparse vector."""

    M: np.ndarray
    y: np.ndarray
    x_true: np.ndarray

    def __post_init__(self) -> None:
        if self.M.ndim != 2:
            raise DimensionError(f"M must be a matrix, got shape {self.M.shape}")
        m, n = self.M.shape
        if self.y.shape != (m,):
            raise DimensionError(f"y has shape {self.y.shape}, expected ({m},)")
        if self.x_true.shape != (n,):
            raise DimensionError(
                f"x_true has shape {self.x_true.shape}, expected ({n},)"
            )

    @property
    def m(self) -> int:
        return self.M.shape[0]

    @property
    def n(self) -> int:
        return self.M.shape[1]


def gen_sparse_instance(
    n: int, m: int, density: float, noise_sigma: float, seed: int
) -> SparseRecoveryInstance:
    """Random sparse recovery instance.

    Draw order is fixed (measurement matrix, support mask, signal values,
    noise) so the seed pins the instance bit for bit. The support is
    Bernoulli(density) per coordinate, values standard normal.
    """
    n, m = _index(n, "n"), _index(m, "m")
    if n < 1 or m < 1:
        raise InvalidInput(f"need n, m >= 1, got n={n}, m={m}")
    if not (0.0 <= density <= 1.0):
        raise InvalidInput(f"density must be in [0, 1], got {density}")
    if not 0.0 <= noise_sigma < math.inf:
        raise InvalidInput(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rng = _seeded_rng(seed)
    M = _aligned_empty((m, n))
    rng.standard_normal(out=M)
    mask = rng.random(n) < density
    x = rng.standard_normal(n) * mask
    # A noise level large enough to overflow gives inf entries, refused below.
    with np.errstate(over="ignore"):
        w = rng.standard_normal(m) * noise_sigma
        y = M @ x + w
    if not np.isfinite(y).all():
        raise NonFiniteValue(f"measurements overflow at noise_sigma={noise_sigma}")
    return SparseRecoveryInstance(M=M, y=y, x_true=x)


@dataclass(frozen=True)
class ProximalProblem:
    """Relaxable shrinkage iteration x <- shrink(A x + b) for one instance.

    A = I - gamma M^T M is symmetric with gamma = 1 / lambda_max(M^T M),
    and the shrinkage threshold tau equals gamma (unit regularization
    weight). The fixed-point map uses the smooth shrinkage; fista_run
    reuses gamma and tau with the exact one.
    """

    instance: SparseRecoveryInstance
    fpmap: FixedPointMap
    A: np.ndarray
    b: np.ndarray
    gamma: float
    tau: float


def build_ista(instance: SparseRecoveryInstance) -> ProximalProblem:
    """Shrinkage-based fixed-point iteration for a sparse recovery instance.

    The step size is 1 over the largest eigenvalue of M^T M, computed
    exactly on the smaller of the Grams M M^T and M^T M, which share their
    nonzero eigenvalues. The Jacobian is diag of the shrinkage derivative
    (in [0, 1]) times symmetric A, so the map carries a certified real
    spectrum.
    """
    M, y = instance.M, instance.y
    n = instance.n
    G = np.matmul(M.T, M, out=_aligned_empty((n, n)))
    gram = _check_square(M @ M.T if instance.m <= n else G, "Gram matrix")
    lam_max = float(np.linalg.eigvalsh(gram)[-1])
    if lam_max <= 0.0:
        raise DegenerateOperator("measurement operator is zero; no step size exists")
    gamma = 1.0 / lam_max
    tau = gamma
    _check_tau(tau)  # once here, since the map's step calls _shrink directly
    # A = I - gamma G in G's own aligned buffer, bit for bit what
    # eye(n) - gamma * G gives: 0 - gamma G, then 1 added on the diagonal.
    A = np.multiply(G, gamma, out=G)
    np.subtract(0.0, A, out=A)
    A.flat[:: n + 1] += 1.0
    # Measurements large enough to overflow M^T y give inf or nan entries,
    # refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        b = gamma * (M.T @ y)
    if not np.isfinite(b).all():
        raise NonFiniteValue("gamma M^T y overflows; the measurements are too large")
    # tau, -beta and beta as 0-d arrays: a ufunc converts a Python float
    # operand to an array on every call, which cost about 1 us per step.
    shrink_args = tuple(np.array(c) for c in (tau, -_BETA, _BETA))

    def step(x):
        # The same gemv as A @ x, bit for bit, with less call overhead.
        u = A.dot(x)
        u += b
        return _shrink(u, *shrink_args)

    jac, spectrum = _factored_jacobian(A, lambda x: smooth_soft_shrink_grad(A @ x + b, tau))
    fpmap = FixedPointMap(dim=n, eval=step, jacobian=jac, jacobian_spectrum=spectrum)
    return ProximalProblem(instance=instance, fpmap=fpmap, A=A, b=b, gamma=gamma, tau=tau)


def fista_momentum(t: float) -> float:
    """Momentum parameter update (1 + sqrt(1 + 4 t^2)) / 2."""
    return (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0


def fista_run(problem: ProximalProblem, iters: int) -> IterationTrace:
    """Accelerated proximal gradient baseline with exact soft shrinkage.

    Uses the step size gamma and threshold tau of the problem build_ista
    made. Starts from zero with unit momentum. Errors are measured against
    the true signal of the instance. Returns the trace a run_inertial run
    would: iters steps, each recorded with factor 1, and stop reason
    MAX_ITERS, since the baseline always runs its full budget.
    """
    iters = _index(iters, "iters")
    if iters < 1:
        raise InvalidInput(f"iters must be >= 1, got {iters}")
    instance, gamma, tau = problem.instance, problem.gamma, problem.tau
    M, y, ref = instance.M, instance.y, instance.x_true
    n = instance.n

    x = np.zeros(n)
    z = x.copy()
    t = 1.0
    errors = [_norm(x - ref)]
    for _ in range(iters):
        x_next = soft_shrink(z - gamma * (M.T @ (M @ z - y)), tau)
        t_next = fista_momentum(t)
        z = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
        errors.append(_norm(x - ref))
    return IterationTrace(
        errors=np.asarray(errors),
        factors_used=np.ones(iters),
        stop_reason=StopReason.MAX_ITERS,
        x_final=x,
    )


def jacobi_map(P, q) -> FixedPointMap:
    """Jacobi splitting x <- D^{-1}(q - (P - D) x) for the linear system P x = q.

    Its Jacobian is I - B with B = D^{-1} P, whose eigenvalue range drives
    the schedule. When P is symmetric with positive diagonal the map
    carries the exact-spectrum certificate (D^{-1} P is diagonally scaled
    symmetric).
    """
    P = _check_square(P, "P")
    q = np.asarray(q, dtype=float)
    n = P.shape[0]
    if q.shape != (n,):
        raise DimensionError(f"q has shape {q.shape}, expected ({n},)")
    if not np.all(np.isfinite(q)):
        raise NonFiniteValue("q must be finite")
    d = np.diag(P).copy()
    if np.any(d == 0.0):
        raise SingularDiagonal("P has zeros on the diagonal; the splitting is undefined")
    dinv = 1.0 / d
    # P - diag(d) bit for bit: P off the diagonal, d - d = +0.0 on it.
    R = _aligned_empty((n, n))
    np.copyto(R, P)
    R.flat[:: n + 1] = 0.0
    jac, spectrum = _factored_jacobian(P, lambda x: dinv, shift=1.0, scale=-1.0)
    return FixedPointMap(
        dim=n,
        # the gemv R @ x runs, bit for bit, with less call overhead
        eval=lambda x: dinv * (q - R.dot(x)),
        jacobian=jac,
        jacobian_spectrum=spectrum if np.all(d > 0.0) else None,
    )


@dataclass(frozen=True)
class JacobiInstance:
    """A random diagonally dominant system P x = 0 and a starting point."""

    P: np.ndarray
    x0: np.ndarray


def gen_jacobi_instance(n: int, seed: int) -> JacobiInstance:
    """Random symmetric positive definite system P = I + M^T M.

    The entry scale 0.03 * sqrt(512 / n) of M keeps the eigenvalue
    range of D^{-1} P roughly size independent, near (0.68, 1.92). The
    right-hand side is zero, so the solution is the origin and the error
    of an iterate is just its norm; the start is a standard normal draw.
    """
    n = _index(n, "n")
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    rng = _seeded_rng(seed)
    M = rng.standard_normal((n, n)) * (0.03 * math.sqrt(512.0 / n))
    P = np.eye(n) + M.T @ M
    x0 = rng.standard_normal(n)
    return JacobiInstance(P=P, x0=x0)


def gen_gram_matrix(
    n: int, std: float, seed: int, normalize_to: Optional[float] = None
) -> np.ndarray:
    """Random Gram matrix M^T M with M an n x n normal draw scaled by std.

    normalize_to rescales the result so its largest eigenvalue equals
    that value exactly, which pins the spectral gap at small n where a
    raw draw would land short of the intended range.
    """
    n = _index(n, "n")
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    if not 0.0 < std < math.inf:
        raise InvalidInput(f"std must be finite and > 0, got {std}")
    rng = _seeded_rng(seed)
    M = rng.standard_normal((n, n))
    # A std large enough to overflow gives inf or nan entries, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        M *= std
        G = np.matmul(M.T, M, out=_aligned_empty((n, n)))
    if not np.isfinite(G).all():
        raise NonFiniteValue(f"gram matrix overflows at std={std}")
    if normalize_to is not None:
        if not normalize_to > 0.0:
            raise InvalidInput(f"normalize_to must be > 0, got {normalize_to}")
        lam_max = float(np.linalg.eigvalsh(G)[-1])
        if lam_max <= 0.0:
            raise DegenerateOperator("gram matrix has no positive eigenvalues")
        G *= normalize_to / lam_max
    return G


def _sech2(u) -> np.ndarray:
    """sech^2(u) = 1 / cosh(u)^2. Past |u| ~ 355 the square overflows to
    inf (past ~ 710, cosh itself), and 1 / inf is +0.0, the true value
    rounded, so that overflow is no warning."""
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(u) ** 2


def tanh_affine_map(A) -> FixedPointMap:
    """The map x <- tanh(A x), a contraction study with fixed point zero.

    Symmetric A gets the exact-spectrum certificate: the Jacobian is
    diag(sech^2(A x)) A with nonnegative scaling.
    """
    A = _check_square(A, "A")
    jac, spectrum = _factored_jacobian(A, lambda x: _sech2(A @ x))
    return FixedPointMap(
        dim=A.shape[0],
        # the gemv A @ x runs, bit for bit, with less call overhead
        eval=lambda x: np.tanh(A.dot(x)),
        jacobian=jac,
        jacobian_spectrum=spectrum,
    )


def tanh_equation_map(y) -> FixedPointMap:
    """The map x <- y - tanh(x), whose fixed point solves x + tanh(x) = y.

    The Jacobian -diag(sech^2(x)) is the statement with no A and scale
    -1, so its spectrum is -sech^2(x) itself; every eigenvalue of
    B = I - J lies in (1, 2], making the plain iteration painfully slow
    while a tuned schedule is not.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DimensionError(f"y must be a vector, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NonFiniteValue("y must be finite")
    jac, spectrum = _factored_jacobian(None, _sech2, scale=-1.0)
    return FixedPointMap(
        dim=y.size, eval=lambda x: y - np.tanh(x), jacobian=jac, jacobian_spectrum=spectrum
    )


def power_map() -> FixedPointMap:
    """Two-dimensional map (x1, x2) -> (x1^p + x2^r, x1^r + x2^p), p = 0.2, r = 0.5.

    The fixed point sits near (2.96, 2.96) on the diagonal. Fractional
    powers need positive arguments, so inputs are clamped at 1e-9
    (iterations started in the positive quadrant stay far from it). The
    Jacobian uses the unclamped formula at the clamped point.
    """
    p, r = 0.2, 0.5

    def step(x):
        x = np.maximum(np.asarray(x, dtype=float), 1e-9)
        return np.array([x[0] ** p + x[1] ** r, x[0] ** r + x[1] ** p])

    def jac(x):
        x = np.maximum(np.asarray(x, dtype=float), 1e-9)
        return np.array(
            [
                [p * x[0] ** (p - 1.0), r * x[1] ** (r - 1.0)],
                [r * x[0] ** (r - 1.0), p * x[1] ** (p - 1.0)],
            ]
        )

    return FixedPointMap(dim=2, eval=step, jacobian=jac)


# The blur kernel: each pixel's output is _BLUR_SELF times its own value
# plus _BLUR_WEIGHT times the sum of the (2 _BLUR_HALF + 1)^2 window around
# it, itself included, with zero padding at the borders.
_BLUR_HALF = 3
_BLUR_SELF = 1.4
_BLUR_WEIGHT = 0.1


def _check_image_shape(height: int, width: int) -> Tuple[int, int]:
    height, width = _index(height, "height"), _index(width, "width")
    if height < 1 or width < 1:
        raise InvalidInput(f"need height, width >= 1, got {height}, {width}")
    return height, width


def _band(m: int) -> np.ndarray:
    """The m x m 0/1 matrix with ones where |i - j| <= _BLUR_HALF.

    band(h) @ img @ band(w) is the zero-padded window sum of an h x w
    image, so it defines the blur C = _BLUR_WEIGHT kron(band(h), band(w))
    + _BLUR_SELF I, which is exactly symmetric.
    """
    i = np.arange(m)
    return (np.abs(i[:, None] - i) <= _BLUR_HALF).astype(float)


def _blur(x, band_h: np.ndarray, band_w: np.ndarray) -> np.ndarray:
    """C x for the blur C on flattened images, without forming C.

    band_h and band_w are _band(height) and _band(width). The window sum
    is the two matrix products band_h @ img @ band_w, O(n (h + w)) work
    per call in two BLAS calls, so its bits depend on the BLAS kernel.
    Every product with 0 is taken, so one inf pixel gives inf on its
    window and NaN (0 * inf) on every other pixel.
    """
    img = np.asarray(x, dtype=float).reshape(band_h.shape[0], band_w.shape[0])
    box = band_h @ img @ band_w
    box *= _BLUR_WEIGHT
    box += _BLUR_SELF * img
    return box.ravel()


def _band_eigen(band_h: np.ndarray, band_w: np.ndarray):
    """(U_h, U_w, d) with C = (U_h kron U_w) diag(d.ravel()) (U_h kron U_w)^T.

    U_h, U_w are the eigenvectors of the two band matrices, and d is the
    h x w grid _BLUR_SELF + _BLUR_WEIGHT lam_h lam_w^T of C's eigenvalues.
    The band eigenvalues lie in [-1.63, 7), so every d is above 0.26: C
    is positive definite for every image shape.
    """
    lam_h, U_h = np.linalg.eigh(band_h)
    lam_w, U_w = np.linalg.eigh(band_w)
    return U_h, U_w, _BLUR_SELF + _BLUR_WEIGHT * np.outer(lam_h, lam_w)


def _unblur(x, U_h: np.ndarray, U_w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """C^-1 x for the blur C, from the factors of _band_eigen:
    U_h [(U_h^T img U_w) / d] U_w^T, four matrix products."""
    core = U_h.T @ np.asarray(x, dtype=float).reshape(d.shape) @ U_w
    core /= d
    return (U_h @ core @ U_w.T).ravel()


def _blur_model(height: int, width: int):
    """(g, q, C) of the blur g(x) = sigmoid(C x) on flattened images of a
    checked shape: g, the slope q = g (1 - g) of its Jacobian diag(q) C,
    and C as the pair (_blur, _unblur) for _factored_jacobian. The band
    matrices are built, and factored by eigh (_band_eigen), once here."""
    band_h, band_w = _band(height), _band(width)
    eigen = _band_eigen(band_h, band_w)

    def blur(x):
        return _blur(x, band_h, band_w)

    def g(x):
        return sigmoid(blur(x))

    def slope(x):
        s = g(x)
        return s * (1.0 - s)

    return g, slope, (blur, lambda x: _unblur(x, *eigen))


def blur_map(height: int, width: int) -> FixedPointMap:
    """Saturating blur g(x) = sigmoid(C x) on flattened images.

    eval, the slope q = s (1 - s) of the Jacobian diag(q) C and the
    spectrum certificate all apply C matrix-free as two band-matrix
    products (_blur_model). The Jacobian is stated through
    _factored_jacobian with C as the pair (_blur, _unblur). Its spectrum
    hook returns the smallest and the largest eigenvalue of diag(q) C,
    which C's exact symmetry and q >= 0 make real, at any image size: the
    largest by Lanczos on S = sqrt(q) C sqrt(q), the smallest by Lanczos
    on q_min S^-1, applied through the exact inverse _unblur
    (spectral._shift_invert_extremes). Only the jacobian hook assembles
    the dense C, from _blur, so a run that estimates its range never
    forms it, and that hook alone is limited to MAX_DENSE_DIM pixels.

    A non-finite pixel is not confined to its window: the products take
    0 * inf, so eval of an image with one inf pixel is 1.0 on that
    pixel's 7 x 7 window and NaN everywhere else. The runner, the
    fixed-point check and Lanczos all reject non-finite vectors first.
    """
    height, width = _check_image_shape(height, width)
    g, slope, C = _blur_model(height, width)
    jac, spectrum = _factored_jacobian(C, slope)
    return FixedPointMap(dim=height * width, eval=g, jacobian=jac, jacobian_spectrum=spectrum)


def deblur_map(y, height: int, width: int, relax: float) -> FixedPointMap:
    """Residual update x <- x + relax (y - g(x)), whose fixed points solve
    y = g(x) for the blur g of blur_map. Its Jacobian I - relax diag(q) C
    is the blur's statement with shift 1 and scale -relax, so it carries
    the same matrix-free certificate."""
    height, width = _check_image_shape(height, width)
    y = np.asarray(y, dtype=float)
    if y.shape != (height * width,):
        raise DimensionError(f"y has shape {y.shape}, expected ({height * width},)")
    if not np.all(np.isfinite(y)):
        raise NonFiniteValue("y must be finite")
    if not (0.0 < relax and math.isfinite(relax)):
        raise InvalidInput(f"relax must be positive and finite, got {relax}")
    g, slope, C = _blur_model(height, width)
    jac, spectrum = _factored_jacobian(C, slope, shift=1.0, scale=-relax)
    return FixedPointMap(
        dim=y.size, eval=lambda x: x + relax * (y - g(x)), jacobian=jac, jacobian_spectrum=spectrum
    )


def gen_synthetic_image(height: int, width: int, seed: int) -> np.ndarray:
    """Random test image: a dim background with a few bright blobs.

    Background level is uniform in (0.10, 0.18); two to four Gaussian
    blobs with amplitude in (0.6, 1.0) and radius in (2, 5) are placed
    at least 5 pixels from the border (of the smaller dimension), taken
    pointwise max against the background, and the result clipped to
    [0, 1]. The dim background keeps the blur Jacobian away from its
    saturation extremes, which is what makes the inversion well posed.
    """
    height, width = _check_image_shape(height, width)
    margin = 5
    if min(height, width) <= 2 * margin:
        raise InvalidInput(
            f"image must exceed {2 * margin} pixels per side, got {height}x{width}"
        )
    rng = _seeded_rng(seed)
    base = rng.uniform(0.10, 0.18)
    img = np.full((height, width), base)
    yy, xx = np.mgrid[0:height, 0:width]
    hi = min(height, width) - margin
    for _ in range(int(rng.integers(2, 5))):
        cx, cy = rng.uniform(margin, hi, 2)
        rad = rng.uniform(2.0, 5.0)
        amp = rng.uniform(0.6, 1.0)
        img = np.maximum(
            img, amp * np.exp(-(((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * (rad / 2) ** 2)))
        )
    return np.clip(img, 0.0, 1.0)
