"""Fixed-point problems: shrinkage operators, sparse recovery, Jacobi
systems, toy nonlinear maps, and the sigmoid blur model, plus the seeded
generators that produce reproducible instances of each.

Maps that know their Jacobian as shift I + scale diag(q) A, with A
symmetric and q >= 0, state it once through _factored_jacobian, which
also attaches a jacobian_spectrum hook, so range estimation gets the
exact real spectrum instead of falling back to symmetrization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .core import FixedPointMap, _norm
from .errors import (
    DegenerateOperator,
    DimensionError,
    DomainError,
    InvalidInput,
    NonFiniteValue,
    SingularDiagonal,
)
from .spectral import (
    _REL_ASYM_TOL,
    _check_square,
    _rel_asymmetry,
    _similarity_spectrum,
    power_iteration,
)

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
    "FistaResult",
    "fista_momentum",
    "fista_run",
    "jacobi_map",
    "JacobiInstance",
    "gen_jacobi_instance",
    "gen_gram_matrix",
    "tanh_affine_map",
    "tanh_equation_map",
    "power_map",
    "richardson_map",
    "blur_matrix",
    "blur_map",
    "deblur_map",
    "gen_synthetic_image",
]


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic generator stream for (seed, trial).

    Every generator in this module derives its stream this way, so an
    instance is pinned by the pair alone regardless of platform.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def sigmoid(u):
    """Logistic function, computed without overflow for large |u|."""
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def soft_shrink(x, tau: float):
    """Soft shrinkage sign(x) * max(|x| - tau, 0)."""
    if tau < 0.0:
        raise InvalidInput(f"shrinkage threshold must be >= 0, got {tau}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def softplus(x, beta: float = 100.0):
    """Softplus log(1 + exp(beta x)) / beta in the overflow-free form
    max(x, 0) + log1p(exp(-beta |x|)) / beta."""
    if beta <= 0.0:
        raise InvalidInput(f"softplus sharpness must be > 0, got {beta}")
    x = np.asarray(x, dtype=float)
    # In place on one fresh temporary: x may be the caller's own array.
    t = np.multiply(beta, x, out=np.empty_like(x))
    np.abs(t, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    np.divide(t, beta, out=t)
    out = np.maximum(x, 0.0)
    out += t
    return out


def smooth_soft_shrink(x, tau: float, beta: float = 100.0):
    """Differentiable surrogate for soft shrinkage built from softplus.

    softplus(x - tau) - softplus(-x - tau) is an odd function whose
    deviation from soft shrinkage stays below 2 log(2) / beta everywhere
    and whose derivative lies in [0, 1], which is what lets an iteration
    built on it certify a real Jacobian spectrum.
    """
    if tau < 0.0:
        raise InvalidInput(f"shrinkage threshold must be >= 0, got {tau}")
    x = np.asarray(x, dtype=float)
    # Both shifts in one softplus call, which halves its per-call overhead.
    shifted = np.empty((2,) + x.shape)
    shifted[0] = x
    np.negative(x, out=shifted[1, ...])
    shifted -= tau
    both = softplus(shifted, beta)
    return both[0] - both[1]


def smooth_soft_shrink_grad(x, tau: float, beta: float = 100.0):
    """Derivative of smooth_soft_shrink with matching arguments, in [0, 1]."""
    if tau < 0.0:
        raise InvalidInput(f"shrinkage threshold must be >= 0, got {tau}")
    x = np.asarray(x, dtype=float)
    return sigmoid(beta * (x - tau)) + sigmoid(-beta * (x + tau))


_Hook = Callable[[np.ndarray], np.ndarray]


def _factored_jacobian(
    A: np.ndarray, q: _Hook, shift: float = 0.0, scale: float = 1.0
) -> Tuple[_Hook, Optional[_Hook]]:
    """(jacobian, jacobian_spectrum) hooks for J(x) = shift I + scale diag(q(x)) A.

    q(x) must be nonnegative. The spectrum hook, shift + scale times the
    real spectrum of diag(q(x)) A, is None unless A is symmetric to the
    tolerance of the spectral layer.
    """
    n = A.shape[0]

    def jacobian(x):
        return shift * np.eye(n) + scale * q(x)[:, None] * A

    spectrum = None
    if _rel_asymmetry(A) <= _REL_ASYM_TOL:

        def spectrum(x):
            return shift + scale * _similarity_spectrum(A, q(x))

    return jacobian, spectrum


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
    n: int, m: int, density: float, noise_sigma: float, seed: int, trial: int = 0
) -> SparseRecoveryInstance:
    """Random sparse recovery instance.

    Draw order is fixed (measurement matrix, support mask, signal values,
    noise) so (seed, trial) pins the instance bit for bit. The support is
    Bernoulli(density) per coordinate, values standard normal.
    """
    if n < 1 or m < 1:
        raise InvalidInput(f"need n, m >= 1, got n={n}, m={m}")
    if not (0.0 <= density <= 1.0):
        raise InvalidInput(f"density must be in [0, 1], got {density}")
    if noise_sigma < 0.0:
        raise InvalidInput(f"noise_sigma must be >= 0, got {noise_sigma}")
    rng = _trial_rng(seed, trial)
    M = rng.standard_normal((m, n))
    mask = rng.random(n) < density
    x = rng.standard_normal(n) * mask
    w = rng.standard_normal(m) * noise_sigma
    return SparseRecoveryInstance(M=M, y=M @ x + w, x_true=x)


@dataclass(frozen=True)
class ProximalProblem:
    """Relaxable shrinkage iteration x <- shrink(A x + b) for one instance.

    A = I - gamma M^T M is symmetric with gamma = 1 / lambda_max(M^T M),
    tau = reg_weight * gamma. The fixed-point map uses the smooth
    shrinkage; fista_run reuses gamma and tau with the exact one.
    """

    instance: SparseRecoveryInstance
    fpmap: FixedPointMap
    A: np.ndarray
    b: np.ndarray
    gamma: float
    tau: float


def build_ista(instance: SparseRecoveryInstance, reg_weight: float = 1.0) -> ProximalProblem:
    """Shrinkage-based fixed-point iteration for a sparse recovery instance.

    The step size is 1 over the largest eigenvalue of M^T M, found by
    power iteration. The Jacobian is diag of the shrinkage derivative
    (in [0, 1]) times symmetric A, so the map carries a certified real
    spectrum.
    """
    if reg_weight <= 0.0:
        raise InvalidInput(f"reg_weight must be > 0, got {reg_weight}")
    M, y = instance.M, instance.y
    n = instance.n
    G = M.T @ M
    lam_max = power_iteration(G).value
    if lam_max <= 0.0:
        raise DegenerateOperator("measurement operator is zero; no step size exists")
    gamma = 1.0 / lam_max
    tau = reg_weight * gamma
    A = np.eye(n) - gamma * G
    b = gamma * (M.T @ y)

    def step(x):
        return smooth_soft_shrink(A @ x + b, tau)

    jac, spectrum = _factored_jacobian(A, lambda x: smooth_soft_shrink_grad(A @ x + b, tau))
    fpmap = FixedPointMap(
        dim=n, eval=step, jacobian=jac, jacobian_spectrum=spectrum, name="ista"
    )
    return ProximalProblem(instance=instance, fpmap=fpmap, A=A, b=b, gamma=gamma, tau=tau)


@dataclass(frozen=True)
class FistaResult:
    errors: np.ndarray
    x_final: np.ndarray
    steps: int


def fista_momentum(t: float) -> float:
    """Momentum parameter update (1 + sqrt(1 + 4 t^2)) / 2."""
    return (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0


def fista_run(
    problem: ProximalProblem, iters: int, x_ref: Optional[np.ndarray] = None
) -> FistaResult:
    """Accelerated proximal gradient baseline with exact soft shrinkage.

    Uses the step size gamma and threshold tau of the problem build_ista
    made. Starts from zero with unit momentum. Errors are measured against
    x_ref, defaulting to the true signal of the instance.
    """
    if iters < 1:
        raise InvalidInput(f"iters must be >= 1, got {iters}")
    instance, gamma, tau = problem.instance, problem.gamma, problem.tau
    M, y = instance.M, instance.y
    n = instance.n
    ref = instance.x_true if x_ref is None else np.asarray(x_ref, dtype=float)
    if ref.shape != (n,):
        raise DimensionError(f"x_ref has shape {ref.shape}, expected ({n},)")

    x = np.zeros(n)
    z = x.copy()
    t = 1.0
    errors = [_norm(x - ref)]
    for _ in range(int(iters)):
        x_next = soft_shrink(z - gamma * (M.T @ (M @ z - y)), tau)
        t_next = fista_momentum(t)
        z = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
        errors.append(_norm(x - ref))
    return FistaResult(errors=np.asarray(errors), x_final=x, steps=int(iters))


def jacobi_map(P, q) -> Tuple[FixedPointMap, np.ndarray]:
    """Jacobi splitting for the linear system P x = q.

    Returns the fixed-point map x <- D^{-1}(q - (P - D) x) together with
    the iteration matrix B = D^{-1} P whose eigenvalue range drives the
    schedule. When P is symmetric with positive diagonal the map carries
    the exact-spectrum certificate (D^{-1} P is diagonally scaled
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
    R = P - np.diag(d)
    jac, spectrum = _factored_jacobian(P, lambda x: dinv, shift=1.0, scale=-1.0)
    fpmap = FixedPointMap(
        dim=n,
        eval=lambda x: dinv * (q - R @ x),
        jacobian=jac,
        jacobian_spectrum=spectrum if np.all(d > 0.0) else None,
        name="jacobi",
    )
    return fpmap, dinv[:, None] * P


@dataclass(frozen=True)
class JacobiInstance:
    """A random diagonally dominant system P x = 0 and a starting point."""

    P: np.ndarray
    q: np.ndarray
    x0: np.ndarray


def gen_jacobi_instance(n: int, seed: int, trial: int = 0) -> JacobiInstance:
    """Random symmetric positive definite system P = I + M^T M.

    The entry scale 0.03 * sqrt(512 / n) of M keeps the eigenvalue
    range of D^{-1} P roughly size independent, near (0.68, 1.92). The
    right-hand side is zero, so the solution is the origin and the error
    of an iterate is just its norm; the start is a standard normal draw.
    """
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    rng = _trial_rng(seed, trial)
    M = rng.standard_normal((n, n)) * (0.03 * math.sqrt(512.0 / n))
    P = np.eye(n) + M.T @ M
    x0 = rng.standard_normal(n)
    return JacobiInstance(P=P, q=np.zeros(n), x0=x0)


def gen_gram_matrix(
    n: int, std: float, seed: int, trial: int = 0, normalize_to: Optional[float] = None
) -> np.ndarray:
    """Random Gram matrix M^T M with M an n x n normal draw scaled by std.

    normalize_to rescales the result so its largest eigenvalue equals
    that value exactly, which pins the spectral gap at small n where a
    raw draw would land short of the intended range.
    """
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    if std <= 0.0:
        raise InvalidInput(f"std must be > 0, got {std}")
    rng = _trial_rng(seed, trial)
    M = rng.standard_normal((n, n)) * std
    G = M.T @ M
    if normalize_to is not None:
        if normalize_to <= 0.0:
            raise InvalidInput(f"normalize_to must be > 0, got {normalize_to}")
        lam_max = float(np.linalg.eigvalsh(G)[-1])
        if lam_max <= 0.0:
            raise DegenerateOperator("gram matrix has no positive eigenvalues")
        G = G * (normalize_to / lam_max)
    return G


def tanh_affine_map(A) -> FixedPointMap:
    """The map x <- tanh(A x), a contraction study with fixed point zero.

    Symmetric A gets the exact-spectrum certificate: the Jacobian is
    diag(sech^2(A x)) A with nonnegative scaling.
    """
    A = _check_square(A, "A")
    jac, spectrum = _factored_jacobian(A, lambda x: 1.0 / np.cosh(A @ x) ** 2)
    return FixedPointMap(
        dim=A.shape[0],
        eval=lambda x: np.tanh(A @ x),
        jacobian=jac,
        jacobian_spectrum=spectrum,
        name="tanh-affine",
    )


def tanh_equation_map(y) -> FixedPointMap:
    """The map x <- y - tanh(x), whose fixed point solves x + tanh(x) = y.

    The Jacobian -diag(sech^2(x)) is diagonal, so the spectrum is exact;
    every eigenvalue of B = I - J lies in (1, 2], making the plain
    iteration painfully slow while a tuned schedule is not.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DimensionError(f"y must be a vector, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NonFiniteValue("y must be finite")

    def jac(x):
        return np.diag(-1.0 / np.cosh(x) ** 2)

    return FixedPointMap(
        dim=y.size,
        eval=lambda x: y - np.tanh(x),
        jacobian=jac,
        jacobian_spectrum=lambda x: -1.0 / np.cosh(x) ** 2,
        name="tanh-equation",
    )


def power_map(
    p: float = 0.2, r: float = 0.5, clamp: bool = True, floor: float = 1e-9
) -> FixedPointMap:
    """Two-dimensional map (x1, x2) -> (x1^p + x2^r, x1^r + x2^p).

    With the default exponents the fixed point sits near (2.96, 2.96) on
    the diagonal. Fractional powers need positive arguments: clamp=True
    pins inputs at `floor` (iterations started in the positive quadrant
    stay far from it), clamp=False raises DomainError instead. The
    Jacobian uses the unclamped formula at the clamped point.
    """
    if not (0.0 < p < 1.0 and 0.0 < r < 1.0):
        raise InvalidInput(f"exponents must lie in (0, 1), got p={p}, r={r}")
    if floor <= 0.0:
        raise InvalidInput(f"floor must be > 0, got {floor}")

    def _domain(x):
        x = np.asarray(x, dtype=float)
        if clamp:
            return np.maximum(x, floor)
        if np.any(x <= 0.0):
            raise DomainError(f"power map needs positive components, got {x}")
        return x

    def step(x):
        x = _domain(x)
        return np.array([x[0] ** p + x[1] ** r, x[0] ** r + x[1] ** p])

    def jac(x):
        x = _domain(x)
        return np.array(
            [
                [p * x[0] ** (p - 1.0), r * x[1] ** (r - 1.0)],
                [r * x[0] ** (r - 1.0), p * x[1] ** (p - 1.0)],
            ]
        )

    return FixedPointMap(dim=2, eval=step, jacobian=jac, name="power-toy")


def richardson_map(forward: FixedPointMap, y, relax: float) -> FixedPointMap:
    """Residual update x <- x + relax * (y - g(x)) for inverting y = g(x).

    Fixed points are exactly the solutions of g(x) = y. The Jacobian is
    I - relax * J_g, so a spectrum certificate on g transfers directly.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (forward.dim,):
        raise DimensionError(f"y has shape {y.shape}, expected ({forward.dim},)")
    if not np.all(np.isfinite(y)):
        raise NonFiniteValue("y must be finite")
    if not (0.0 < relax and math.isfinite(relax)):
        raise InvalidInput(f"relax must be positive and finite, got {relax}")

    def step(x):
        return x + relax * (y - np.asarray(forward.eval(x), dtype=float))

    jac = None
    if forward.jacobian is not None:

        def jac(x):
            return np.eye(forward.dim) - relax * np.asarray(forward.jacobian(x))

    spectrum = None
    if forward.jacobian_spectrum is not None:

        def spectrum(x):
            return 1.0 - relax * np.asarray(forward.jacobian_spectrum(x), dtype=float)

    return FixedPointMap(
        dim=forward.dim,
        eval=step,
        jacobian=jac,
        jacobian_spectrum=spectrum,
        name=f"richardson({forward.name})" if forward.name else "richardson",
    )


@lru_cache(maxsize=8)
def blur_matrix(height: int, width: int) -> np.ndarray:
    """Dense linear blur operator on flattened height x width images.

    Each output pixel is 1.5 times its own value plus 0.1 times every
    neighbor in a 7 x 7 window, with zero padding at the borders. The
    kernel is symmetric under negation, so the matrix is exactly
    symmetric. Cached per shape; treat the result as read-only (it is
    returned write-protected).
    """
    if height < 1 or width < 1:
        raise InvalidInput(f"need height, width >= 1, got {height}, {width}")
    n = height * width
    half = 3
    K = np.full((2 * half + 1, 2 * half + 1), 0.1)
    K[half, half] = 1.5
    C = np.zeros((n, n))
    idx = np.arange(n).reshape(height, width)
    for di in range(-half, half + 1):
        for dj in range(-half, half + 1):
            r0, r1 = max(0, -di), min(height, height - di)
            c0, c1 = max(0, -dj), min(width, width - dj)
            C[
                idx[r0 + di : r1 + di, c0 + dj : c1 + dj].ravel(),
                idx[r0:r1, c0:c1].ravel(),
            ] = K[di + half, dj + half]
    C.setflags(write=False)
    return C


@lru_cache(maxsize=8)
def blur_map(height: int, width: int) -> FixedPointMap:
    """Saturating blur g(x) = sigmoid(C x) on flattened images.

    The Jacobian diag(s (1 - s)) C has strictly positive scaling over the
    symmetric blur matrix, so the spectrum certificate always applies.
    Cached per shape like blur_matrix, so the symmetry check of C runs
    once per shape, not once per deblurred image.
    """
    C = blur_matrix(height, width)

    def step(x):
        return sigmoid(C @ x)

    def slope(x):
        s = sigmoid(C @ x)
        return s * (1.0 - s)

    jac, spectrum = _factored_jacobian(C, slope)
    return FixedPointMap(
        dim=C.shape[0], eval=step, jacobian=jac, jacobian_spectrum=spectrum, name="sigmoid-blur"
    )


def deblur_map(y, height: int, width: int, relax: float = 0.8) -> FixedPointMap:
    """Residual deblurring iteration for observations y = sigmoid(C x)."""
    return richardson_map(blur_map(height, width), y, relax)


def gen_synthetic_image(height: int, width: int, seed: int, trial: int = 0) -> np.ndarray:
    """Random test image: a dim background with a few bright blobs.

    Background level is uniform in (0.10, 0.18); two to four Gaussian
    blobs with amplitude in (0.6, 1.0) and radius in (2, 5) are placed
    at least 5 pixels from the border (of the smaller dimension), taken
    pointwise max against the background, and the result clipped to
    [0, 1]. The dim background keeps the blur Jacobian away from its
    saturation extremes, which is what makes the inversion well posed.
    """
    margin = 5
    if min(height, width) <= 2 * margin:
        raise InvalidInput(
            f"image must exceed {2 * margin} pixels per side, got {height}x{width}"
        )
    rng = _trial_rng(seed, trial)
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
