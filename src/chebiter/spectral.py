"""Chebyshev polynomial bounds, eigenvalue utilities, and range estimation.

The quantities here answer two questions about a relaxed fixed-point
iteration whose error propagates through B = I - J(x*):

* how much does a full period of Chebyshev factors contract the error
  component at eigenvalue lambda of B (period_polynomial, and its max
  over [a, b] in closed form, period_contraction_bound);
* what eigenvalue range [a, b] should the schedule be built for
  (estimate_eigen_range and the eigensolver helpers underneath it).

Every certified map states its Jacobian J = shift I + scale diag(q(x)) A
here, through _factored_jacobian, which _similarity_spectrum certifies.
"""
from __future__ import annotations

import math
import warnings
from typing import Callable, Optional, Tuple

import numpy as np

from .core import EigenRange, FixedPointMap, InertialSchedule, _aligned_empty, _index, _norm
from .errors import (
    DimensionError,
    InvalidInput,
    InvalidRange,
    NonFiniteValue,
    NotAFixedPoint,
    NotConverged,
    NotSymmetric,
    SpectrumNotCertifiedReal,
)

__all__ = [
    "period_polynomial",
    "period_contraction_bound",
    "per_step_rate",
    "per_step_rate_limit",
    "period_spectral_radius",
    "jacobian_fd",
    "real_spectrum_via_similarity",
    "estimate_eigen_range",
]

# Largest n the dense paths accept: the similarity spectrum of a dense A
# (real_spectrum_via_similarity's too), the dense path of
# estimate_eigen_range and the jacobian hook of a map that gives A as an
# operator, which assembles A from its matvec. Their O(n^2) memory and
# O(n^3) time were only checked up to this size. A map that gives A as a
# matvec and its inverse (the blur) is certified by Lanczos, without cap.
MAX_DENSE_DIM = 1024

_REL_ASYM_TOL = 1e-10

# Constant stopping rules of _lanczos_extremes: the start vector's seed, the
# bound on the top Ritz residual relative to the top Ritz value, the steps
# between two Ritz checks, and the step cap.
_LANCZOS_SEED = 0
_LANCZOS_TOL = 1e-12
_LANCZOS_CHECK = 20
_LANCZOS_MAX_STEPS = 1000


def period_polynomial(lam, schedule: InertialSchedule):
    """Error amplification over one full period at eigenvalue lam of B.

    Equals prod_k (1 - w_k * lam). For the Chebyshev schedule this is the
    monic Chebyshev polynomial on [a, b] normalized to 1 at lam = 0.
    """
    lam = np.asarray(lam, dtype=float)
    out = np.ones_like(lam)
    for w in schedule.factors:
        out = out * (1.0 - w * lam)
    return out


def _period_exponent(rng: EigenRange, period: int) -> float:
    """t = T * acosh((b + a)/(b - a)), the exponent of every bound below.

    Checks T >= 1 and a > 0. A zero-width range gives t = inf, which
    makes each bound exactly 0.
    """
    T = _index(period, "period")
    if T < 1:
        raise InvalidInput(f"period must be >= 1, got {period}")
    if rng.a <= 0.0:
        raise InvalidRange(f"contraction bound needs a > 0, got range ({rng.a}, {rng.b})")
    if rng.a == rng.b:
        return math.inf
    return T * math.acosh((rng.b + rng.a) / (rng.b - rng.a))


def period_contraction_bound(rng: EigenRange, period: int) -> float:
    """Max of |period polynomial| over [a, b] for the Chebyshev schedule.

    In closed form sech(T * acosh((b + a)/(b - a))), evaluated as
    2 e^(-t) / (1 + e^(-2t)) so large arguments underflow gracefully
    instead of overflowing cosh. A zero-width range returns 0: one period
    of factors annihilates a single-point spectrum.
    """
    t = _period_exponent(rng, period)
    return 2.0 * math.exp(-t) / (1.0 + math.exp(-2.0 * t))


def per_step_rate(rng: EigenRange, period: int) -> float:
    """Geometric mean contraction per step: the period bound to the 1/T.

    Computed in the log domain so very long periods stay accurate; the
    result decreases toward per_step_rate_limit as T grows but never
    reaches it.
    """
    t = _period_exponent(rng, period)
    log_bound = math.log(2.0) - t - math.log1p(math.exp(-2.0 * t))
    return math.exp(log_bound / int(period))


def per_step_rate_limit(rng: EigenRange) -> float:
    """Infimum of the per-step rate over all periods: exp(-acosh(u)).

    For (0.1, 0.9) this is exactly 1/2; the constant best factor only
    reaches (b - a)/(b + a), which is worse whenever a < b.
    """
    return math.exp(-_period_exponent(rng, 1))


def period_spectral_radius(eigenvalues, schedule: InertialSchedule) -> float:
    """Spectral radius of the full-period propagation matrix.

    The period propagator is a polynomial in B, so its eigenvalues are the
    period polynomial evaluated at the eigenvalues of B, independent of
    the order the factors are applied in.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        raise InvalidInput("need at least one eigenvalue")
    return float(np.max(np.abs(period_polynomial(lam, schedule))))


def jacobian_fd(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Dense Jacobian of f at x by central differences.

    The step eps^(1/3) * (1 + |x|_inf) balances truncation and rounding
    error for the second-order central formula.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"x must be a vector, got shape {x.shape}")
    h = float(np.finfo(float).eps) ** (1.0 / 3.0) * (1.0 + float(np.max(np.abs(x))))
    n = x.size
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        cols.append((np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2.0 * h))
    J = np.column_stack(cols)
    if J.shape != (n, n):
        raise DimensionError(f"map output length {J.shape[0]} != input length {n}")
    return J


def _rel_asymmetry(S: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(S)), np.finfo(float).tiny)
    return float(np.linalg.norm(S - S.T)) / denom


def _check_square(S, what: str) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise NonFiniteValue(f"{what} has non-finite entries")
    return S


def _check_dense_size(n: int) -> None:
    if n > MAX_DENSE_DIM:
        raise InvalidInput(f"dense solver limited to n <= {MAX_DENSE_DIM}, got n = {n}")


def _check_symmetric(S, what: str) -> np.ndarray:
    """A finite square matrix within the dense size cap whose relative
    asymmetry |S - S^T|_F / |S|_F is at most _REL_ASYM_TOL."""
    S = _check_square(S, what)
    _check_dense_size(S.shape[0])
    asym = _rel_asymmetry(S)
    if asym > _REL_ASYM_TOL:
        raise NotSymmetric(
            f"{what} has relative asymmetry {asym:.3e} > {_REL_ASYM_TOL:.1e}"
        )
    return S


def real_spectrum_via_similarity(A, q) -> np.ndarray:
    """Spectrum of diag(q) @ A for symmetric A and nonnegative q, ascending.

    Although diag(q) A is not symmetric, its spectrum is real: rows where
    q_i = 0 are zero rows, so after moving them last the matrix is block
    triangular with a zero block, contributing exact zero eigenvalues;
    the remaining block D A' (D = diag of the positive q_i) is similar to
    the symmetric matrix D^(1/2) A' D^(1/2) via D^(1/2). The returned
    values are the eigenvalues of that symmetric matrix plus the zeros.
    """
    return _similarity_spectrum(_check_symmetric(A, "A"), q)


def _similarity_spectrum(A, q) -> np.ndarray:
    """Real eigenvalues of diag(q) A, including its smallest and largest,
    for symmetric A and nonnegative q; q is checked on every call.

    How A is given picks the algorithm. None, the identity, gets q itself,
    in its order. A dense ndarray, already known to be a finite square
    float array with relative asymmetry within _REL_ASYM_TOL (as when a
    map builder checked it once), gets the full ascending spectrum from
    eigvalsh, within the MAX_DENSE_DIM cap. A pair (matvec, inverse
    matvec) of a positive definite A gets only the smallest and the
    largest eigenvalue, at any size, from two Lanczos runs
    (_shift_invert_extremes).
    """
    dense = isinstance(A, np.ndarray)
    q = np.asarray(q, dtype=float)
    n = A.shape[0] if dense else q.size
    if dense:
        _check_dense_size(n)
    if q.shape != (n,):
        raise DimensionError(f"q has shape {q.shape}, expected ({n},)")
    if not np.all(np.isfinite(q)):
        raise NonFiniteValue("q has non-finite entries")
    if np.any(q < 0.0):
        raise InvalidInput("q must be nonnegative for the similarity to be real")
    if A is None:
        return q
    if not dense:
        return _shift_invert_extremes(*A, q)

    support = q > 0.0
    k = int(np.count_nonzero(support))
    if k == 0:
        return np.zeros(n)
    s = np.sqrt(q[support])
    # With every q_i > 0 the support is all of A: skip the n x n copy.
    A_s = A if k == n else A[np.ix_(support, support)]
    # The same products and the same symmetrization as
    # (core + core.T) / 2 with core = (s[:, None] * A_s) * s[None, :],
    # through two n x n arrays instead of four.
    core = s[:, None] * A_s
    core *= s
    sym = core + core.T
    sym /= 2.0
    lam = np.linalg.eigvalsh(sym)
    return np.sort(np.concatenate([lam, np.zeros(n - k)]))


_Hook = Callable[[np.ndarray], np.ndarray]


def _dense_operator(matvec: _Hook, n: int) -> np.ndarray:
    """The n x n matrix of a linear matvec, column k being matvec of the
    k-th identity column; refused with InvalidInput past MAX_DENSE_DIM."""
    _check_dense_size(n)
    return np.column_stack([matvec(e) for e in np.eye(n)])


def _factored_jacobian(
    A, q: _Hook, shift: float = 0.0, scale: float = 1.0
) -> Tuple[_Hook, Optional[_Hook]]:
    """(jacobian, jacobian_spectrum) hooks for J(x) = shift I + scale diag(q(x)) A,
    the one Jacobian statement of every certified map.

    q(x) must be nonnegative. A is a dense array, a pair (matvec,
    inverse matvec) of a symmetric positive definite operator, or None
    for the identity. The spectrum hook is shift + scale times the real
    eigenvalues of diag(q(x)) A that _similarity_spectrum gives: the full
    spectrum of a dense A, the two extremes of an operator, q(x) itself
    for the identity. It is None for a dense A that is not symmetric to
    _REL_ASYM_TOL. The jacobian hook of an operator assembles A from its
    matvec on every call (_dense_operator), so only up to MAX_DENSE_DIM.
    """
    dense = isinstance(A, np.ndarray)

    def jacobian(x):
        qx = q(x)
        n = qx.size
        M = A if dense else np.eye(n) if A is None else _dense_operator(A[0], n)
        # scale (q A), not (scale q) A: with scale = -relax the result is
        # I - relax (q A) bit for bit, since (-r) t = -(r t) exactly.
        return shift * np.eye(n) + scale * (qx[:, None] * M)

    spectrum = None
    if not dense or _rel_asymmetry(A) <= _REL_ASYM_TOL:

        def spectrum(x):
            return shift + scale * _similarity_spectrum(A, q(x))

    return jacobian, spectrum


def _shift_invert_extremes(matvec, inverse, q: np.ndarray) -> np.ndarray:
    """Smallest and largest eigenvalue of S = sqrt(q) A sqrt(q), for a
    positive definite A given as a matvec and its inverse, and checked
    nonnegative q.

    The largest is Lanczos on S converging the upper end alone. The
    smallest is 0.0 when some q_i is 0: those rows of S are zero and S on
    the other pixels is positive definite. Otherwise it comes from the
    spectral transformation of Ericsson & Ruhe (1980): Lanczos on
    v -> r * A^-1(r * v) with r = sqrt(q_min / q), which is q_min S^-1
    with entries bounded for any q > 0, so its top Ritz vector y is S's
    lowest eigenvector. The value is the Rayleigh quotient y.Sy, and the
    run stops once |Sy - (y.Sy) y| is at most _LANCZOS_TOL times the
    upper end, the same certificate as on S itself.
    """
    n = q.size
    s = np.sqrt(q)

    def S(v):
        return s * matvec(s * v)

    upper = _lanczos_extremes(S, n)
    q_min = q.min()
    if q_min == 0.0:
        return np.array([0.0, upper])
    r = np.sqrt(q_min / q)

    def rayleigh(y):
        Sy = S(y)
        rho = y @ Sy
        return rho, _norm(Sy - rho * y) / upper

    lower = _lanczos_extremes(lambda v: r * inverse(r * v), n, rayleigh)
    return np.array([lower, upper])


def _lanczos_extremes(matvec, n: int, rayleigh=None) -> float:
    """Largest eigenvalue of a symmetric operator on R^n.

    Lanczos (1950) from a fixed-seed normal start, with the three-term
    recurrence followed by one Gram-Schmidt pass against every stored
    vector (full reorthogonalization). Every _LANCZOS_CHECK steps, and
    when beta_m falls below _LANCZOS_TOL max |alpha|, the tridiagonal
    T_m is diagonalized. By default the run stops once the top Ritz
    residual beta_m |s_m| is at most _LANCZOS_TOL |theta| and returns the
    top Ritz value theta. rayleigh judges the top end on another operator
    instead: it maps the unit top Ritz vector y to the value to return
    and its residual relative to the tolerance's scale, and the run stops
    once that is at most _LANCZOS_TOL. Either way the run also stops at
    m = n, where the Ritz pairs are exact. The same operator gives the
    same bits. Raises NonFiniteValue on a non-finite product and
    NotConverged when min(n, _LANCZOS_MAX_STEPS) steps do not meet the
    rule; the stored basis is at most that many vectors of length n.
    """
    limit = min(n, _LANCZOS_MAX_STEPS)
    V = _aligned_empty((limit, n))
    alpha = np.empty(limit)
    beta = np.empty(limit)
    v = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    v /= _norm(v)
    alpha_max = 0.0
    for k in range(limit):
        m = k + 1
        V[k] = v
        w = np.asarray(matvec(v), dtype=float)
        if b"\0" in np.isfinite(w).tobytes():
            raise NonFiniteValue(f"operator returned non-finite values at Lanczos step {m}")
        alpha[k] = v @ w
        alpha_max = max(alpha_max, abs(alpha[k]))
        w -= alpha[k] * v
        if k:
            w -= beta[k - 1] * V[k - 1]
        w -= (V[:m] @ w) @ V[:m]
        beta[k] = _norm(w)
        if m % _LANCZOS_CHECK == 0 or m == limit or beta[k] <= _LANCZOS_TOL * alpha_max:
            off = beta[: m - 1]
            theta, S = np.linalg.eigh(np.diag(alpha[:m]) + np.diag(off, 1) + np.diag(off, -1))
            if rayleigh is None:
                value = theta[-1]
                residual = beta[k] * abs(S[-1, -1])
                bound = _LANCZOS_TOL * abs(value)
            else:
                y = S[:, -1] @ V[:m]
                value, residual = rayleigh(y / _norm(y))
                bound = _LANCZOS_TOL
            if m == n or residual <= bound:
                return value
        v = w / beta[k]
    raise NotConverged(
        f"Lanczos did not resolve the top eigenvalue within {limit} steps "
        f"(n = {n}); residual {residual:.3e}"
    )


def _verify_fixed_point(fpmap: FixedPointMap, x_star: np.ndarray, fp_tol: float) -> np.ndarray:
    x = np.asarray(x_star, dtype=float)
    if x.shape != (fpmap.dim,):
        raise DimensionError(f"x_star has shape {x.shape}, expected ({fpmap.dim},)")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("x_star has non-finite components")
    fx = np.asarray(fpmap.eval(x), dtype=float)
    # A defect norm that overflows is inf, which the check below refuses.
    # When |x| overflows, the tolerance would be inf and pass any point, so
    # both norms are then taken in units of x's largest component, and the
    # test reads defect <= fp_tol (1 / scale + |x|) in those units.
    scale = 1.0
    with np.errstate(over="ignore"):
        size = float(np.linalg.norm(x))
        if size == math.inf:
            scale = float(np.abs(x).max())
            x_scaled = x / scale
            size = float(np.linalg.norm(x_scaled))
            defect = float(np.linalg.norm(fx / scale - x_scaled))
        else:
            defect = float(np.linalg.norm(fx - x))
    tol = fp_tol * (1.0 / scale + size)
    if not defect <= tol:
        raise NotAFixedPoint(
            f"|f(x) - x| = {defect * scale:.3e} exceeds {tol * scale:.3e}; "
            "pass an actual fixed point"
        )
    return x


def estimate_eigen_range(
    fpmap: FixedPointMap,
    x_star: np.ndarray,
    fp_tol: float = 1e-6,
) -> EigenRange:
    """Measure the eigenvalue range of B = I - J at a fixed point.

    x_star must satisfy |f(x) - x| <= fp_tol * (1 + |x|); loosen fp_tol
    when probing the range at a pilot iterate that is only approximately
    stationary. The result is the raw measurement, whose left end noise
    can put at or below 0; clip it before building a schedule from it.
    Resolution order:

    * a map that certifies its Jacobian spectrum (jacobian_spectrum hook)
      is trusted directly, B eigenvalues being 1 minus that spectrum. The
      hook returns real eigenvalues of J(x) that include the smallest and
      the largest: the full spectrum for a dense map, the two extremes for
      the blur, whose certificate is matrix-free and has no size cap. Its
      result must be a finite 1-D array of 1 to dim values;
    * otherwise the Jacobian comes from the map's analytic jacobian or
      central differences, and the range is the extreme exact eigenvalues
      of the symmetric part of B, within the MAX_DENSE_DIM cap. A
      Jacobian that is not symmetric to 1e-10 gets a
      SpectrumNotCertifiedReal warning first. By Bendixson's theorem
      (1902) the symmetric part's range encloses the real parts of all
      eigenvalues of B, so it is valid but loose, and it is unsafe on a
      non-normal Jacobian: on a convection-diffusion Jacobi map, cheb8
      built on it grew the error 1.1e11 times before contracting. Such
      maps should provide the spectrum hook instead.
    """
    x = _verify_fixed_point(fpmap, x_star, fp_tol)

    if fpmap.jacobian_spectrum is not None:
        eig_j = np.asarray(fpmap.jacobian_spectrum(x), dtype=float)
        if eig_j.ndim != 1 or not 1 <= eig_j.size <= fpmap.dim:
            raise DimensionError(
                f"jacobian_spectrum returned shape {eig_j.shape}, expected 1 to "
                f"{fpmap.dim} values"
            )
        if not np.all(np.isfinite(eig_j)):
            raise NonFiniteValue("jacobian_spectrum returned non-finite values")
        eig_b = 1.0 - eig_j
        return EigenRange(float(eig_b.min()), float(eig_b.max()))

    # Refused before the Jacobian is formed: 2n evaluations for the differences.
    _check_dense_size(fpmap.dim)
    if fpmap.jacobian is not None:
        J = _check_square(fpmap.jacobian(x), "jacobian")
        if J.shape[0] != fpmap.dim:
            raise DimensionError(
                f"jacobian has shape {J.shape}, expected ({fpmap.dim}, {fpmap.dim})"
            )
    else:
        J = _check_square(jacobian_fd(fpmap.eval, x), "jacobian")
    B = np.eye(fpmap.dim) - J
    if _rel_asymmetry(B) > _REL_ASYM_TOL:
        warnings.warn(
            "Jacobian is not symmetric and the map does not certify a real "
            "spectrum; estimating from the symmetric part, whose range encloses "
            "the real parts of the eigenvalues (Bendixson) but is loose, and "
            "unsafe for a non-normal Jacobian",
            SpectrumNotCertifiedReal,
            stacklevel=2,
        )
    lam = np.linalg.eigvalsh((B + B.T) / 2.0)
    return EigenRange(float(lam[0]), float(lam[-1]))
