"""Chebyshev polynomial bounds, eigenvalue utilities, and range estimation.

The quantities here answer two questions about a relaxed fixed-point
iteration whose error propagates through B = I - J(x*):

* how much does a full period of Chebyshev factors contract the error
  component at eigenvalue lambda of B (period_polynomial, and its max
  over [a, b] in closed form, period_contraction_bound);
* what eigenvalue range [a, b] should the schedule be built for
  (estimate_eigen_range and the eigensolver helpers underneath it).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EigenRange, FixedPointMap, InertialSchedule
from .errors import (
    DimensionError,
    InvalidInput,
    InvalidRange,
    NonFiniteValue,
    NotAFixedPoint,
    NotSymmetric,
    SpectrumNotCertifiedReal,
)

__all__ = [
    "chebyshev_eval",
    "monic_chebyshev",
    "period_polynomial",
    "period_contraction_bound",
    "per_step_rate",
    "per_step_rate_limit",
    "ConvergenceBound",
    "convergence_bound",
    "period_spectral_radius",
    "jacobian_fd",
    "symmetric_eigenvalues",
    "real_spectrum_via_similarity",
    "estimate_eigen_range",
]

# Largest n the dense symmetric eigensolvers accept: symmetric_eigenvalues,
# the similarity spectrum behind every jacobian_spectrum hook and the dense
# path of estimate_eigen_range. Their O(n^2) memory and O(n^3) time were
# only checked up to this size.
MAX_DENSE_DIM = 1024

_REL_ASYM_TOL = 1e-10


def chebyshev_eval(x, degree: int):
    """Chebyshev polynomial C_degree evaluated by the three-term recursion.

    Works for scalar or array x, inside or outside [-1, 1]. On [-1, 1]
    it agrees with cos(degree * arccos(x)).
    """
    d = int(degree)
    if d < 0:
        raise InvalidInput(f"degree must be >= 0, got {degree}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if d == 0:
        return prev
    cur = x.copy()
    for _ in range(d - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def monic_chebyshev(x, rng: EigenRange, degree: int):
    """Monic polynomial of given degree with roots at the Chebyshev points
    of [a, b]: 2^(1-T) * ((b-a)/2)^T * C_T((2x - b - a)/(b - a)).

    A zero-width range degenerates to (x - a)^T.
    """
    T = int(degree)
    if T < 1:
        raise InvalidInput(f"degree must be >= 1, got {degree}")
    x = np.asarray(x, dtype=float)
    hw = rng.halfwidth
    if hw == 0.0:
        return (x - rng.center) ** T
    return 2.0 ** (1 - T) * hw**T * chebyshev_eval((x - rng.center) / hw, T)


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


def _check_bound_range(rng: EigenRange) -> None:
    if rng.a <= 0.0:
        raise InvalidRange(
            f"contraction bound needs a > 0, got range ({rng.a}, {rng.b})"
        )


def _period_exponent(rng: EigenRange, period: int) -> float:
    """t = T * acosh((b + a)/(b - a)), the exponent of every bound below.

    Checks T >= 1 and a > 0. A zero-width range gives t = inf, which
    makes each bound exactly 0.
    """
    T = int(period)
    if T < 1:
        raise InvalidInput(f"period must be >= 1, got {period}")
    _check_bound_range(rng)
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


@dataclass(frozen=True)
class ConvergenceBound:
    """Contraction guarantees for one range and period.

    period_bound is the worst-case error ratio across a full period,
    per_step its T-th root, and limit the infimum of per_step over all
    periods. sor_rate is the rate of the best constant factor for the
    same range, (b - a)/(b + a), for comparison.
    """

    range: EigenRange
    period: int
    period_bound: float
    per_step: float
    limit: float
    sor_rate: float


def convergence_bound(rng: EigenRange, period: int) -> ConvergenceBound:
    """Bundle the period bound, per-step rate, limit, and constant-factor
    rate for a range."""
    _check_bound_range(rng)
    sor = (rng.b - rng.a) / (rng.b + rng.a)
    return ConvergenceBound(
        range=rng,
        period=int(period),
        period_bound=period_contraction_bound(rng, period),
        per_step=per_step_rate(rng, period),
        limit=per_step_rate_limit(rng),
        sor_rate=sor,
    )


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


def symmetric_eigenvalues(S) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    Rejects matrices whose relative asymmetry |S - S^T|_F / |S|_F exceeds
    1e-10 and sizes beyond MAX_DENSE_DIM; asymmetry within the tolerance
    is treated as roundoff and symmetrized away.
    """
    S = _check_symmetric(S, "matrix")
    return np.linalg.eigvalsh((S + S.T) / 2.0)


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


def _similarity_spectrum(A: np.ndarray, q) -> np.ndarray:
    """real_spectrum_via_similarity for an A already known to be a finite
    square float array with relative asymmetry within _REL_ASYM_TOL, as
    when a map builder checked it once; q is checked on every call."""
    n = A.shape[0]
    _check_dense_size(n)
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise DimensionError(f"q has shape {q.shape}, expected ({n},)")
    if not np.all(np.isfinite(q)):
        raise NonFiniteValue("q has non-finite entries")
    if np.any(q < 0.0):
        raise InvalidInput("q must be nonnegative for the similarity to be real")

    support = q > 0.0
    k = int(np.count_nonzero(support))
    if k == 0:
        return np.zeros(n)
    s = np.sqrt(q[support])
    # With every q_i > 0 the support is all of A: skip the n x n copy.
    A_s = A if k == n else A[np.ix_(support, support)]
    core = (s[:, None] * A_s) * s[None, :]
    lam = np.linalg.eigvalsh((core + core.T) / 2.0)
    return np.sort(np.concatenate([lam, np.zeros(n - k)]))


def _verify_fixed_point(fpmap: FixedPointMap, x_star: np.ndarray, fp_tol: float) -> np.ndarray:
    x = np.asarray(x_star, dtype=float)
    if x.shape != (fpmap.dim,):
        raise DimensionError(f"x_star has shape {x.shape}, expected ({fpmap.dim},)")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("x_star has non-finite components")
    defect = float(np.linalg.norm(np.asarray(fpmap.eval(x), dtype=float) - x))
    tol = fp_tol * (1.0 + float(np.linalg.norm(x)))
    if not defect <= tol:
        raise NotAFixedPoint(
            f"|f(x) - x| = {defect:.3e} exceeds {tol:.3e}; pass an actual fixed point"
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
      is trusted directly, B eigenvalues being 1 minus that spectrum;
    * otherwise the Jacobian comes from the map's analytic jacobian or
      central differences, and the range is the extreme exact eigenvalues
      of the symmetric part of B, within the MAX_DENSE_DIM cap. A
      Jacobian that is not symmetric to 1e-10 gets symmetrized after a
      SpectrumNotCertifiedReal warning; the symmetrized range is wrong
      for genuinely asymmetric Jacobians, so such maps should provide the
      spectrum hook instead.
    """
    x = _verify_fixed_point(fpmap, x_star, fp_tol)

    if fpmap.jacobian_spectrum is not None:
        eig_j = np.asarray(fpmap.jacobian_spectrum(x), dtype=float)
        if eig_j.ndim != 1 or eig_j.size != fpmap.dim:
            raise DimensionError(
                f"jacobian_spectrum returned shape {eig_j.shape}, expected ({fpmap.dim},)"
            )
        if not np.all(np.isfinite(eig_j)):
            raise NonFiniteValue("jacobian_spectrum returned non-finite values")
        eig_b = 1.0 - eig_j
        return EigenRange(float(eig_b.min()), float(eig_b.max()))

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
            "spectrum; estimating from the symmetrized matrix",
            SpectrumNotCertifiedReal,
            stacklevel=2,
        )
    _check_dense_size(fpmap.dim)
    lam = np.linalg.eigvalsh((B + B.T) / 2.0)
    return EigenRange(float(lam[0]), float(lam[-1]))
