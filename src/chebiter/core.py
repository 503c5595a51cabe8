"""Fixed-point maps, relaxation schedules, and the inertial iteration runner.

The update implemented here is

    x_{k+1} = (1 - w_k) * x_k + w_k * f(x_k)

where f is a fixed-point map and w_k is a relaxation factor drawn from a
periodic schedule. With all factors equal to 1 this is the plain iteration
x_{k+1} = f(x_k). The Chebyshev schedule uses the reciprocals of the
Chebyshev polynomial roots shifted onto the eigenvalue range [a, b] of
B = I - J(x*), which contracts the error across each full period much
faster than any single constant factor can.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionError,
    InvalidInput,
    InvalidRange,
    NonFiniteValue,
)

__all__ = [
    "FixedPointMap",
    "EigenRange",
    "InertialSchedule",
    "StopReason",
    "IterationTrace",
    "chebyshev_roots",
    "chebyshev_schedule",
    "plain_schedule",
    "inertial_step",
    "run_inertial",
]

# An iterate whose norm exceeds this ends the run as divergence. Finite, so
# every accepted iterate, and hence every recorded error, is finite.
_DIVERGENCE_NORM = 1e12

# The boundary, in bytes, that _aligned_empty puts an array's data on: one
# cache line.
_ALIGN = 64

# numpy's float64 dtype object, which inertial_step compares by identity.
_FLOAT = np.dtype(float)


def _index(value, what: str) -> int:
    """value as a Python int, for ints and numpy integers alone: not
    bools, which operator.index would take as 0 and 1."""
    if isinstance(value, bool):
        raise InvalidInput(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{what} must be an integer, got {value!r}") from None


def _real(value, what: str) -> float:
    """value as a Python float, for real numbers alone: ints, floats and
    numpy reals, but not text, bytes or bools."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise InvalidInput(f"{what} must be a real number, got {value!r}")
    return float(value)


def _aligned_empty(shape: tuple) -> np.ndarray:
    """Uninitialised C-ordered float array whose data starts on a 64-byte
    boundary.

    OpenBLAS 0.3.31's matrix-vector product with a 256 x 256 operand took
    about 13.6 us when the operand's data started 8, 16, 24, 40, 48 or 56
    bytes past a cache line and 11.3 us at 0 or 32, with the same bits
    (one thread, 2-core x86-64 with AVX2). Where numpy's allocator puts a
    fresh array depends on the heap's history, so the operands that a
    loop multiplies by are built in one of these instead.
    """
    size = math.prod(shape)
    buf = np.empty(size + _ALIGN // 8)
    start = (-buf.ctypes.data % _ALIGN) // 8
    return buf[start : start + size].reshape(shape)


@dataclass(frozen=True)
class FixedPointMap:
    """A map f: R^dim -> R^dim iterated toward a fixed point x* = f(x*).

    eval must be pure (no state, no randomness). jacobian, when given,
    returns the dense dim x dim Jacobian of f at a point. jacobian_spectrum,
    when given, returns certified-real eigenvalues of the Jacobian at a
    point that include its smallest and its largest: the full spectrum, or
    only the two extremes (the blur map's matrix-free certificate); maps
    whose Jacobian factors as a nonnegative diagonal times a symmetric
    matrix can provide it even though the Jacobian itself is not symmetric.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jacobian_spectrum: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        dim = _index(self.dim, "map dimension")
        if dim < 1:
            raise InvalidInput(f"map dimension must be >= 1, got {self.dim}")
        object.__setattr__(self, "dim", dim)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.eval(x)


@dataclass(frozen=True)
class EigenRange:
    """Closed interval [a, b] enclosing the eigenvalues of B = I - J(x*).

    Any finite a <= b is a range. The Chebyshev factors and the bounds
    need the spectrum on one side of 0, so they check a > 0 themselves;
    they do not need b < 2, and a map whose plain iteration does not
    contract (b >= 2) is accelerated all the same.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = _real(self.a, "range endpoint"), _real(self.b, "range endpoint")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidRange(f"range endpoints must be finite, got ({self.a}, {self.b})")
        if a > b:
            raise InvalidRange(f"range needs a <= b, got ({a}, {b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def center(self) -> float:
        return (self.b + self.a) / 2.0

    @property
    def halfwidth(self) -> float:
        return (self.b - self.a) / 2.0

    def clipped(self) -> "EigenRange":
        """Lift both ends to at least 1e-6.

        Applied to measured ranges before schedule construction, so that
        estimation noise at or below 0 cannot produce a factor with the
        wrong sign or a division by zero. The upper end is kept: the
        factors must cover every eigenvalue, however large.
        """
        return EigenRange(max(self.a, 1e-6), max(self.b, 1e-6))


def plain_schedule() -> "InertialSchedule":
    """Schedule of all-ones factors: the unrelaxed iteration x <- f(x)."""
    return InertialSchedule(period=1, factors=(1.0,))


@dataclass(frozen=True)
class InertialSchedule:
    """Periodic sequence of relaxation factors w_0 .. w_{period-1}.

    Step k uses factors[k mod period]. The optional range records which
    eigenvalue interval the factors were built for.
    """

    period: int
    factors: tuple
    range: Optional[EigenRange] = None

    def __post_init__(self) -> None:
        factors = tuple(_real(w, "schedule factor") for w in self.factors)
        period = _index(self.period, "schedule period")
        if period < 1:
            raise InvalidInput(f"schedule period must be >= 1, got {self.period}")
        if len(factors) != period:
            raise InvalidInput(
                f"schedule declares period {self.period} but has {len(factors)} factors"
            )
        if not all(math.isfinite(w) for w in factors):
            raise NonFiniteValue(f"schedule factors must be finite, got {factors}")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "factors", factors)


def chebyshev_roots(rng: EigenRange, period: int) -> np.ndarray:
    """Roots of the degree-`period` Chebyshev polynomial shifted onto [a, b].

        z_k = (b + a)/2 + (b - a)/2 * cos((2k + 1) pi / (2 period))

    Returned in the natural order k = 0 .. period-1, which is strictly
    decreasing when a < b. The midpoint cosine (2k + 1 == period) is zeroed
    exactly so odd periods hit the interval center and period 1 reduces to
    the single root (a + b)/2 with no trigonometric residue.
    """
    T = _index(period, "period")
    if T < 1:
        raise InvalidInput(f"period must be >= 1, got {period}")
    k = np.arange(T)
    c = np.cos((2 * k + 1) * np.pi / (2 * T))
    c[2 * k + 1 == T] = 0.0
    return rng.center + rng.halfwidth * c


def chebyshev_schedule(rng: EigenRange, period: int) -> InertialSchedule:
    """Relaxation factors w_k = 1 / z_k from the Chebyshev roots on [a, b].

    Requires a > 0 so no root can vanish. Factors come out in the natural
    root order (increasing magnitude). The per-period contraction
    guarantee is independent of the order, but transient overshoot inside
    a period is not.
    """
    if rng.a <= 0.0:
        raise InvalidRange(
            f"Chebyshev factors need a > 0 so the roots are nonzero, got a={rng.a}"
        )
    # A factor that overflows is left to InertialSchedule's finite check.
    with np.errstate(over="ignore"):
        factors = 1.0 / chebyshev_roots(rng, period)
    return InertialSchedule(period=period, factors=tuple(factors), range=rng)


class StopReason(str, Enum):
    TOLERANCE = "tolerance"
    TARGET = "target"
    MAX_ITERS = "max_iters"
    DIVERGENCE = "divergence"


@dataclass
class IterationTrace:
    """Record of one run: run_inertial's, or fista_run's with unit factors.

    factors_used[k] is the factor applied at step k, and steps is their
    number. errors[k] is |x_k - x_ref| for k = 0 .. steps, so len(errors)
    is steps + 1. When the run was stopped by divergence the recorded
    errors still cover only the finite iterates.
    """

    errors: np.ndarray
    factors_used: np.ndarray
    stop_reason: StopReason
    x_final: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.factors_used)


def _as_vector(x, dim: int, what: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise DimensionError(f"{what} has shape {v.shape}, expected ({dim},)")
    return v


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D float array.

    Bit for bit what np.linalg.norm computes for such an array (the square
    root of v.v), without the cost of its generic wrapper on every step.
    """
    return math.sqrt(v.dot(v))


def inertial_step(fpmap: FixedPointMap, x: np.ndarray, omega: float) -> np.ndarray:
    """One relaxed update (1 - omega) x + omega f(x).

    omega = 1 short-circuits to f(x) and omega = 0 to x itself, so the
    degenerate cases reproduce the plain iteration and the identity bit
    for bit. Non-finite results raise NonFiniteValue.
    """
    dim = fpmap.dim
    # A float64 vector of the right length, the runner's case, is what
    # _as_vector would return unchanged, so it is tested inline and kept
    # without the call. An equal dtype that is not numpy's own float64
    # object takes the general path, to the same result.
    if type(x) is not np.ndarray or x.dtype is not _FLOAT or x.shape != (dim,):
        x = _as_vector(x, dim, "iterate")
    if not math.isfinite(omega):
        raise NonFiniteValue(f"relaxation factor must be finite, got {omega}")
    if omega == 0.0:
        y = x.copy()
    else:
        fx = fpmap.eval(x)
        if type(fx) is not np.ndarray or fx.dtype is not _FLOAT or fx.shape != (dim,):
            fx = _as_vector(fx, dim, "map output")
        if omega == 1.0:
            y = fx
        else:
            # The same three operations as (1 - omega) * x + omega * fx, so
            # the same bits (addition commutes) and the same warnings,
            # without the wrapper cost of the operators on an array and a
            # Python float.
            y = np.multiply(fx, omega)
            np.add(y, np.multiply(x, 1.0 - omega), y)
    # Exact, and cheaper than setting up the reduction of .all().
    if b"\0" in np.isfinite(y).tobytes():
        raise NonFiniteValue("inertial step produced non-finite components")
    return y


def run_inertial(
    fpmap: FixedPointMap,
    schedule: InertialSchedule,
    x0: np.ndarray,
    x_ref: np.ndarray,
    max_iters: int,
    error_target: Optional[float] = None,
) -> IterationTrace:
    """Run the relaxed iteration from x0 under the given schedule.

    Errors are measured against x_ref, usually the true fixed point.
    Partial periods run in natural factor order; the per-period
    contraction guarantee of the Chebyshev schedule only applies at
    multiples of the period.

    The run takes at most max_iters (>= 1) steps. Two stop rules are
    fixed: a step of norm exactly 0 ends it (tolerance), and a step whose
    result is non-finite or has norm above 1e12 is rejected and ends it
    (divergence), so the trace ends at the last accepted iterate and every
    recorded error is finite. error_target, when given (finite, >= 0),
    stops the run after the first accepted step whose error is at most
    the target. The run is deterministic: same inputs, same trace, bit for
    bit. x0, x_ref and |x0 - x_ref| must be finite and |x_ref| + 1e12 at
    most 1e154, which keeps every error finite (NonFiniteValue otherwise).

    The tolerance rule needs the step's norm only when the error barely
    moved: within 4 (n + 2) 2^-53 max(e_k, e_{k+1}) + 1e-150 of the
    previous one, for a map of dimension n. Outside that band the step is
    provably nonzero (the derivation is at the band in the loop), so its
    norm is taken only inside it, and every run stops where it would if
    the norm were taken on every step.
    """
    max_iters = _index(max_iters, "max_iters")
    if max_iters < 1:
        raise InvalidInput(f"max_iters must be >= 1, got {max_iters}")
    if error_target is not None:
        error_target = _real(error_target, "error_target")
        if not 0.0 <= error_target < math.inf:
            raise InvalidInput(f"error_target must be finite and >= 0, got {error_target}")
    x = _as_vector(x0, fpmap.dim, "x0").copy()
    if not np.isfinite(x).all():
        raise NonFiniteValue("x0 has non-finite components")
    ref = _as_vector(x_ref, fpmap.dim, "x_ref")
    if not np.isfinite(ref).all():
        raise NonFiniteValue("x_ref has non-finite components")

    n = fpmap.dim
    # x_new - ref and x_new - x are written into this one array, which is
    # never an iterate, so no step allocates a difference.
    diff = np.empty(n)
    # Norms of finite vectors overflow only to inf, refused here. The error
    # of an accepted iterate is at most |ref| + _DIVERGENCE_NORM, and below
    # 1e154 its square, and so the error, is finite.
    with np.errstate(over="ignore"):
        error = _norm(np.subtract(x, ref, diff))
        ref_norm = _norm(ref)
    if not ref_norm + _DIVERGENCE_NORM <= 1e154:
        raise NonFiniteValue(f"|x_ref| = {ref_norm:.3e} is too large; errors would overflow")
    if error == math.inf:
        raise NonFiniteValue("|x0 - x_ref| overflows")
    errors = [error]
    # Against a zero reference the error is the iterate's own norm, which
    # the divergence test computes anyway (zeros of either sign give the
    # same squares). Against another, |x| <= error + |ref| by the triangle
    # inequality, so the divergence norm is taken only when that sum is not
    # far below the threshold (or not finite): half of it leaves room for
    # any rounding of the two norms.
    zero_ref = not ref.any()
    half_divergence = 0.5 * _DIVERGENCE_NORM
    # The tolerance rule stops at a step d = x_new - x whose computed d.d
    # is 0. A sum of nonnegative terms is 0 only if every term is, and
    # d_i^2 rounds to 0 only if |d_i| <= 2^-537.5 (about 1.5e-162), so then
    # the exact errors E = |x - ref| of the two iterates differ by at most
    # |d| <= sqrt(n) 1.5e-162. Each computed error e is within
    # (n/2 + 2) 2^-53 E of E (the subtractions, the dot product's gamma_n
    # and the square root) plus sqrt(n) 1.5e-162 from squares that
    # underflow. So a zero step moves the error by at most
    # (n + 4) 2^-53 max(E) + 3 sqrt(n) 1.5e-162, well inside the band
    # below for any n under 1e22, rounding of the test included. Outside
    # the band the step is provably nonzero and its norm is not taken.
    band = 4 * (n + 2) * 2.0**-53
    stop_reason = StopReason.MAX_ITERS
    factors, period = schedule.factors, schedule.period

    # Overflow in a step, or in the squared norm of a finite iterate, ends
    # as a non-finite step or an infinite norm, and both are handled as
    # divergence below, so numpy need not warn about it. One errstate for
    # the whole loop, since entering one per step costs microseconds.
    # The matvec of a map such as ISTA's runs at one speed whatever the
    # loop's temporaries do, because its operator was allocated before the
    # run on a 64-byte boundary (_aligned_empty); the offset of an operator
    # from a cache line, not the heap's history, is what its speed depends on.
    # inertial_step is looked up in this module on every step, so that a
    # wrapper set on core.inertial_step sees each attempted step.
    with np.errstate(over="ignore"):
        for k in range(max_iters):
            try:
                x_new = inertial_step(fpmap, x, factors[k % period])
            except NonFiniteValue:
                stop_reason = StopReason.DIVERGENCE
                break
            prev = error
            if zero_ref:
                error = size = math.sqrt(x_new.dot(x_new))
            else:
                np.subtract(x_new, ref, diff)
                error = math.sqrt(diff.dot(diff))
                size = 0.0
                if not error + ref_norm <= half_divergence:
                    size = math.sqrt(x_new.dot(x_new))
            if not size <= _DIVERGENCE_NORM:
                stop_reason = StopReason.DIVERGENCE
                break
            errors.append(error)
            x_old, x = x, x_new
            if (
                not abs(error - prev) > band * max(error, prev) + 1e-150
                and np.subtract(x, x_old, diff).dot(diff) == 0.0
            ):
                stop_reason = StopReason.TOLERANCE
                break
            if error_target is not None and error <= error_target:
                stop_reason = StopReason.TARGET
                break

    # Step k used factors[k % period]: the schedule repeated cyclically.
    return IterationTrace(
        errors=np.asarray(errors, dtype=float),
        factors_used=np.resize(np.asarray(factors, dtype=float), len(errors) - 1),
        stop_reason=stop_reason,
        x_final=x,
    )
