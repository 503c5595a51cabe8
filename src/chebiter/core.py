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
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

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
    "StopCriteria",
    "StopReason",
    "IterationTrace",
    "chebyshev_roots",
    "chebyshev_schedule",
    "constant_sor_schedule",
    "plain_schedule",
    "inertial_step",
    "run_inertial",
]


@dataclass(frozen=True)
class FixedPointMap:
    """A map f: R^dim -> R^dim iterated toward a fixed point x* = f(x*).

    eval must be pure (no state, no randomness). jacobian, when given,
    returns the dense dim x dim Jacobian of f at a point. jacobian_spectrum,
    when given, returns a certified-real spectrum of the Jacobian at a point;
    maps whose Jacobian factors as a nonnegative diagonal times a symmetric
    matrix can provide it even though the Jacobian itself is not symmetric.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    jacobian_spectrum: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if int(self.dim) < 1:
            raise InvalidInput(f"map dimension must be >= 1, got {self.dim}")

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
        a, b = float(self.a), float(self.b)
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

    @property
    def width(self) -> float:
        return self.b - self.a

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
        factors = tuple(float(w) for w in self.factors)
        if int(self.period) < 1:
            raise InvalidInput(f"schedule period must be >= 1, got {self.period}")
        if len(factors) != self.period:
            raise InvalidInput(
                f"schedule declares period {self.period} but has {len(factors)} factors"
            )
        if not all(math.isfinite(w) for w in factors):
            raise NonFiniteValue(f"schedule factors must be finite, got {factors}")
        object.__setattr__(self, "period", int(self.period))
        object.__setattr__(self, "factors", factors)

    def factor_at(self, k: int) -> float:
        """Factor used at iteration k (k >= 0), wrapping around the period."""
        if k < 0:
            raise InvalidInput(f"iteration index must be >= 0, got {k}")
        return self.factors[k % self.period]


def chebyshev_roots(rng: EigenRange, period: int) -> np.ndarray:
    """Roots of the degree-`period` Chebyshev polynomial shifted onto [a, b].

        z_k = (b + a)/2 + (b - a)/2 * cos((2k + 1) pi / (2 period))

    Returned in the natural order k = 0 .. period-1, which is strictly
    decreasing when a < b. The midpoint cosine (2k + 1 == period) is zeroed
    exactly so odd periods hit the interval center and period 1 reduces to
    the single root (a + b)/2 with no trigonometric residue.
    """
    T = int(period)
    if T < 1:
        raise InvalidInput(f"period must be >= 1, got {period}")
    k = np.arange(T)
    c = np.cos((2 * k + 1) * np.pi / (2 * T))
    c[2 * k + 1 == T] = 0.0
    return rng.center + rng.halfwidth * c


def chebyshev_schedule(
    rng: EigenRange, period: int, permutation: Optional[Sequence[int]] = None
) -> InertialSchedule:
    """Relaxation factors w_k = 1 / z_k from the Chebyshev roots on [a, b].

    Requires a > 0 so no root can vanish. Factors come out in the natural
    root order (increasing magnitude); permutation, if given, reorders them
    within the period. The per-period contraction guarantee is independent
    of the order, but transient overshoot inside a period is not.
    """
    if rng.a <= 0.0:
        raise InvalidRange(
            f"Chebyshev factors need a > 0 so the roots are nonzero, got a={rng.a}"
        )
    roots = chebyshev_roots(rng, period)
    factors = 1.0 / roots
    if permutation is not None:
        perm = list(permutation)
        if sorted(perm) != list(range(int(period))):
            raise InvalidInput(
                f"permutation must reorder 0..{int(period) - 1}, got {permutation}"
            )
        factors = factors[perm]
    return InertialSchedule(period=int(period), factors=tuple(factors), range=rng)


def constant_sor_schedule(rng: EigenRange) -> InertialSchedule:
    """The best single constant factor for [a, b]: w = 2 / (a + b).

    Equals the period-1 Chebyshev schedule bit for bit on a range with
    a > 0, but also accepts ranges with a <= 0 as long as a + b > 0.
    """
    if rng.a + rng.b <= 0.0:
        raise InvalidRange(f"constant factor needs a + b > 0, got ({rng.a}, {rng.b})")
    return InertialSchedule(period=1, factors=(2.0 / (rng.a + rng.b),), range=rng)


@dataclass(frozen=True)
class StopCriteria:
    """Stopping rules for the runner.

    step_tol stops once |x_{k+1} - x_k| <= step_tol; the default of 0 only
    triggers on an exactly stationary iterate, so runs normally go to
    max_iters the way the reference experiments do. divergence_threshold
    aborts a run whose iterate norm explodes; it must be finite so that
    every accepted iterate, and hence every recorded error, is finite.
    error_target, when set, stops after the first accepted step whose
    error |x_{k+1} - x_ref| is at most the target; it needs a reference
    point, since without one the errors are only known after the run.
    """

    max_iters: int
    step_tol: float = 0.0
    divergence_threshold: float = 1e12
    error_target: Optional[float] = None

    def __post_init__(self) -> None:
        try:
            max_iters = operator.index(self.max_iters)
        except TypeError:
            raise InvalidInput(f"max_iters must be an integer, got {self.max_iters!r}") from None
        if max_iters < 1:
            raise InvalidInput(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.step_tol >= 0.0):
            raise InvalidInput(f"step_tol must be >= 0, got {self.step_tol}")
        if not (0.0 < self.divergence_threshold < math.inf):
            raise InvalidInput(
                "divergence_threshold must be positive and finite, "
                f"got {self.divergence_threshold}"
            )
        if self.error_target is not None and not (0.0 <= self.error_target < math.inf):
            raise InvalidInput(
                f"error_target must be finite and >= 0, got {self.error_target}"
            )
        object.__setattr__(self, "max_iters", max_iters)


class StopReason(str, Enum):
    TOLERANCE = "tolerance"
    TARGET = "target"
    MAX_ITERS = "max_iters"
    DIVERGENCE = "divergence"


@dataclass
class IterationTrace:
    """Record of one run.

    errors[k] is |x_k - x_ref| for k = 0 .. steps, so len(errors) is
    steps + 1. factors_used[k] is the factor applied at step k. When the
    run was stopped by divergence the recorded errors still cover only the
    finite iterates. iterates is populated only when requested.
    """

    errors: np.ndarray
    factors_used: np.ndarray
    steps: int
    converged: bool
    stop_reason: StopReason
    x_final: np.ndarray
    iterates: Optional[list] = None
    x_ref_was_final: bool = field(default=False)

    def __post_init__(self) -> None:
        if len(self.errors) != self.steps + 1:
            raise InvalidInput(
                f"trace has {len(self.errors)} errors for {self.steps} steps"
            )


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
    x = _as_vector(x, fpmap.dim, "iterate")
    if not math.isfinite(omega):
        raise NonFiniteValue(f"relaxation factor must be finite, got {omega}")
    if omega == 1.0:
        y = _as_vector(fpmap.eval(x), fpmap.dim, "map output")
    elif omega == 0.0:
        y = x.copy()
    else:
        fx = _as_vector(fpmap.eval(x), fpmap.dim, "map output")
        y = (1.0 - omega) * x + omega * fx
    if not np.isfinite(y).all():
        raise NonFiniteValue("inertial step produced non-finite components")
    return y


def run_inertial(
    fpmap: FixedPointMap,
    schedule: InertialSchedule,
    x0: np.ndarray,
    stop: StopCriteria,
    x_ref: Optional[np.ndarray] = None,
    store_iterates: bool = False,
) -> IterationTrace:
    """Run the relaxed iteration from x0 under the given schedule.

    Errors are measured against x_ref when provided. Without a reference
    the final iterate stands in for x*, which biases the last few entries
    of the error curve low; callers that care should pass the true fixed
    point, and must pass it to use stop.error_target. Partial periods run
    in natural factor order; the per-period contraction guarantee of the
    Chebyshev schedule only applies at multiples of the period.

    A step whose result is non-finite or whose norm exceeds the divergence
    threshold is rejected: the trace ends at the last accepted iterate, so
    every recorded error is finite. The run is deterministic: same inputs,
    same trace, bit for bit.
    """
    x = _as_vector(x0, fpmap.dim, "x0").copy()
    if not np.isfinite(x).all():
        raise NonFiniteValue("x0 has non-finite components")
    ref = None if x_ref is None else _as_vector(x_ref, fpmap.dim, "x_ref")
    if ref is not None and not np.isfinite(ref).all():
        raise NonFiniteValue("x_ref has non-finite components")
    target = stop.error_target
    if target is not None and ref is None:
        raise InvalidInput(
            "error_target needs x_ref: without it the errors are known only after the run"
        )
    keep_iterates = store_iterates or ref is None

    iterates = [x.copy()] if keep_iterates else None
    errors = [] if ref is None else [_norm(x - ref)]
    factors_used = []
    stop_reason = StopReason.MAX_ITERS
    factors, period = schedule.factors, schedule.period
    threshold, step_tol = stop.divergence_threshold, stop.step_tol

    # Overflow in a step, or in the squared norm of a finite iterate, ends
    # as a non-finite step or an infinite norm, and both are handled as
    # divergence below, so numpy need not warn about it. One errstate for
    # the whole loop, since entering one per step costs microseconds.
    with np.errstate(over="ignore"):
        for k in range(stop.max_iters):
            w = factors[k % period]
            try:
                x_new = inertial_step(fpmap, x, w)
            except NonFiniteValue:
                stop_reason = StopReason.DIVERGENCE
                break
            if not _norm(x_new) <= threshold:
                stop_reason = StopReason.DIVERGENCE
                break
            factors_used.append(w)
            if ref is not None:
                errors.append(_norm(x_new - ref))
            if keep_iterates:
                iterates.append(x_new.copy())
            step_norm = _norm(x_new - x)
            x = x_new
            if step_norm <= step_tol:
                stop_reason = StopReason.TOLERANCE
                break
            if target is not None and errors[-1] <= target:
                stop_reason = StopReason.TARGET
                break

    steps = len(factors_used)
    if ref is None:
        ref = iterates[-1]
        errors = [_norm(it - ref) for it in iterates]

    return IterationTrace(
        errors=np.asarray(errors, dtype=float),
        factors_used=np.asarray(factors_used, dtype=float),
        steps=steps,
        converged=stop_reason in (StopReason.TOLERANCE, StopReason.TARGET),
        stop_reason=stop_reason,
        x_final=x,
        iterates=iterates if store_iterates else None,
        x_ref_was_final=x_ref is None,
    )
