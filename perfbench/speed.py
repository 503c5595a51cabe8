"""Scaling measured times to a fixed machine speed.

On the 2-core machine this benchmark was built on, the speed of the whole
machine drifts. Every kind of work slowed down together, often by about
1.5x, for periods of a few seconds to a minute. The process's CPU time
tracked its wall time through this, and steal time stayed under 2%, so
the cause looks like contention on the physical core. It is not the
process being descheduled.

So every unit, and every set-up child, runs between two runs of a
calibration kernel. Its time is reported multiplied by CAL_REF_S over
the mean of the two kernel times. That is the time it would have taken
on a machine where the kernel takes CAL_REF_S. Each workload takes the
kernel that tracked it best, judged by medians over 3-4 s windows:
- mixed_kernel: unscaled cli-small medians of 48-79 ms stayed within 4%
  of each other once scaled, and ista-sweep medians of 113-189 ms
  within 8%. It left 16% on deblur.
- dense_kernel: left 4% on deblur and 49% on ista-sweep.

Once, when the unscaled ista-sweep time swung by 1.65x, the scaled
time still moved by 1.33x. Scaling narrows the drift; it does not
remove it.
"""
from __future__ import annotations

import time

import numpy as np

CAL_REF_S = 0.003

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((256, 256))
_VECTOR = _rng.standard_normal(256)
_SMALL = _VECTOR[:64].copy()
_DENSE = _rng.standard_normal((784, 784))
_DENSE_VECTOR = _rng.standard_normal(784)
_SYMMETRIC = _DENSE[:200, :200] @ _DENSE[:200, :200].T


def mixed_kernel() -> None:
    """Interpreter bytecode, numpy calls on short vectors and 256x256
    matvecs: the mix of ista-sweep and cli-small."""
    acc = 0.0
    for i in range(15000):
        acc += (i % 7) * 0.5
    for _ in range(300):
        float(np.linalg.norm(np.tanh(_SMALL) + _SMALL))
    for _ in range(100):
        _MATRIX @ _VECTOR


def dense_kernel() -> None:
    """784x784 matvecs and a dense symmetric eigensolve: the mix of
    deblur."""
    for _ in range(5):
        _DENSE @ _DENSE_VECTOR
    np.linalg.eigvalsh(_SYMMETRIC)


def _seconds(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def measured(fn, kernel):
    """(fn(), scale): multiply a time taken inside fn by scale to express
    it at the reference speed of kernel."""
    before = _seconds(kernel)
    result = fn()
    after = _seconds(kernel)
    return result, 2.0 * CAL_REF_S / (before + after)
