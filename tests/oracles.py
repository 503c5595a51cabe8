"""Independent oracles used by the test suite: an eigenvalue oracle, a
row-at-a-time trace CSV writer, the two-branch sigmoid and a slice-sum
blur.

The eigenvalue oracle deliberately avoids the code paths under test:
eigenvalues are recovered as roots of the characteristic polynomial,
with the coefficients built by the trace recursion

    B_k = M B_{k-1} + c_{k-1} I,   c_k = -trace(M B_k) / k

in extended precision, followed by Newton polishing of the companion
roots in complex extended precision. Zero rows are split off first
(block triangularity makes their zero eigenvalues exact), which keeps
repeated roots away from the polynomial solve. Validated against
matrices with known spectra to about 5e-10 for n <= 16 when eigenvalue
gaps are at least 0.02.

The trace writer is the plain form: one csv writerow call per iterate.
The package's writer must match it byte for byte.

The sigmoid is the textbook overflow-free form with one division per
branch; the package's shared-denominator form must match it bit for bit.
The blur applies 1.4 x + 0.1 box7(x) to a zero-padded image as 7 shifted
column slices, then 7 shifted row slices of that sum, in plain additions
that never multiply by 0, so one inf pixel stays within its window.
"""
import csv

import numpy as np

TRACE_HEADER = ("run_id", "solver", "k", "error", "omega")


def char_poly_coeffs(M):
    n = M.shape[0]
    M = M.astype(np.longdouble)
    c = np.zeros(n + 1, dtype=np.longdouble)
    c[0] = 1.0
    Bk = np.zeros_like(M)
    eye = np.eye(n, dtype=np.longdouble)
    for k in range(1, n + 1):
        Bk = M @ Bk + c[k - 1] * eye
        c[k] = -np.trace(M @ Bk) / k
    return c


def brute_eigs(M, polish=6):
    """All eigenvalues of a real square matrix, as a complex array."""
    M = np.asarray(M, dtype=float)
    live = ~np.all(M == 0, axis=1)
    R = M[np.ix_(live, live)]
    if R.size == 0:
        return np.zeros(M.shape[0], dtype=complex)
    c = char_poly_coeffs(R)
    d = np.polyder(c)
    roots = np.roots(c.astype(float)).astype(np.clongdouble)
    for _ in range(polish):
        pv = np.polyval(c, roots)
        dv = np.polyval(d, roots)
        roots = roots - np.where(np.abs(dv) > 0, pv / np.where(dv == 0, 1, dv), 0)
    return np.concatenate(
        [roots.astype(complex), np.zeros(int((~live).sum()), dtype=complex)]
    )


def brute_real_eigs_sorted(M, polish=6, imag_tol=1e-8):
    """Real spectrum via brute_eigs, asserting imaginary parts are tiny."""
    lam = brute_eigs(M, polish=polish)
    assert np.max(np.abs(lam.imag)) <= imag_tol, "oracle found complex eigenvalues"
    return np.sort(lam.real)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trace_csv(path, records):
    """Write runs as rows (run_id, solver, k, error, omega), one
    writerow call per iterate."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for rec in records:
            for k, err in enumerate(rec.errors):
                omega = "" if k == 0 else _fmt(rec.omegas[k - 1])
                writer.writerow([rec.run_id, rec.solver, k, _fmt(err), omega])


def sigmoid_two_branch(u):
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def blur_slice_sum(x, height, width, half=3, self_weight=1.4, weight=0.1):
    """C x for the blur C on a flattened height x width image."""
    img = np.asarray(x, dtype=float).reshape(height, width)
    k = 2 * half + 1
    pad = np.zeros((height + k - 1, width + k - 1))
    pad[half : half + height, half : half + width] = img
    cols = pad[:, :width].copy()
    for j in range(1, k):
        cols += pad[:, j : j + width]
    box = cols[:height].copy()
    for i in range(1, k):
        box += cols[i : i + height]
    box *= weight
    box += self_weight * img
    return box.ravel()
