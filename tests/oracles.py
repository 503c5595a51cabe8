"""Independent oracles and test-only helpers used by the test suite: an
eigenvalue oracle, a checked symmetric eigensolver, a row-at-a-time trace
CSV writer, the two-branch
sigmoid, a slice-sum blur and the dense blur matrix, readers for the
trace CSV and PGM files the package writes, and the Chebyshev
polynomials.

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

symmetric_eigenvalues is numpy's eigvalsh behind the package's own
checks on a symmetric matrix (square, finite, within the dense size cap,
relative asymmetry at most 1e-10), which real_spectrum_via_similarity
applies to its A. The tests use it for spectra of matrices they build.

The trace writer is the plain form: one csv writerow call per iterate.
The package's writer must match it byte for byte.

The sigmoid is the textbook overflow-free form with one division per
branch; the package's shared-denominator form must match it bit for bit.
The slice-sum blur applies 1.4 x + 0.1 box7(x) to a zero-padded image as
7 shifted column slices, then 7 shifted row slices of that sum, in plain
additions that never multiply by 0, so one inf pixel stays within its
window. blur_matrix is the same C as a dense matrix in Kronecker form;
the blur map's jacobian hook, which assembles C from its matvec, must
match it bit for bit.

The package writes trace CSVs and PGM images but never reads them.
read_trace_csv and read_pgm read them back, so that round trips pin the
format claims of README against the writers; FormatError and
UnsupportedFormat are what they raise on a file they refuse.

chebyshev_eval (the three-term recursion) and monic_chebyshev (the monic
Chebyshev polynomial on [a, b]) are the reference forms the period
polynomial and the schedule's roots are checked against.
"""
import csv

import numpy as np

from chebiter.errors import InvalidInput
from chebiter.spectral import _check_symmetric
from chebiter.traceio import TraceRecord

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


def symmetric_eigenvalues(S):
    """Eigenvalues of a symmetric matrix, ascending.

    Rejects matrices whose relative asymmetry |S - S^T|_F / |S|_F exceeds
    1e-10 and sizes beyond the dense cap; asymmetry within the tolerance
    is treated as roundoff and symmetrized away.
    """
    S = _check_symmetric(S, "matrix")
    return np.linalg.eigvalsh((S + S.T) / 2.0)


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


def _band(m, half):
    i = np.arange(m)
    return (np.abs(i[:, None] - i) <= half).astype(float)


def blur_matrix(height, width, half=3, self_weight=1.4, weight=0.1):
    """Dense blur C = weight kron(band(height), band(width)) + self_weight I
    on flattened height x width images, band(m) being the m x m 0/1 matrix
    of |i - j| <= half; it is exactly symmetric. Only the nonzero
    width x width blocks are written into a zero matrix."""
    n = height * width
    rows, cols = np.nonzero(_band(height, half))
    C = np.zeros((n, n))
    C.reshape(height, width, height, width)[rows, :, cols, :] = weight * _band(width, half)
    C.flat[:: n + 1] += self_weight
    return C


class FormatError(ValueError):
    """File content does not parse under the expected format."""


class UnsupportedFormat(FormatError):
    """File parses as a related format the readers deliberately do not handle."""


def read_trace_csv(path):
    """Read a trace CSV back into records, in file order.

    The header must match exactly; each run's k column must count up from
    zero with the omega cell empty only on the k = 0 row.
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("trace file is empty") from None
        if tuple(header) != TRACE_HEADER:
            raise FormatError(
                f"bad trace header {header!r}, expected {list(TRACE_HEADER)!r}"
            )
        order = []
        solvers = {}
        errors = {}
        omegas = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise FormatError(f"line {lineno}: expected 5 cells, got {len(row)}")
            run_id, solver, k_str, err_str, omega_str = row
            try:
                k = int(k_str)
                err = float(err_str)
            except ValueError:
                raise FormatError(f"line {lineno}: malformed numeric cell") from None
            if run_id not in errors:
                order.append(run_id)
                solvers[run_id] = solver
                errors[run_id] = []
                omegas[run_id] = []
            elif solvers[run_id] != solver:
                raise FormatError(f"line {lineno}: run {run_id!r} changes solver")
            if k != len(errors[run_id]):
                raise FormatError(
                    f"line {lineno}: expected k = {len(errors[run_id])}, got {k}"
                )
            if k == 0:
                if omega_str != "":
                    raise FormatError(f"line {lineno}: k = 0 row must leave omega empty")
            else:
                try:
                    omegas[run_id].append(float(omega_str))
                except ValueError:
                    raise FormatError(f"line {lineno}: malformed omega cell") from None
            errors[run_id].append(err)
    return [
        TraceRecord(
            run_id=rid,
            solver=solvers[rid],
            errors=np.asarray(errors[rid]),
            omegas=np.asarray(omegas[rid]),
        )
        for rid in order
    ]


def _pgm_header(data, path):
    """The four header tokens (magic, width, height, maxval) and the offset
    just past the last one, skipping whitespace and # comments."""
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise FormatError(f"{path}: truncated header")
        ch = data[i : i + 1]
        if ch in b" \t\r\n":
            i += 1
        elif ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        else:
            start = i
            while i < len(data) and data[i : i + 1] not in b" \t\r\n#":
                i += 1
            tokens.append(data[start:i])
    return tokens, i


def read_pgm(path):
    """Read a binary PGM back to floats in [0, 1].

    Comments in the header are tolerated; only maxval 255 is supported.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        magic = data[:2].decode("ascii", errors="replace")
        raise UnsupportedFormat(f"{path}: magic {magic!r} is not binary PGM (P5)")
    tokens, offset = _pgm_header(data, path)
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise FormatError(f"{path}: malformed header tokens {tokens[1:]!r}") from None
    if maxval != 255:
        raise UnsupportedFormat(f"{path}: maxval {maxval} unsupported, expected 255")
    if w < 1 or h < 1:
        raise FormatError(f"{path}: bad dimensions {w}x{h}")
    pixels = data[offset + 1 : offset + 1 + w * h]
    if len(pixels) != w * h:
        raise FormatError(f"{path}: expected {w * h} pixel bytes, found {len(pixels)}")
    levels = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)
    return levels.astype(float) / 255.0


def chebyshev_eval(x, degree):
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


def monic_chebyshev(x, rng, degree):
    """Monic polynomial of given degree with roots at the Chebyshev points
    of the EigenRange rng = [a, b]:
    2^(1-T) * ((b-a)/2)^T * C_T((2x - b - a)/(b - a)).

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
