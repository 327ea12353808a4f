"""Base-2 log-domain helpers.

Everything downstream works in log2 space so that supports of size 2^1000
and per-string probabilities of order 2^-1000 stay representable.

Up to EXACT_BINOMIAL_MAX_N the exact binomial row of an n is built once
and kept, read-only, for the last eight n asked for, so every spectrum at
one n shares it. Above that the binomial row comes from one row of ln k!
that the process shares: it is built on the first ask, extended when a
larger n is asked for, and never rebuilt, so a process that computes
many spectra pays for each k once.
"""
from __future__ import annotations

import functools
import math
import threading

import numpy as np

LN2 = math.log(2.0)
HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# largest n for which log2 C(n, k) is taken from exact big-int binomials;
# above this, from a Stirling row of ln k!, whose rounding grows with n: the
# row is within 6.0e-10 bits of log2(math.comb(n, k)) for every k at n = 1e5
EXACT_BINOMIAL_MAX_N = 2048

# ln k! is math.lgamma below this k and the Stirling series from it on
STIRLING_MIN_K = 16


def logsumexp2(values) -> float:
    """log2(sum(2**v)) with max-subtraction; -inf for an empty or all -inf input."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return -np.inf
    m = float(np.max(a))
    if not np.isfinite(m):
        return m
    terms = a - m
    return m + math.log2(float(np.sum(np.exp2(terms, out=terms))))


def binomials(n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """log2 C(n, k) for k = 0..n, and the exact C(n, k) where they are kept.

    Up to EXACT_BINOMIAL_MAX_N both come from ``_exact_row``: an object
    array of Python ints beside their logs (math.log2 of a Python int is
    correctly rounded), read-only and shared by every caller that asks for
    the same n while it is among the last eight asked for. Beyond that only
    the logs from ``_log_factorials`` exist, a fresh array, and the exact
    row is None.
    """
    if n <= EXACT_BINOMIAL_MAX_N:
        return _exact_row(n)
    lf = _log_factorials(n)
    logs = lf[n] - lf
    logs -= lf[::-1]
    logs /= LN2
    return logs, None


@functools.lru_cache(maxsize=8)
def _exact_row(n: int) -> tuple[np.ndarray, np.ndarray]:
    """log2 C(n, k) and C(n, k) for k = 0..n from big-int binomials, both
    read-only. Only k <= n/2 is computed; C(n, k) = C(n, n - k) mirrors it,
    logs included. A row takes 76 KiB at n = 1000 and 256 KiB at n = 2048,
    so the eight kept hold at most about 2 MiB."""
    exact = np.empty(n + 1, dtype=object)
    logs = np.empty(n + 1)
    half = n // 2
    row = 1
    for k in range(half + 1):
        exact[k] = row
        logs[k] = math.log2(row)
        row = row * (n - k) // (k + 1)
    exact[n - half :] = exact[half::-1]
    logs[n - half :] = logs[half::-1]
    logs.setflags(write=False)
    exact.setflags(write=False)
    return logs, exact


#: ln k! for k = 0..len - 1, read-only; ``_log_factorials`` grows it
_log_factorial_row = np.empty(0)
_log_factorial_lock = threading.Lock()


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n, as a read-only view of the row the process shares.

    The row holds 8 bytes per k, up to the largest n the process has asked
    for. Asked past its end, it is replaced by a row of exactly n + 1
    entries: the old ones copied, only the missing ones computed
    (``_fill_log_factorials``). Every entry depends on k alone, through
    elementwise ufuncs on contiguous memory, so a view of a longer row
    holds the floats a fresh row of n + 1 would.
    """
    global _log_factorial_row
    row = _log_factorial_row
    if row.size <= n:
        with _log_factorial_lock:
            row = _log_factorial_row  # another thread may have grown it
            if row.size <= n:
                old, row = row, np.empty(n + 1)
                row[: old.size] = old
                _fill_log_factorials(row, old.size)
                row.setflags(write=False)
                _log_factorial_row = row
    return row[: n + 1]


def _fill_log_factorials(row: np.ndarray, start: int):
    """Set ``row[k]`` = ln k! for k = start..row.size - 1, as the log-gamma
    that cephes (and scipy's gammaln) evaluates: math.lgamma for
    k < STIRLING_MIN_K, from there the Stirling series in x = k + 1

        (x - 1/2) ln x - x + ln(2 pi)/2
        + 1/(12x) - 1/(360x^3) + 1/(1260x^5) - 1/(1680x^7) + 1/(1188x^9),

    built in place in two scratch arrays beside the row.
    """
    lo = max(start, STIRLING_MIN_K)
    row[start:lo] = [math.lgamma(k + 1.0) for k in range(start, lo)]
    x = np.arange(lo + 1.0, row.size + 1.0)
    big = row[lo:]
    np.log(x, out=big)
    tmp = x - 0.5
    big *= tmp
    big -= x
    big += HALF_LN_2PI
    r = np.reciprocal(x, out=x)
    # Horner in 1/x^2; multiplying by 1/x twice per step keeps no 1/x^2 array
    np.multiply(r, r, out=tmp)
    tmp /= 1188.0
    tmp -= 1.0 / 1680.0
    for c in (1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0):
        tmp *= r
        tmp *= r
        tmp += c
    tmp *= r
    big += tmp


def log2_binomials(n: int) -> np.ndarray:
    """log2 C(n, k) for k = 0..n (see ``binomials``)."""
    return binomials(n)[0]
