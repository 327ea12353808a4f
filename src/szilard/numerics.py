"""Base-2 log-domain helpers.

Everything downstream works in log2 space so that supports of size 2^1000
and per-string probabilities of order 2^-1000 stay representable.
"""
from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

# largest n for which log2 C(n, k) is taken from exact big-int binomials;
# above this, log-gamma is used (absolute error ~1e-9 bits at n = 1e5)
EXACT_BINOMIAL_MAX_N = 2048


def logsumexp2(values) -> float:
    """log2(sum(2**v)) with max-subtraction; -inf for an empty or all -inf input."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return -np.inf
    m = float(np.max(a))
    if not np.isfinite(m):
        return m
    return m + math.log2(float(np.sum(np.exp2(a - m))))


def binomials(n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """log2 C(n, k) for k = 0..n, and the exact C(n, k) where they are kept.

    Up to EXACT_BINOMIAL_MAX_N the row is built from exact big-int
    binomials, returned as an object array of Python ints beside their
    logs (math.log2 of a Python int is correctly rounded). Beyond that only
    the log-gamma logs exist and the exact row is None.
    """
    if n <= EXACT_BINOMIAL_MAX_N:
        exact = np.empty(n + 1, dtype=object)
        logs = np.empty(n + 1)
        row = 1
        for k in range(n + 1):
            exact[k] = row
            logs[k] = math.log2(row)
            row = row * (n - k) // (k + 1)
        return logs, exact
    from scipy.special import gammaln  # scipy loads only for rows this long

    k = np.arange(n + 1, dtype=float)
    return (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)) / LN2, None


def log2_binomials(n: int) -> np.ndarray:
    """log2 C(n, k) for k = 0..n (see ``binomials``)."""
    return binomials(n)[0]


def popcount(values: np.ndarray) -> np.ndarray:
    """Number of set bits per element of a nonnegative integer array."""
    return np.bitwise_count(values).astype(np.int64)
