"""Vectorised Simpson quadrature of the Beta CDF for the heavy test loops.

The same composite Simpson rule as ``workmix.oracle_beta_cdf``, in NumPy
(from the ``test`` extra).  The library's pure-Python oracle takes about
0.2 s per call at 400,000 steps, too slow for the cross-check grids that
call it hundreds of times.
"""

import math

import pytest


def simpson_beta_cdf(x, shape, steps):
    """Beta(p, q) CDF at x by Simpson's rule; inputs as for oracle_beta_cdf."""
    np = pytest.importorskip("numpy")
    p, q = shape.p, shape.q
    n = steps if steps % 2 == 0 else steps + 1
    t = np.linspace(0.0, x, n + 1)
    density = t ** (p - 1.0) * (1.0 - t) ** (q - 1.0)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = x / n
    integral = float(np.dot(weights, density)) * h / 3.0
    return integral / math.exp(shape.log_beta)
