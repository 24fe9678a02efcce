"""Scalar information-theoretic and lattice-Gaussian primitives.

This module collects the closed-form building blocks shared by every other
part of the package:

* ``binary_entropy`` / ``binary_convolve``: the binary entropy function
  h(p) = -p log2 p - (1-p) log2 (1-p) and the crossover convolution
  a * b = a(1-b) + b(1-a) of two Bernoulli noise parameters.  All entropies
  and rates in this package are measured in bits.

* ``discrete_gaussian_pmf``: the discrete Gaussian on a scaled integer
  lattice s*Z, centered at 0, on a window worked out from (s, sigma) whose
  omitted share is provably below 2.5e-15.

* ``flatness_factor``: the maximum deviation of the lattice-aliased Gaussian
  density from the uniform density over one fundamental region,
  eps(s, sigma) = max_x | s * sum_k N(x; k s, sigma^2) - 1 |, evaluated
  exactly as the Jacobi theta series theta3(q) - 1.  Small eps means the
  aliased Gaussian is nearly flat, which is the working condition for
  every lattice construction in this package.

* ``simpson_with_error``: composite Simpson integration of values sampled
  on a uniform 1-D grid, with an error estimate from the same rule on every
  other sample.

Only one-dimensional scaled integer lattices are supported.  All functions
are pure and safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# binary entropy and crossover convolution
# ---------------------------------------------------------------------------

def binary_entropy(p):
    """Binary entropy h(p) in bits, elementwise on scalars or arrays.

    h(0) = h(1) = 0 by continuity.  Raises ValueError if any input lies
    outside [0, 1] or is nan.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"probability out of range [0, 1]: {p!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -arr * np.log2(arr) - (1.0 - arr) * np.log2(1.0 - arr)
    h = np.where((arr == 0.0) | (arr == 1.0), 0.0, h)
    if np.isscalar(p) or np.ndim(p) == 0:
        return float(h)
    return h


def binary_convolve(a, b):
    """Crossover convolution a(1-b) + b(1-a) of Bernoulli parameters.

    Commutative and associative; 0 is the identity and 1/2 is absorbing.
    """
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if not (np.all((aa >= 0.0) & (aa <= 1.0)) and np.all((bb >= 0.0) & (bb <= 1.0))):
        raise ValueError(f"probability out of range [0, 1]: {a!r}, {b!r}")
    out = aa * (1.0 - bb) + bb * (1.0 - aa)
    if np.ndim(out) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# discrete Gaussians on s*Z
# ---------------------------------------------------------------------------

_WINDOW_SIGMAS = math.sqrt(2.0 * math.log(4e13))  # c in the proof below


def discrete_gaussian_pmf(scale: float, sigma: float):
    """Discrete Gaussian on the lattice scale*Z, centered at 0.

    Returns (points, pmf): the lattice points k*scale for |k| <= R, with
    R = ceil(c * sigma / scale) + 2 and c = sqrt(2 ln(4e13)), and the
    weights exp(-point^2 / (2 sigma^2)) normalized over that window.

    The omitted share of the untruncated law is below 2.5e-15 for every
    sigma / scale.  With a = scale^2 / (2 sigma^2) the weights are
    exp(-a k^2).  By Poisson summation their total is
    sqrt(pi / a) * theta3(exp(-pi^2 / a)) >= sqrt(pi / a), since the dual
    series has positive terms.  The weights decrease in |k|, so each tail
    sum over k > R is at most the integral of exp(-a x^2) beyond R, which is
    sqrt(pi / a) * erfc(R sqrt(a)) / 2.  Both tails together are thus at
    most erfc(R sqrt(a)) of the total, and R sqrt(a) >= c / sqrt(2) gives
    erfc(sqrt(ln(4e13))) = 2.48e-15.
    """
    if not (0.0 < scale < math.inf and 0.0 < sigma < math.inf):
        raise ValueError(
            f"scale and sigma must be positive and finite, got {scale}, {sigma}")
    radius = math.ceil(sigma / scale * _WINDOW_SIGMAS) + 2
    pts = np.arange(-radius, radius + 1) * scale
    z = pts / sigma
    w = np.exp(-0.5 * z * z)
    pmf = w / w.sum()
    return pts, pmf


# ---------------------------------------------------------------------------
# flatness factor of s*Z at noise sigma
# ---------------------------------------------------------------------------

_SERIES_TERMS = 17  # the 18th term of either series is below exp(-1000)


def flatness_factor(scale: float, sigma: float) -> float:
    """Maximum deviation of the aliased Gaussian from uniform on [0, scale).

    eps(scale, sigma) = max_x | scale * sum_k N(x; k*scale, sigma^2) - 1 |.
    By Poisson summation, with q = exp(-2 pi^2 sigma^2 / scale^2),

        scale * f(x) - 1 = 2 sum_{n>=1} q^(n^2) cos(2 pi n x / scale).

    Every coefficient is positive, so the largest deviation sits at x = 0,
    where it equals theta3(q) - 1 = 2 sum_{n>=1} q^(n^2).  That dual series
    is summed when 2 pi sigma^2 / scale^2 >= 1 (q <= e^-pi); otherwise the
    direct series scale * sum_k N(0; k*scale, sigma^2) - 1 is, whose terms
    then decay at least as fast.  The direct series runs only where
    eps > 0.086, so subtracting 1 costs at most one digit, and small eps
    keeps full relative precision down to the underflow limit.  Increasing
    in scale / sigma and invariant under joint scaling of (scale, sigma).
    """
    if not (0.0 < scale < math.inf and 0.0 < sigma < math.inf):
        raise ValueError(
            f"scale and sigma must be positive and finite, got {scale}, {sigma}")
    terms = range(1, _SERIES_TERMS + 1)
    t = math.pi * sigma / scale
    if t * sigma / scale >= 0.5:  # 2 pi sigma^2 / scale^2 >= 1
        a = 2.0 * t * t
        return 2.0 * math.fsum(math.exp(-a * (n * n)) for n in terms)
    inv = scale / sigma
    b = 0.5 * inv * inv
    tail = 2.0 * math.fsum(math.exp(-b * (n * n)) for n in terms)
    return (1.0 + tail) * inv / math.sqrt(2.0 * math.pi) - 1.0


# ---------------------------------------------------------------------------
# Simpson quadrature
# ---------------------------------------------------------------------------

def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n (odd, >= 3) points with spacing h."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd point count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def simpson_with_error(values: np.ndarray, grid: np.ndarray) -> tuple:
    """Simpson integral of values sampled on a uniform grid, with its error.

    The error is the gap to the same rule on every other sample, so the
    grid needs 4m+1 points (m >= 1) for the coarse rule to be a valid
    Simpson grid too.  Returns (integral, error_estimate).
    """
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    h = float(grid[1] - grid[0])
    full = float(_simpson_weights(grid.size, h) @ values)
    half = float(_simpson_weights((grid.size + 1) // 2, 2.0 * h) @ values[::2])
    return full, abs(full - half)
