"""Scalar information-theoretic and lattice-Gaussian primitives.

This module collects the closed-form building blocks shared by every other
part of the package:

* ``binary_entropy`` / ``binary_convolve``: the binary entropy function
  h(p) = -p log2 p - (1-p) log2 (1-p) and the crossover convolution
  a * b = a(1-b) + b(1-a) of two Bernoulli noise parameters.  All entropies
  and rates in this package are measured in bits.

* discrete Gaussians on scaled integer lattices s*Z: ``discrete_gaussian_pmf``
  evaluates the Gaussian-weighted distribution restricted to lattice points,
  truncated to a finite window whose omitted mass is provably below 1e-12.

* ``flatness_factor``: the maximum deviation of the lattice-aliased Gaussian
  density from the uniform density over one fundamental region,
  eps(s, sigma) = max_x | s * sum_k N(x; k s, sigma^2) - 1 |, evaluated
  exactly as the Jacobi theta series theta3(q) - 1.  Small eps means the
  aliased Gaussian is nearly flat, which is the working condition for
  every lattice construction in this package.

* ``tensor_grid_quadrature`` / ``simpson_with_error``: composite Simpson
  integration of values sampled on a tensor product of uniform grids, the
  latter with an error estimate from the same rule on every other sample.

Only one-dimensional scaled integer lattices are supported.  All functions
are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class TruncationError(ValueError):
    """Requested truncation window is too small for the target tail bound."""


class MassDeficitError(ValueError):
    """Integration box does not cover enough probability mass."""


# ---------------------------------------------------------------------------
# binary entropy and crossover convolution
# ---------------------------------------------------------------------------

def binary_entropy(p):
    """Binary entropy h(p) in bits, elementwise on scalars or arrays.

    h(0) = h(1) = 0 by continuity.  Raises ValueError if any input lies
    outside [0, 1].
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
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
    if np.any(aa < 0.0) or np.any(aa > 1.0) or np.any(bb < 0.0) or np.any(bb > 1.0):
        raise ValueError(f"probability out of range [0, 1]: {a!r}, {b!r}")
    out = aa * (1.0 - bb) + bb * (1.0 - aa)
    if np.ndim(out) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# discrete Gaussians on s*Z
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteGaussianSpec:
    """Parameters of a truncated discrete Gaussian on the lattice scale*Z.

    scale: lattice spacing s > 0 (lattice points are k*s for integer k).
    sigma: Gaussian standard deviation > 0.
    center: real center c of the Gaussian weight exp(-(x-c)^2 / (2 sigma^2)).
    truncation_radius: number of lattice points kept on each side of the
        lattice point nearest to the center.
    """

    scale: float
    sigma: float
    center: float = 0.0
    truncation_radius: int = 0

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.truncation_radius < 1:
            raise ValueError(
                f"truncation_radius must be a positive integer, got {self.truncation_radius}"
            )

    def points(self) -> np.ndarray:
        """Lattice points of the truncated support, in increasing order."""
        k0 = round(self.center / self.scale)
        k = np.arange(k0 - self.truncation_radius, k0 + self.truncation_radius + 1)
        return k * self.scale


def default_truncation_radius(scale: float, sigma: float, tail: float = 1e-13) -> int:
    """Smallest window radius (in lattice steps) with omitted mass below tail.

    Derived from the Gaussian tail inequality rather than fixed, so the
    accuracy of downstream checks does not depend on sigma/scale.
    """
    if not (scale > 0.0 and sigma > 0.0 and 0.0 < tail < 1.0):
        raise ValueError("scale, sigma must be positive and 0 < tail < 1")
    radius = max(1, math.ceil(sigma / scale * math.sqrt(2.0 * math.log(4.0 / tail))) + 2)
    while _truncation_tail_bound(scale, sigma, 0.0, radius) > tail and radius < 10**7:
        radius *= 2
    return radius


def _truncation_tail_bound(scale, sigma, center, radius) -> float:
    """Upper bound on the probability mass omitted by the truncation window.

    Uses (d + j s)^2 >= d^2 + 2 d j s to bound each one-sided geometric-like
    sum of Gaussian weights, then normalizes by a lower bound on the kept
    mass (the weight of the lattice point nearest the center).
    """
    s, sig = float(scale), float(sigma)
    k0 = round(center / s)
    off = center - k0 * s
    out = 0.0
    for side in (+1, -1):
        d = (radius + 1) * s - side * off
        expo = -d * d / (2.0 * sig * sig)
        ratio = -s * d / (sig * sig)
        if expo < -745.0:
            continue
        out += math.exp(expo) / max(1.0 - math.exp(ratio), 1e-300)
    kept = math.exp(-(off * off) / (2.0 * sig * sig))
    return out / kept


def discrete_gaussian_pmf(spec: DiscreteGaussianSpec, tail: float = 1e-12):
    """Truncated discrete Gaussian pmf on the lattice scale*Z.

    Returns (points, pmf) where pmf is proportional to
    exp(-(point - center)^2 / (2 sigma^2)) and normalized over the truncated
    support.  Raises TruncationError when the window admits more than `tail`
    omitted mass under the Gaussian tail bound.
    """
    bound = _truncation_tail_bound(spec.scale, spec.sigma, spec.center, spec.truncation_radius)
    if bound > tail:
        raise TruncationError(
            f"truncation_radius={spec.truncation_radius} leaves tail mass bound "
            f"{bound:.3e} > {tail:.1e}; enlarge the window"
        )
    pts = spec.points()
    z = (pts - spec.center) / spec.sigma
    logw = -0.5 * z * z
    w = np.exp(logw - logw.max())
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
# tensor-grid quadrature
# ---------------------------------------------------------------------------

def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n (odd, >= 3) points with spacing h."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd point count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def tensor_grid_quadrature(values: np.ndarray, grids) -> float:
    """Integrate sampled values over a tensor product of 1-D Simpson grids.

    values has one axis per grid; each grid must be uniform with an odd
    number of points.
    """
    acc = np.asarray(values, dtype=float)
    for axis in range(len(grids) - 1, -1, -1):
        g = np.asarray(grids[axis], dtype=float)
        w = _simpson_weights(len(g), float(g[1] - g[0]))
        acc = np.tensordot(acc, w, axes=([axis], [0]))
    return float(acc)


def simpson_with_error(values: np.ndarray, grids) -> tuple:
    """Tensor-grid Simpson integral of sampled values, with its error.

    The error is the gap to the same rule on every other sample, so each
    grid needs 4m+1 points (m >= 1) for the coarse rule to be a valid
    Simpson grid too.  Returns (integral, error_estimate).
    """
    values = np.asarray(values, dtype=float)
    full = tensor_grid_quadrature(values, grids)
    half = tensor_grid_quadrature(values[(slice(None, None, 2),) * values.ndim],
                                  [np.asarray(g)[::2] for g in grids])
    return full, abs(full - half)
