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
  eps(s, sigma) = max_x | s * sum_k N(x; k s, sigma^2) - 1 |.
  Small eps means the aliased Gaussian is nearly flat, which is the working
  condition for every lattice construction in this package.

* ``variation_distance_2d``: tensor-grid quadrature of the L1 distance
  between two densities on R^2, with an explicit quadrature-error estimate.

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

def _aliased_deviation(x, scale, sigma, radius):
    """|scale * f_aliased(x) - 1| for x in [0, scale), vectorized over x.

    f_aliased(x) = sum_k N(x; k*scale, sigma^2), truncated at `radius` lattice
    steps on each side (enough for tail < 1e-14 when radius comes from
    _alias_radius).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.arange(-radius, radius + 2)  # one extra step: x can sit near scale
    z = (xs[:, None] - k[None, :] * scale) / sigma
    dens = np.exp(-0.5 * z * z).sum(axis=1) * (scale / (math.sqrt(2.0 * math.pi) * sigma))
    return np.abs(dens - 1.0)


def _alias_radius(scale: float, sigma: float, tail: float = 1e-14) -> int:
    radius = max(1, math.ceil(sigma / scale * math.sqrt(2.0 * math.log(4.0 / tail))) + 2)
    return radius


def flatness_factor(scale: float, sigma: float, grid_resolution: int = 256) -> float:
    """Maximum deviation of the aliased Gaussian from uniform on [0, scale).

    eps(scale, sigma) = max_x | scale * sum_k N(x; k*scale, sigma^2) - 1 |,
    computed on a uniform grid over the fundamental region followed by a
    golden-section refinement around the best grid point.  The aliased sum is
    truncated with tail below 1e-14.  Monotone nonincreasing in sigma for
    fixed scale, and invariant under joint scaling of (scale, sigma).
    grid_resolution, the number of probe points, must be at least 64.
    """
    if not scale > 0.0 or not sigma > 0.0:
        raise ValueError("scale and sigma must be positive")
    if grid_resolution < 64:
        raise ValueError(f"grid_resolution must be >= 64, got {grid_resolution}")
    radius = _alias_radius(scale, sigma)
    grid = scale * np.arange(grid_resolution) / grid_resolution
    dev = _aliased_deviation(grid, scale, sigma, radius)
    best = int(np.argmax(dev))
    best_val = float(dev[best])
    # golden-section refinement of the unimodal bump around the best probe
    step = scale / grid_resolution
    lo, hi = grid[best] - step, grid[best] + step
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = float(_aliased_deviation(c, scale, sigma, radius)[0])
    fd = float(_aliased_deviation(d, scale, sigma, radius)[0])
    for _ in range(40):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = float(_aliased_deviation(c, scale, sigma, radius)[0])
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = float(_aliased_deviation(d, scale, sigma, radius)[0])
    return max(best_val, fc, fd)


# ---------------------------------------------------------------------------
# tensor-grid quadrature and the 2-D variation distance
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


def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def variation_distance_2d(f, g, box, resolution: int = 257):
    """Quadrature of the L1 distance between two densities on R^2.

    f and g are vectorized callables f(x_grid, y_grid) on meshgrid arrays.
    box = ((x_lo, x_hi), (y_lo, y_hi)) must cover at least 1 - 1e-9 of the
    mass of each density (checked via the quadrature itself, with its own
    error estimate as slack); otherwise MassDeficitError is raised.

    Returns (value, error_estimate), the error estimated by comparing the
    full-resolution Simpson result with the half-resolution one on the same
    samples.
    """
    (x_lo, x_hi), (y_lo, y_hi) = box
    n = _odd(max(int(resolution), 33))
    # half-resolution grid must also be a valid Simpson grid on the same samples
    if ((n - 1) // 2) % 2 == 1:
        n += 2
    xg = np.linspace(x_lo, x_hi, n)
    yg = np.linspace(y_lo, y_hi, n)
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    fv = np.asarray(f(X, Y), dtype=float)
    gv = np.asarray(g(X, Y), dtype=float)

    def both(values):
        fine = tensor_grid_quadrature(values, (xg, yg))
        coarse = tensor_grid_quadrature(values[::2, ::2], (xg[::2], yg[::2]))
        return fine, abs(fine - coarse)

    mass_f, err_f = both(fv)
    mass_g, err_g = both(gv)
    for name, mass, err in (("f", mass_f, err_f), ("g", mass_g, err_g)):
        if mass < 1.0 - 1e-9 - 10.0 * err - 1e-12:
            raise MassDeficitError(
                f"density {name} has mass {mass:.12f} over the box "
                f"(quadrature error ~{err:.2e}); enlarge the box"
            )
    value, err_v = both(np.abs(fv - gv))
    return value, err_v
