"""Numerical verification that lattice hidden variables are faithful stand-ins.

Each extraction pipeline replaces a hidden Gaussian variable by a draw from
the discrete Gaussian over its quantization lattice.  The flatness factor
eps of (spacing, posterior width) controls everything observable about that
swap at once:

  * the total variation between the exact source law and the lattice
    mixture stays below 4 eps,
  * the information the sources carry about the hidden variable sits within
    5 eps log2(e) bits below its exact counterpart.

verify_lemma measures both sides for a concrete spacing and reports them
next to the bounds.  Every target is sources = W a + Z with Gaussian noise Z
independent of the hidden W, and its reduction names the scalar
U = weights . sources it quantizes.  The weights are parallel to K^-1 a for
the noise covariance K, so U is sufficient for W: U = W + N(0, v) with
v = sigma_s^2 - sigma_r^2.  The rest of the sources is Gaussian and
independent of (W, U), under the exact law and under the lattice mixture
alike, so both the total variation and I(sources; W) equal those of U
alone.  The exact law of U is N(0, sigma_s^2); the lattice law is the
mixture sum_k pmf_k N(u; w_k, v) over the discrete Gaussian of the hidden
variable.  Both densities are sampled on one grid of u, and Simpson panels
on it integrate the information gap and the variation for every target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..numerics import discrete_gaussian_pmf, flatness_factor, simpson_with_error
from .model import (
    Eps2GaussianChannel,
    GaussianPairModel,
    LGaussianModel,
    r_xy_gaussian,
    reduce_L,
    reduce_eps2,
    reduce_pair,
)

LOG2E = math.log2(math.e)

# quadrature grid: this many points per noise width sqrt(v), over this many
# widths sqrt(sigma_s^2) either side of zero (the exact law misses 1.5e-23)
_POINTS_PER_WIDTH = 16
_BOX_WIDTHS = 10.0
# beyond this many noise widths a mixture term is below exp(-800) and
# underflows, so it is not evaluated
_REACH_WIDTHS = 40.0


@dataclass(frozen=True)
class LemmaReport:
    """Measured substitution errors for one lattice spacing.

    sigma is the posterior width the flatness factor is evaluated at; the
    mutual-information gap counts bits lost relative to the exact hidden
    variable (negative when the lattice variable reveals slightly more).
    A check is ok only when the measured value plus its error bound stays
    within the lemma's bound, so an unresolved measurement is not ok.
    """

    kind: str
    scale: float
    sigma: float
    epsilon: float
    mi_value: float
    mi_target: float
    mi_error: float
    variation: float
    variation_error: float

    @property
    def variation_bound(self) -> float:
        return 4.0 * self.epsilon

    @property
    def mi_gap(self) -> float:
        return self.mi_target - self.mi_value

    @property
    def mi_gap_bound(self) -> float:
        return 5.0 * self.epsilon * LOG2E

    @property
    def variation_ok(self) -> bool:
        return self.variation + self.variation_error <= self.variation_bound

    @property
    def mi_ok(self) -> bool:
        return self.mi_gap + self.mi_error <= self.mi_gap_bound

    @property
    def ok(self) -> bool:
        return self.variation_ok and self.mi_ok


def _abs_panels(d, h):
    """Integral of |d| over a uniform grid of odd size, spacing h.

    Each Simpson panel x0, x1, x2 is read as the quadratic P through its
    three samples, and |P| is integrated exactly between the roots of P.
    Where d keeps its sign this is the Simpson rule; where it changes sign
    it keeps the rule's order instead of smearing the kink of |d|.
    """
    d0, d1, d2 = d[:-2:2], d[1:-1:2], d[2::2]
    # P(t) = d0 + b t + c t^2 for t in [0, 2], in units of h
    b = 0.5 * (4.0 * d1 - 3.0 * d0 - d2)
    c = 0.5 * (d0 - 2.0 * d1 + d2)
    disc = b * b - 4.0 * c * d0
    with np.errstate(all="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
        roots = np.stack([q / c, d0 / q])
    roots = np.where(np.isfinite(roots) & (disc >= 0.0),
                     np.clip(roots, 0.0, 2.0), 0.0)
    t = np.sort(np.vstack([np.zeros_like(d0), roots, np.full_like(d0, 2.0)]),
                axis=0)
    antiderivative = t * (d0 + t * (b / 2.0 + t * (c / 3.0)))
    return h * float(np.abs(np.diff(antiderivative, axis=0)).sum())


def _scalar_report(kind, scale, mmse, mi_target):
    """Report from the exact law of U and its lattice mixture.

    mi_target is the closed-form I(sources; W), which equals
    1/2 log2(sigma_s^2 / v).  The gap to the lattice information is
    h(f) - h(g) for the exact density f and the mixture g; it is taken as
    D(g || f) - log2(e) (sum pmf w^2 - sigma_r^2) / (2 sigma_s^2), which
    stays exact where the two entropies agree to the last digit.
    """
    s2, r2, v = mmse.sigma_s2, mmse.sigma_r2, mmse.distortion
    m = math.ceil(_POINTS_PER_WIDTH * 2.0 * _BOX_WIDTHS * math.sqrt(s2 / v) / 4.0)
    half = _BOX_WIDTHS * math.sqrt(s2)
    u = np.linspace(-half, half, 4 * m + 1)
    f = np.exp(-0.5 * u * u / s2) / math.sqrt(2.0 * math.pi * s2)

    points, pmf = discrete_gaussian_pmf(scale, math.sqrt(r2))
    reach = _REACH_WIDTHS * math.sqrt(v)
    lo = np.searchsorted(u, points - reach)
    hi = np.searchsorted(u, points + reach)
    g = np.zeros_like(u)
    for w, p, a, b in zip(points, pmf, lo, hi):
        d = u[a:b] - w
        g[a:b] += p * np.exp(-0.5 * d * d / v)
    g /= math.sqrt(2.0 * math.pi * v)

    h = float(u[1] - u[0])
    diff = f - g
    variation = _abs_panels(diff, h)
    variation_error = abs(variation - _abs_panels(diff[::2], 2.0 * h))
    ratio = g / f
    kl, kl_error = simpson_with_error(
        g * np.log2(np.where(ratio > 0.0, ratio, 1.0)), u)
    gap = kl - LOG2E * (float(pmf @ (points * points)) - r2) / (2.0 * s2)
    sigma = math.sqrt(mmse.sigma_tilde2)
    return LemmaReport(
        kind=kind, scale=scale, sigma=sigma,
        epsilon=flatness_factor(scale, sigma),
        mi_value=mi_target - gap, mi_target=mi_target, mi_error=kl_error,
        variation=variation, variation_error=variation_error)


def verify_lemma(target, scale: float) -> LemmaReport:
    """Measure the substitution errors of a lattice hidden variable.

    target picks the claim being checked: a GaussianPairModel for the
    shared-variable pair, an LGaussianModel for the equicorrelated tuple,
    or an Eps2GaussianChannel for the coupled-distortion reconstruction.
    scale is the lattice spacing of the hidden variable.
    """
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive, got {scale}")
    if isinstance(target, GaussianPairModel):
        return _scalar_report("pair", scale, reduce_pair(target).mmse,
                              target.wyner_ci())
    if isinstance(target, LGaussianModel):
        return _scalar_report(f"{target.n_sources}-sources", scale,
                              reduce_L(target).mmse, target.wyner_ci())
    if isinstance(target, Eps2GaussianChannel):
        model = GaussianPairModel(target.rho)
        d1, d2 = 1.0 - target.delta1, 1.0 - target.delta2
        return _scalar_report("coupled", scale, reduce_eps2(d1, d2, model).mmse,
                              r_xy_gaussian(d1, d2, model))
    raise TypeError(
        "target must be a GaussianPairModel, LGaussianModel or "
        f"Eps2GaussianChannel, got {type(target).__name__}")
