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
next to the bounds.  Up to three sources the densities are integrated on
tensor grids; beyond that the variation integral is skipped and the
information gap is estimated by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import rng
from ..numerics import (
    MassDeficitError,
    discrete_gaussian_pmf,
    flatness_factor,
    simpson_with_error,
)
from .model import (
    Eps2GaussianChannel,
    GaussianPairModel,
    LGaussianModel,
    reduce_L,
    reduce_eps2,
    reduce_pair,
)

LOG2E = math.log2(math.e)

_RES_2D = 257
_RES_3D = 129
_MC_CHUNK = 16384


@dataclass(frozen=True)
class LemmaReport:
    """Measured substitution errors for one lattice spacing.

    sigma is the posterior width the flatness factor is evaluated at; the
    mutual-information gap counts bits lost relative to the exact hidden
    variable (negative when the lattice variable reveals slightly more).
    variation is None when only the Monte-Carlo information check ran.
    """

    kind: str
    scale: float
    sigma: float
    epsilon: float
    mi_value: float
    mi_target: float
    mi_error: float
    method: str
    variation: float | None = None
    variation_error: float | None = None

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
        if self.variation is None:
            return True
        return self.variation <= self.variation_bound + self.variation_error

    @property
    def mi_ok(self) -> bool:
        return self.mi_gap <= self.mi_gap_bound + self.mi_error

    @property
    def ok(self) -> bool:
        return self.variation_ok and self.mi_ok


def _check_grid_points(n: int) -> int:
    n = int(n)
    if n < 33 or n % 4 != 1:
        raise ValueError(
            f"grid resolution must be 4m+1 and at least 33, got {n}")
    return n


def _grid_report(kind, scale, sigma, fv, gv, grids, h_cond, mi_target):
    """Report from the exact density fv and the lattice mixture gv, both
    sampled on the tensor grid `grids`; h_cond is the differential entropy
    (bits) of the sources given the hidden variable."""
    for label, values in (("exact density", fv), ("lattice mixture", gv)):
        mass, err = simpson_with_error(values, grids)
        if mass < 1.0 - 1e-9 - 10.0 * err - 1e-12:
            raise MassDeficitError(
                f"{label} mass {mass:.12f} inside the grid box; widen the box")
    variation, var_err = simpson_with_error(np.abs(fv - gv), grids)
    entropy, ent_err = simpson_with_error(
        -gv * np.log2(np.maximum(gv, np.finfo(float).tiny)), grids)
    return LemmaReport(
        kind=kind, scale=scale, sigma=sigma,
        epsilon=flatness_factor(scale, sigma),
        mi_value=entropy - h_cond, mi_target=mi_target, mi_error=ent_err,
        method="grid", variation=variation, variation_error=var_err)


def _equi_report(kind, rho, n_sources, sigma, scale, resolution, box, mi_target):
    """Grid-quadrature report for 2 or 3 equal-weight sources with iid noise."""
    noise = 1.0 - rho
    points, pmf = discrete_gaussian_pmf(scale, math.sqrt(rho))
    axis = np.linspace(-box, box, resolution)
    # mixture: sum_k pmf_k prod_i N(x_i; w_k, noise), one factor per axis
    factors = np.exp(-((axis[None, :] - points[:, None]) ** 2) / (2.0 * noise))
    factors /= math.sqrt(2.0 * math.pi * noise)
    if n_sources == 2:
        weighted = pmf[:, None] * factors
    else:
        weighted = np.einsum("k,ki,kj->kij", pmf, factors, factors)
    gv = np.tensordot(weighted, factors, axes=(0, 0))
    # exact density, via the equicorrelated inverse (I - rho/denom J) / noise
    coords = np.meshgrid(*[axis] * n_sources, indexing="ij", sparse=True)
    s1 = sum(coords)
    s2 = sum(c * c for c in coords)
    denom = 1.0 + (n_sources - 1) * rho
    det = denom * noise ** (n_sources - 1)
    f_norm = (2.0 * math.pi) ** (-n_sources / 2.0) / math.sqrt(det)
    fv = f_norm * np.exp(-0.5 * (s2 - rho / denom * s1 * s1) / noise)
    h_cond = n_sources * 0.5 * math.log2(2.0 * math.pi * math.e * noise)
    return _grid_report(kind, scale, sigma, fv, gv, [axis] * n_sources,
                        h_cond, mi_target)


def _coupled_report(channel, sigma, scale, resolution, box, mi_target):
    """Grid-quadrature report for the coupled backward channel."""
    points, pmf = discrete_gaussian_pmf(scale, math.sqrt(channel.delta1))
    kz = channel.k_noise()
    det_z = float(kz[0, 0] * kz[1, 1] - kz[0, 1] ** 2)
    inv = np.linalg.inv(kz)
    axis = np.linspace(-box, box, resolution)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    gv = np.zeros_like(x)
    for pk, w in zip(pmf, points):
        dx, dy = x - w, y - channel.slope * w
        q = (inv[0, 0] * dx * dx + 2.0 * inv[0, 1] * dx * dy
             + inv[1, 1] * dy * dy)
        gv += pk * np.exp(-0.5 * q)
    gv *= 1.0 / (2.0 * math.pi * math.sqrt(det_z))
    rho = channel.rho
    det_f = 1.0 - rho * rho
    fv = (1.0 / (2.0 * math.pi * math.sqrt(det_f))
          * np.exp(-0.5 * (x * x - 2.0 * rho * x * y + y * y) / det_f))
    h_cond = math.log2(2.0 * math.pi * math.e) + 0.5 * math.log2(det_z)
    return _grid_report("coupled", scale, sigma, fv, gv, [axis, axis],
                        h_cond, mi_target)


def _mc_report(kind, rho, n_sources, sigma, scale, samples, seed, mi_target):
    """Monte-Carlo information check for wide source tuples."""
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    noise = 1.0 - rho
    points, pmf = discrete_gaussian_pmf(scale, math.sqrt(rho))
    gen = rng.stream(seed, rng.STREAM_NOISE)
    log_norm = -0.5 * n_sources * math.log(2.0 * math.pi * noise)
    log_prior = np.log(pmf)
    vals = np.empty(samples)
    done = 0
    while done < samples:
        take = min(_MC_CHUNK, samples - done)
        w = points[gen.choice(points.size, size=take, p=pmf)]
        x = w[:, None] + math.sqrt(noise) * gen.standard_normal((take, n_sources))
        log_cond = -((x - w[:, None]) ** 2).sum(axis=1) / (2.0 * noise)
        dist = ((x[:, :, None] - points[None, None, :]) ** 2).sum(axis=1)
        lw = log_prior[None, :] - dist / (2.0 * noise)
        hi = lw.max(axis=1)
        log_marg = hi + np.log(np.exp(lw - hi[:, None]).sum(axis=1))
        vals[done:done + take] = (log_cond - log_marg) * LOG2E
        done += take
    mi = float(vals.mean())
    err = 3.0 * float(vals.std(ddof=1)) / math.sqrt(samples)
    return LemmaReport(
        kind=kind, scale=scale, sigma=sigma,
        epsilon=flatness_factor(scale, sigma),
        mi_value=mi, mi_target=mi_target, mi_error=err,
        method="monte-carlo")


def verify_lemma(target, scale: float, resolution: int | None = None, *,
                 box_halfwidth: float = 8.0, mc_samples: int = 400_000,
                 seed: int = 0) -> LemmaReport:
    """Measure the substitution errors of a lattice hidden variable.

    target picks the claim being checked: a GaussianPairModel for the
    shared-variable pair, an LGaussianModel for the equicorrelated tuple,
    or an Eps2GaussianChannel for the coupled-distortion reconstruction.
    scale is the lattice spacing of the hidden variable.  resolution is the
    per-axis grid point count (4m+1; defaults 257 for two sources, 129 for
    three); for more than three sources the variation integral is skipped
    and mc_samples paired draws estimate the information gap instead.
    """
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive, got {scale}")
    if isinstance(target, GaussianPairModel):
        sigma = math.sqrt(reduce_pair(target).mmse.sigma_tilde2)
        res = _check_grid_points(_RES_2D if resolution is None else resolution)
        return _equi_report("pair", target.rho, 2, sigma, scale, res,
                            box_halfwidth, target.wyner_ci())
    if isinstance(target, LGaussianModel):
        sigma = math.sqrt(reduce_L(target).mmse.sigma_tilde2)
        kind = f"{target.n_sources}-sources"
        if target.n_sources <= 3:
            default = _RES_2D if target.n_sources == 2 else _RES_3D
            res = _check_grid_points(default if resolution is None else resolution)
            return _equi_report(kind, target.rho, target.n_sources, sigma,
                                scale, res, box_halfwidth, target.wyner_ci())
        return _mc_report(kind, target.rho, target.n_sources, sigma, scale,
                          mc_samples, seed, target.wyner_ci())
    if isinstance(target, Eps2GaussianChannel):
        model = GaussianPairModel(target.rho)
        red = reduce_eps2(1.0 - target.delta1, 1.0 - target.delta2, model)
        sigma = math.sqrt(red.mmse.sigma_tilde2)
        kz = target.k_noise()
        det_z = float(kz[0, 0] * kz[1, 1] - kz[0, 1] ** 2)
        mi_target = 0.5 * math.log2((1.0 - target.rho ** 2) / det_z)
        res = _check_grid_points(_RES_2D if resolution is None else resolution)
        return _coupled_report(target, sigma, scale, res, box_halfwidth,
                               mi_target)
    raise TypeError(
        "target must be a GaussianPairModel, LGaussianModel or "
        f"Eps2GaussianChannel, got {type(target).__name__}")
