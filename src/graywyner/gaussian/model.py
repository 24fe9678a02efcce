"""Correlated Gaussian sources: models, distortion regions, reductions.

Every source here has unit variance per coordinate.  A pair (X, Y) with
correlation rho in (0, 1) can be written as two noisy looks

    X = W + sqrt(1-rho) N1,    Y = W + sqrt(1-rho) N2

at a hidden Gaussian W ~ N(0, rho) with independent standard normal N1,
N2; that W attains Wyner's common information

    C(X, Y) = 1/2 log2((1+rho)/(1-rho)).

For a per-coordinate mean-squared-error pair (d1, d2) the plane splits
into regions with different joint rate-distortion behavior.  Writing
delta_i = 1 - d_i for the variance each reconstruction must carry:

* TINY_BOTH (both d_i <= 1-rho) and SMALL_BOTH (delta1 * delta2 >= rho^2):
  independent backward noises suffice and the joint rate-distortion
  function is 1/2 log2((1-rho^2)/(d1 d2));
* COUPLED (min{delta1/delta2, delta2/delta1} >= rho^2 among the rest):
  both reconstructions are scalings of one common Gaussian and the noise
  pair (Z1, Z2) must be correlated to keep the source law; the rate
  follows the correlated-noise branch and the lossy common information
  equals the whole rate;
* LOPSIDED (that ratio below rho^2): the looser coordinate is served for
  free by scaling the tighter one's reconstruction, so the rate is
  1/2 log2(1/min(d1, d2));
* FREE (a coordinate beyond the unit variance): outside the catalog of
  named regions; the rate formulas report zero there.

Every coding construction in this package reduces to quantizing a single
weighted combination U of the coordinates with a one-dimensional lattice.
The reduce_* functions return those weights together with the variance
split (sample variance of U, variance of the reconstruction) that
configures the quantizer.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..lattice import MmseParams, mmse_params


class GaussianRegion(enum.Enum):
    TINY_BOTH = "E10"
    SMALL_BOTH = "E11"
    COUPLED = "E2"
    LOPSIDED = "E3"
    FREE = "BEYOND_UNIT"


@dataclass(frozen=True)
class GaussianPairModel:
    """Zero-mean unit-variance jointly Gaussian pair, correlation rho."""

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")

    def covariance(self) -> np.ndarray:
        return np.array([[1.0, self.rho], [self.rho, 1.0]])

    def wyner_ci(self) -> float:
        """Wyner's common information 1/2 log2((1+rho)/(1-rho))."""
        return 0.5 * math.log2((1.0 + self.rho) / (1.0 - self.rho))

    def sample(self, n_blocks: int, block_len: int, gen: np.random.Generator):
        """Draw iid source pairs; returns (x, y) float arrays (B, N)."""
        chol = np.linalg.cholesky(self.covariance())
        z = gen.standard_normal((n_blocks, block_len, 2)) @ chol.T
        return z[..., 0], z[..., 1]


@dataclass(frozen=True)
class LGaussianModel:
    """n_sources unit-variance Gaussians, every pair at correlation rho.

    All coordinates are noisy looks X_i = W + sqrt(1-rho) N_i at the same
    hidden W ~ N(0, rho), so the covariance has unit diagonal and rho
    everywhere else.
    """

    n_sources: int
    rho: float

    def __post_init__(self):
        if isinstance(self.n_sources, bool) or not isinstance(
                self.n_sources, numbers.Integral):
            raise ValueError(
                f"n_sources must be an integer, got {self.n_sources!r}")
        if self.n_sources < 2:
            raise ValueError(f"need at least 2 sources, got {self.n_sources}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")

    def covariance(self) -> np.ndarray:
        size = self.n_sources
        return np.full((size, size), self.rho) + (1.0 - self.rho) * np.eye(size)

    def wyner_ci(self) -> float:
        """Common information of all n_sources looks at the hidden W."""
        return 0.5 * math.log2(1.0 + self.n_sources * self.rho / (1.0 - self.rho))

    def sample(self, n_blocks: int, block_len: int, gen: np.random.Generator):
        """Draw iid source tuples; returns a float array (L, B, N)."""
        chol = np.linalg.cholesky(self.covariance())
        z = gen.standard_normal((n_blocks, block_len, self.n_sources)) @ chol.T
        return np.moveaxis(z, -1, 0)


# ---------------------------------------------------------------------------
# distortion regions and rate formulas
# ---------------------------------------------------------------------------

def _check_nonnegative(d1: float, d2: float) -> None:
    if not (d1 >= 0.0 and d2 >= 0.0):
        raise ValueError(f"distortions must be nonnegative, got ({d1}, {d2})")


def classify_gaussian(d1: float, d2: float, model: GaussianPairModel
                      ) -> GaussianRegion:
    """Region of the MSE pair, evaluated tightest region first.

    The four named regions tile the square [0, 1]^2; any pair with a
    coordinate beyond the unit variance falls through to FREE before the
    set tests run.  The coupled test compares the reconstruction variances
    delta_i = 1 - d_i multiplicatively (delta_lo >= rho^2 * delta_hi), which
    equals the ratio form min{delta1/delta2, delta2/delta1} >= rho^2
    without dividing; the corner d1 = d2 = 1 lands in LOPSIDED, where its
    rate is zero anyway.
    """
    _check_nonnegative(d1, d2)
    if d1 > 1.0 or d2 > 1.0:
        return GaussianRegion.FREE
    rho = model.rho
    if d1 <= 1.0 - rho and d2 <= 1.0 - rho:
        return GaussianRegion.TINY_BOTH
    if d1 + d2 - d1 * d2 <= 1.0 - rho * rho:
        return GaussianRegion.SMALL_BOTH
    lo, hi = min(1.0 - d1, 1.0 - d2), max(1.0 - d1, 1.0 - d2)
    if hi > 0.0 and lo >= rho * rho * hi:
        return GaussianRegion.COUPLED
    return GaussianRegion.LOPSIDED


def r_xy_gaussian(d1: float, d2: float, model: GaussianPairModel) -> float:
    """Joint rate-distortion function R_XY(d1, d2) in bits/symbol.

    Infinite at exactly-zero distortion on the branches that constrain it;
    zero on FREE, where the named-region formulas do not apply.
    """
    region = classify_gaussian(d1, d2, model)
    if region is GaussianRegion.FREE:
        return 0.0
    rho = model.rho
    if region in (GaussianRegion.TINY_BOTH, GaussianRegion.SMALL_BOTH):
        if d1 == 0.0 or d2 == 0.0:
            return math.inf
        return 0.5 * math.log2((1.0 - rho * rho) / (d1 * d2))
    if region is GaussianRegion.COUPLED:
        gap = rho - math.sqrt((1.0 - d1) * (1.0 - d2))
        return 0.5 * math.log2((1.0 - rho * rho) / (d1 * d2 - gap * gap))
    tighter = min(d1, d2)
    if tighter == 0.0:
        return math.inf
    return 0.5 * math.log2(1.0 / tighter)


def lossy_ci_gaussian(d1: float, d2: float, model: GaussianPairModel):
    """Lossy common information; None where it is an open question."""
    region = classify_gaussian(d1, d2, model)
    if region is GaussianRegion.TINY_BOTH:
        return model.wyner_ci()
    if region is GaussianRegion.SMALL_BOTH:
        return None
    if region is GaussianRegion.FREE:
        return 0.0
    return r_xy_gaussian(d1, d2, model)


# ---------------------------------------------------------------------------
# coupled-region backward test channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eps2GaussianChannel:
    """Backward test channel of the coupled region.

    Both reconstructions are deterministic scalings of one Gaussian X':
    Y' = slope * X', and the sources are X = X' + Z1, Y = Y' + Z2 with a
    correlated noise pair (Z1, Z2) independent of X'.  delta1 and delta2
    are the reconstruction variances 1 - d1 and 1 - d2.
    """

    rho: float
    delta1: float
    delta2: float

    @property
    def slope(self) -> float:
        return math.sqrt(self.delta2 / self.delta1)

    def k_reconstruction(self) -> np.ndarray:
        """Covariance of (X', Y'); rank one by construction."""
        root = math.sqrt(self.delta1 * self.delta2)
        return np.array([[self.delta1, root], [root, self.delta2]])

    def k_noise(self) -> np.ndarray:
        """Covariance of (Z1, Z2); complements k_reconstruction to the
        source covariance."""
        root = math.sqrt(self.delta1 * self.delta2)
        off = self.rho - root
        return np.array([[1.0 - self.delta1, off], [off, 1.0 - self.delta2]])


def build_eps2_channel(d1: float, d2: float, model: GaussianPairModel
                       ) -> Eps2GaussianChannel:
    """Coupled-region channel for the distortion pair; checks the region."""
    region = classify_gaussian(d1, d2, model)
    if region is not GaussianRegion.COUPLED:
        raise ValueError(f"({d1}, {d2}) falls in {region.name}; this "
                         "channel needs the coupled region")
    return Eps2GaussianChannel(rho=model.rho, delta1=1.0 - d1, delta2=1.0 - d2)


# ---------------------------------------------------------------------------
# reductions to a single scalar quantization problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionResult:
    """Scalar source U = sum_i weights[i] * X_i with its variance split.

    mmse carries the quantizer configuration: sample variance sigma_s2 of
    U, reconstruction variance sigma_r2, and the derived shrinkage and
    posterior width.
    """

    weights: tuple
    mmse: MmseParams

    def combine(self, sources) -> np.ndarray:
        """Apply the weights; sources stack along the first axis."""
        arr = np.asarray(sources, dtype=float)
        if arr.shape[0] != len(self.weights):
            raise ValueError(f"expected {len(self.weights)} sources, "
                             f"got {arr.shape[0]}")
        return np.tensordot(np.asarray(self.weights), arr, axes=1)


def reduce_pair(model: GaussianPairModel) -> ReductionResult:
    """Quantization problem whose reconstruction plays the hidden W.

    U = (X+Y)/2 has variance (1+rho)/2 and the reconstruction carries
    W's variance rho, so the posterior width comes out as
    rho(1-rho)/(1+rho).
    """
    rho = model.rho
    return ReductionResult(weights=(0.5, 0.5),
                           mmse=mmse_params((1.0 + rho) / 2.0, rho))


def reduce_L(model: LGaussianModel) -> ReductionResult:
    """Mean of all looks; the posterior width shrinks as sources accrue."""
    size, rho = model.n_sources, model.rho
    sigma_s2 = (1.0 + (size - 1) * rho) / size
    return ReductionResult(weights=(1.0 / size,) * size,
                           mmse=mmse_params(sigma_s2, rho))


def reduce_eps2(d1: float, d2: float, model: GaussianPairModel
                ) -> ReductionResult:
    """Quantization problem whose reconstruction plays the coupled X'.

    The weights are the linear MMSE estimator of X' from (X, Y) up to the
    shrinkage factor; U's variance is delta1 (1-rho^2) / q with
    q = delta1 + delta2 - 2 rho sqrt(delta1 delta2), and the
    reconstruction carries delta1.  At d1 = d2 the weights collapse to
    (1/2, 1/2) and U matches reduce_pair's combination.
    """
    region = classify_gaussian(d1, d2, model)
    if region is not GaussianRegion.COUPLED:
        raise ValueError(f"({d1}, {d2}) falls in {region.name}; this "
                         "reduction needs the coupled region")
    rho = model.rho
    delta1, delta2 = 1.0 - d1, 1.0 - d2
    root = math.sqrt(delta1 * delta2)
    q = delta1 + delta2 - 2.0 * rho * root
    weights = ((delta1 - rho * root) / q, (root - rho * delta1) / q)
    sigma_s2 = delta1 * (1.0 - rho * rho) / q
    return ReductionResult(weights=weights, mmse=mmse_params(sigma_s2, delta1))
