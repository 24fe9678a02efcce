"""Doubly symmetric binary source: model, distortion regions, rate formulas.

The source is a uniform bit X observed with Y = X xor Z, Z ~ Ber(a0).  The
half-crossover a1 solves a1 * a1 = a0 under the crossover convolution, so X
and Y can be written as two independent BSC(a1) looks at a hidden uniform
bit W; that W attains Wyner's common information

    C(X, Y) = 1 + h(a0) - 2 h(a1).

For a per-coordinate Hamming distortion pair (d1, d2) the plane splits into
regions with different joint rate-distortion behavior:

* TINY_BOTH (both di <= a1) and SMALL_BOTH (crossover convolution of the
  pair <= a0): the joint rate-distortion function is the independent-noise
  branch 1 + h(a0) - h(d1) - h(d2);
* COUPLED (|d1 - d2| <= a0, convolution above a0): a single common
  reconstruction bit serves both coordinates; the rate follows the
  asymmetric-test-channel branch and the lossy common information equals
  the whole rate;
* LOPSIDED (|d1 - d2| > a0): the looser coordinate is free once the tighter
  one is coded, so the rate is 1 - h(min(d1, d2));
* FREE (both beyond 1/2): nothing needs to be sent.

Distortions above 1/2 in a single coordinate are clamped to 1/2 before
classification (a coordinate that loose adds no constraint).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ..numerics import binary_convolve, binary_entropy
from ..polar.channel import BinarySourceWithSideInfo
from ..rates import RateTriple


class DsbsRegion(enum.Enum):
    TINY_BOTH = "E10"
    SMALL_BOTH = "E11"
    COUPLED = "E2"
    LOPSIDED = "E3"
    FREE = "BEYOND_HALF"


@dataclass(frozen=True)
class DsbsModel:
    """Uniform X with Y = X xor Ber(a0), 0 <= a0 <= 1/2."""

    a0: float

    def __post_init__(self):
        if not 0.0 <= self.a0 <= 0.5:
            raise ValueError(f"a0 must lie in [0, 1/2], got {self.a0}")

    @property
    def a1(self) -> float:
        """Half-crossover: a1 * a1 = a0 under the crossover convolution."""
        return 0.5 - 0.5 * math.sqrt(1.0 - 2.0 * self.a0)

    def entropy_x(self) -> float:
        return 1.0

    def entropy_y(self) -> float:
        return 1.0

    def joint_entropy(self) -> float:
        return 1.0 + binary_entropy(self.a0)

    def wyner_ci(self) -> float:
        """Wyner's common information 1 + h(a0) - 2 h(a1)."""
        return 1.0 + binary_entropy(self.a0) - 2.0 * binary_entropy(self.a1)

    def sample(self, n_blocks: int, block_len: int, gen: np.random.Generator):
        """Draw iid source pairs; returns (x, y) uint8 arrays (B, N)."""
        x = gen.integers(0, 2, size=(n_blocks, block_len), dtype=np.uint8)
        z = (gen.random((n_blocks, block_len)) < self.a0).astype(np.uint8)
        return x, x ^ z


# ---------------------------------------------------------------------------
# distortion regions and rate formulas
# ---------------------------------------------------------------------------

def _check_nonnegative(d1: float, d2: float) -> None:
    if not (d1 >= 0.0 and d2 >= 0.0):
        raise ValueError(f"distortions must be nonnegative, got ({d1}, {d2})")


def classify_dsbs(d1: float, d2: float, model: DsbsModel) -> DsbsRegion:
    """Region of the distortion pair, evaluated tightest region first.

    The four named regions tile the square [0, 1/2]^2; any pair with a
    coordinate beyond 1/2 needs no code at all and falls through to FREE.
    The coupled region is where neither coordinate can absorb the source
    noise on the other's behalf: the crossover from the tighter distortion
    through the source noise still overshoots the looser distortion,
    (dmax - dmin) / (1 - 2 dmin) <= a0.  Past that, one coordinate rides
    along for free and the pair is lopsided.
    """
    _check_nonnegative(d1, d2)
    if d1 > 0.5 or d2 > 0.5:
        return DsbsRegion.FREE
    a0, a1 = model.a0, model.a1
    if d1 <= a1 and d2 <= a1:
        return DsbsRegion.TINY_BOTH
    if binary_convolve(d1, d2) <= a0:
        return DsbsRegion.SMALL_BOTH
    lo, hi = min(d1, d2), max(d1, d2)
    ratio = 0.0 if hi == lo else (hi - lo) / (1.0 - 2.0 * lo)
    if ratio <= a0:
        return DsbsRegion.COUPLED
    return DsbsRegion.LOPSIDED


def r_xy_dsbs(d1: float, d2: float, model: DsbsModel) -> float:
    """Joint rate-distortion function R_XY(d1, d2) in bits/symbol."""
    region = classify_dsbs(d1, d2, model)
    if region is DsbsRegion.FREE:
        return 0.0
    a0 = model.a0
    if region in (DsbsRegion.TINY_BOTH, DsbsRegion.SMALL_BOTH):
        return 1.0 + binary_entropy(a0) - binary_entropy(d1) - binary_entropy(d2)
    if region is DsbsRegion.COUPLED:
        shared = (d1 + d2 - a0) / (2.0 * (1.0 - a0))
        skew = (d1 - d2 + a0) / (2.0 * a0)
        # max() guards the (1/2, 1/2) corner against float residue
        return max(0.0, 1.0 - (1.0 - a0) * binary_entropy(shared)
                   - a0 * binary_entropy(skew))
    return 1.0 - binary_entropy(min(d1, d2))


def lossy_ci_dsbs(d1: float, d2: float, model: DsbsModel):
    """Lossy common information; None where it is an open question."""
    region = classify_dsbs(d1, d2, model)
    if region is DsbsRegion.TINY_BOTH:
        return model.wyner_ci()
    if region is DsbsRegion.SMALL_BOTH:
        return None
    if region is DsbsRegion.FREE:
        return 0.0
    return r_xy_dsbs(d1, d2, model)


# ---------------------------------------------------------------------------
# test-channel builders (coded variable W, observation (x, y) as one symbol)
# ---------------------------------------------------------------------------

def _pair_product_channel(cross_x: float, cross_y: float, name: str
                          ) -> BinarySourceWithSideInfo:
    """Uniform W observed through independent crossovers to x and y.

    Observation symbols enumerate (x, y) as 2 x + y.
    """
    forward = np.empty((2, 4))
    for w in (0, 1):
        for x in (0, 1):
            px = cross_x if x != w else 1.0 - cross_x
            for y in (0, 1):
                py = cross_y if y != w else 1.0 - cross_y
                forward[w, 2 * x + y] = px * py
    joint = 0.5 * forward
    return BinarySourceWithSideInfo(joint=joint, name=name)


def build_point_g_channel(model: DsbsModel) -> BinarySourceWithSideInfo:
    """Hidden-bit channel: x and y are independent BSC(a1) looks at W.

    Its exact mutual information I(W; X, Y) equals Wyner's common
    information of the source.
    """
    return _pair_product_channel(model.a1, model.a1, "hidden-bit-pair")


def build_ag_channel(model: DsbsModel, d1: float) -> BinarySourceWithSideInfo:
    """Intermediate common variable between x-as-common and the hidden bit.

    The common variable X' sits on the chain X - X' - W - Y: X is X' through
    a BSC(d1) and Y is X' through a BSC(d2 * a1), where d2 solves
    d1 * d2 = a1.  d1 = 0 makes X' = X; d1 = a1 makes X' = W.
    """
    if not 0.0 <= d1 <= model.a1:
        raise ValueError(f"d1 must lie in [0, a1={model.a1:.6f}], got {d1}")
    d2 = ag_partner_crossover(model, d1)
    return _pair_product_channel(d1, binary_convolve(d2, model.a1),
                                 "intermediate-common")


def ag_partner_crossover(model: DsbsModel, d1: float) -> float:
    """d2 with d1 * d2 = a1 (crossover convolution), closed form."""
    if d1 >= 0.5:
        raise ValueError("d1 must be below 1/2")
    return (model.a1 - d1) / (1.0 - 2.0 * d1)


def build_gb_channel(model: DsbsModel, beta: float) -> BinarySourceWithSideInfo:
    """Degraded common variable W' with P(X != W') = P(Y != W') = beta.

    W' sees the hidden bit W through a BSC(rho) with rho * a1 = beta, so
    raising beta from a1 to 1/2 sweeps the common rate from the full common
    information down to zero.  X and Y stay conditionally independent given
    W but not given W', so the table is a mixture over w of crossover
    products, which keeps the (X, Y) marginal exactly on the source law.
    """
    a1 = model.a1
    if not a1 <= beta <= 0.5:
        raise ValueError(f"beta must lie in [a1={a1:.6f}, 1/2], got {beta}")
    rho = (beta - a1) / (1.0 - 2.0 * a1)
    joint = np.zeros((2, 4))
    for w_prime in (0, 1):
        for w in (0, 1):
            p_w = rho if w != w_prime else 1.0 - rho
            for obs in range(4):
                x, y = obs >> 1, obs & 1
                p_x = a1 if x != w else 1.0 - a1
                p_y = a1 if y != w else 1.0 - a1
                joint[w_prime, obs] += 0.5 * p_w * p_x * p_y
    return BinarySourceWithSideInfo(joint=joint, name="degraded-common")


def gb_theory_triple(model: DsbsModel, beta: float) -> RateTriple:
    """Closed-form rate triple for the degraded-common operating point."""
    a0 = model.a0
    r0 = (1.0 - a0) * (1.0 - binary_entropy((beta - 0.5 * a0) / (1.0 - a0)))
    h_beta = binary_entropy(beta)
    return RateTriple(r0=r0, r1=h_beta, r2=h_beta)


def build_eps2_channel(d1: float, d2: float, model: DsbsModel
                       ) -> BinarySourceWithSideInfo:
    """Asymmetric coupled-region test channel with one shared output bit.

    Given W = w, the error pair (x xor w, y xor w) has law
        P(1,1) = (d1 + d2 - a0) / 2,   P(1,0) = (d1 - d2 + a0) / 2,
        P(0,1) = (d2 - d1 + a0) / 2,   P(0,0) = (2 - a0 - d1 - d2) / 2,
    which keeps x xor y exactly Ber(a0) while hitting the marginal
    distortions P(X != W) = d1 and P(Y != W) = d2.  All four entries are
    nonnegative exactly on the COUPLED region.
    """
    region = classify_dsbs(d1, d2, model)
    if region is not DsbsRegion.COUPLED:
        raise ValueError(
            f"distortion pair ({d1}, {d2}) lies in {region.name}, not COUPLED")
    a0 = model.a0
    err = {
        (1, 1): 0.5 * (d1 + d2 - a0),
        (1, 0): 0.5 * (d1 - d2 + a0),
        (0, 1): 0.5 * (d2 - d1 + a0),
        (0, 0): 0.5 * (2.0 - a0 - d1 - d2),
    }
    forward = np.empty((2, 4))
    for w in (0, 1):
        for (ex, ey), p in err.items():
            forward[w, 2 * (w ^ ex) + (w ^ ey)] = p
    return BinarySourceWithSideInfo(joint=0.5 * forward, name="coupled-pair")


def pair_observation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Encode bit arrays (x, y) as joint observation symbols 2 x + y."""
    return 2 * np.asarray(x, dtype=np.intp) + np.asarray(y, dtype=np.intp)
