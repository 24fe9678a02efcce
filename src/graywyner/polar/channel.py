"""Binary sources with finite-alphabet side information.

Every polar coding task in this package is an instance of one shape: a
binary variable X to be coded, observed jointly with a side variable Y on a
finite alphabet.  For lossless compression X is the source itself and Y is
whatever the decoder already knows (possibly nothing).  For lossy
compression X is the reconstruction variable of a test channel and Y is the
source observation; the joint law is then prior(x) * P(y | x).

The class stores the joint pmf P(X = x, Y = y) as a (2, K) matrix and
derives everything else from it: exact entropies for oracle checks, a
table of LLRs ln P(X=0 | y) - ln P(X=1 | y) for successive-cancellation
evidence, samplers for Monte Carlo construction, and a content hash used
as the cache key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..numerics import binary_entropy

# symbols per row chunk of BinarySourceWithSideInfo.sample
_SAMPLE_VALUES = 1 << 16


def _entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


@dataclass(frozen=True)
class BinarySourceWithSideInfo:
    """Joint law of a binary coded variable X and side information Y.

    joint[x, y] = P(X = x, Y = y); rows must be indexed by x in {0, 1} and
    the matrix must sum to 1.  `name` is a human-readable tag carried along
    for logs; it does not enter the cache identity.
    """

    joint: np.ndarray
    name: str = "channel"
    _llr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        j = np.array(self.joint, dtype=float)
        if j.ndim != 2 or j.shape[0] != 2 or j.shape[1] < 1:
            raise ValueError(f"joint must have shape (2, K), got {j.shape}")
        if not (np.all(j >= 0.0) and abs(j.sum() - 1.0) <= 1e-12):
            raise ValueError("joint must be a probability matrix summing to 1")
        j.setflags(write=False)
        object.__setattr__(self, "joint", j)
        with np.errstate(divide="ignore"):  # ln 0 = -inf
            log_cond = np.log(self.conditional_table())
        llr = log_cond[:, 0] - log_cond[:, 1]  # a row is never (0, 0)
        llr.setflags(write=False)
        object.__setattr__(self, "_llr", llr)

    # -- scalar descriptors ------------------------------------------------

    @property
    def side_alphabet_size(self) -> int:
        return int(self.joint.shape[1])

    @property
    def prior_one(self) -> float:
        """P(X = 1)."""
        return float(self.joint[1].sum())

    @property
    def prior_is_uniform(self) -> bool:
        return abs(self.prior_one - 0.5) < 1e-12

    def entropy_x(self) -> float:
        return binary_entropy(self.prior_one)

    def entropy_x_given_y(self) -> float:
        return _entropy_bits(self.joint) - _entropy_bits(self.joint.sum(axis=0))

    def mutual_information(self) -> float:
        """I(X; Y) in bits."""
        return self.entropy_x() - self.entropy_x_given_y()

    def channel_id(self) -> str:
        """Content hash of the joint law; identical laws share cache entries."""
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.joint, dtype=np.float64).tobytes())
        digest.update(str(self.joint.shape).encode())
        return digest.hexdigest()[:16]

    # -- evidence and sampling ----------------------------------------------

    def conditional_table(self) -> np.ndarray:
        """(K, 2) table with row y equal to (P(X=0 | y), P(X=1 | y))."""
        py = self.joint.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(py > 0.0, self.joint / py, 0.5).T.copy()

    def leaf_evidence(self, y: np.ndarray) -> np.ndarray:
        """Per-position LLRs ln P(X=0 | y) - ln P(X=1 | y), +-inf where X
        is certain, in y's shape for observed side symbols y.

        The LLRs are gathered from the channel's (K,) table with np.take;
        integer symbols go in as they are, anything else is cast to intp
        first."""
        y = np.asarray(y)
        if y.dtype.kind not in "iu":
            y = y.astype(np.intp)
        return np.take(self._llr, y)

    def prior_evidence(self, shape) -> np.ndarray:
        """Read-only broadcast array of the prior LLR ln P(X=0) - ln P(X=1)
        over the shape."""
        with np.errstate(divide="ignore"):
            log_prior = np.log([1.0 - self.prior_one, self.prior_one])
        return np.broadcast_to(log_prior[0] - log_prior[1], tuple(shape))

    def sample(self, n_blocks: int, block_len: int, gen: np.random.Generator):
        """Draw iid (x, y) pairs; returns x:(B,N) uint8 and y:(B,N) in the
        smallest unsigned dtype that holds K - 1 (uint8 for K <= 256).

        The outcome idx = K x + y is what gen.choice(2 K, size=(B, N),
        p=joint.ravel()) draws: one uniform U per symbol in row-major
        order, and idx the number of thresholds of the normalized CDF at
        or below U, which is where searchsorted(side="right") places U.
        Here idx is counted with one comparison per threshold over the
        block, O(K) passes of SIMD compares instead of a binary search per
        symbol, which pays for the small K of every channel in this
        package (K <= 4).  Drawing the uniforms a few rows at a time takes
        the same values from gen and gives the same outcomes, without
        (B, N) temporaries.  The count is kept in a dtype that holds 2 K.
        """
        k = self.side_alphabet_size
        cdf = self.joint.ravel().cumsum()
        cdf /= cdf[-1]
        x = np.empty((n_blocks, block_len), dtype=np.uint8)
        y = np.empty((n_blocks, block_len), dtype=np.min_scalar_type(k - 1))
        rows = max(1, _SAMPLE_VALUES // max(1, block_len))
        for start in range(0, n_blocks, rows):
            stop = min(start + rows, n_blocks)
            uniforms = gen.random((stop - start, block_len))
            idx = np.zeros(uniforms.shape, dtype=np.min_scalar_type(2 * k))
            for threshold in cdf[:-1]:  # the last one, 1, is above every U
                idx += uniforms >= threshold
            np.greater_equal(idx, k, out=x[start:stop])
            idx -= np.multiply(x[start:stop], k, dtype=idx.dtype)
            y[start:stop] = idx
        return x, y


def lossless_source(p_one: float, name: str = "plain-source") -> BinarySourceWithSideInfo:
    """Binary source Ber(p_one) with no usable side information (K = 1)."""
    return BinarySourceWithSideInfo(
        joint=np.array([[1.0 - p_one], [p_one]]), name=name)


def crossover_side_info(crossover: float, name: str = "crossover-side-info"
                        ) -> BinarySourceWithSideInfo:
    """Uniform X observed through a binary symmetric crossover as Y.

    Used for lossless coding of X when the decoder holds Y = X xor noise, and
    equally for lossless coding of X given a common variable W with
    X = W xor Ber(crossover).
    """
    a = float(crossover)
    joint = 0.5 * np.array([[1.0 - a, a], [a, 1.0 - a]])
    return BinarySourceWithSideInfo(joint=joint, name=name)


def test_channel_source(prior_one: float, forward: np.ndarray,
                        name: str = "test-channel") -> BinarySourceWithSideInfo:
    """Lossy-coding source: X ~ Ber(prior_one), Y | X = x ~ forward[x].

    forward is a (2, K) stochastic matrix giving the observation law of the
    source given the reconstruction variable.
    """
    fwd = np.asarray(forward, dtype=float)
    if fwd.ndim != 2 or fwd.shape[0] != 2:
        raise ValueError(f"forward must have shape (2, K), got {fwd.shape}")
    if np.any(fwd < 0.0) or not np.allclose(fwd.sum(axis=1), 1.0, atol=1e-12):
        raise ValueError("forward rows must be probability vectors")
    prior = np.array([1.0 - prior_one, prior_one])
    return BinarySourceWithSideInfo(joint=prior[:, None] * fwd, name=name)
