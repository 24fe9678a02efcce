"""Rate triples and run records for the one-encoder two-decoder network."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class RateTriple:
    """Common rate r0 and private rates r1 (X branch), r2 (Y branch)."""

    r0: float
    r1: float
    r2: float

    def __post_init__(self):
        for name in ("r0", "r1", "r2"):
            if not 0.0 <= getattr(self, name) < np.inf:  # also false for nan
                raise ValueError(f"{name} must be finite and nonnegative")

    @property
    def total(self) -> float:
        return self.r0 + self.r1 + self.r2

    def satisfies_lossless_bounds(self, h_x: float, h_y: float, h_xy: float,
                                  slack: float = 1e-9) -> bool:
        """Cut-set lower bounds every achievable lossless triple obeys:
        r0+r1+r2 >= H(X,Y), r0+r1 >= H(X), r0+r2 >= H(Y)."""
        return (self.total >= h_xy - slack
                and self.r0 + self.r1 >= h_x - slack
                and self.r0 + self.r2 >= h_y - slack)


@dataclass(frozen=True)
class RunRecord:
    """Per-block measurements plus closed-form targets for one seed.

    The per-block arrays share one nonzero length, every rate and
    distortion block is finite, no rate block lies below zero beyond
    rounding and no distortion block below zero; a record that breaks any
    of these raises ValueError.  common, when present, holds the common
    reconstruction blocks so a refinement stage can code residuals against
    exactly what the decoder will see.
    """

    point_label: str
    block_len: int
    seed: int
    region: Optional[str]
    theory: RateTriple
    theory_ci: Optional[float]
    target_dx: float
    target_dy: float
    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    dist_x: np.ndarray
    dist_y: np.ndarray
    common: Optional[np.ndarray] = None

    def __post_init__(self):
        lengths = {len(self.r0), len(self.r1), len(self.r2),
                   len(self.dist_x), len(self.dist_y)}
        if lengths != {len(self.r0)} or len(self.r0) == 0:
            raise ValueError("per-block arrays must share one nonzero length")
        for name in ("r0", "r1", "r2"):
            values = getattr(self, name)
            if not np.isfinite(values).all():
                raise ValueError(f"empirical rate {name} is not finite")
            if float(values.min()) < -1e-12:
                raise ValueError(f"empirical rate {name} went negative")
        for name in ("dist_x", "dist_y"):
            values = getattr(self, name)
            if not (np.isfinite(values) & (values >= 0.0)).all():
                raise ValueError(f"distortion {name} must be finite and nonnegative")

    @property
    def n_blocks(self) -> int:
        return len(self.r0)

    @property
    def total(self) -> np.ndarray:
        return self.r0 + self.r1 + self.r2

    def mean_triple(self) -> RateTriple:
        return RateTriple(float(self.r0.mean()), float(self.r1.mean()),
                          float(self.r2.mean()))


def check_count(name: str, value) -> None:
    """ValueError naming the count unless value is a positive integer; a
    float or bool is refused before NumPy sees it, as rng.philox does."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def check_run_size(block_len, n_blocks, sample_count) -> None:
    """ValueError unless block_len is a power of two and n_blocks and the
    construction's sample_count are positive integers (check_count),
    checked before any reaches NumPy or a rate formula."""
    check_count("block_len", block_len)
    if block_len & (block_len - 1):
        raise ValueError(f"block length must be a power of two, got {block_len}")
    check_count("n_blocks", n_blocks)
    check_count("sample_count", sample_count)


def check_replay(decoded: np.ndarray, expected: np.ndarray, stage: str) -> None:
    """Raise RuntimeError unless a decoder output equals the encoder side's."""
    if not np.array_equal(decoded, expected):
        raise RuntimeError(f"{stage}: decoder output diverged from the encoder side")
