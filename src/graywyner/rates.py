"""Rate triples and run records for the one-encoder two-decoder network."""

from __future__ import annotations

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
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

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

    common, when present, holds the common reconstruction blocks so a
    refinement stage can code residuals against exactly what the decoder
    will see.
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

    @property
    def n_blocks(self) -> int:
        return len(self.r0)

    @property
    def total(self) -> np.ndarray:
        return self.r0 + self.r1 + self.r2

    def mean_triple(self) -> RateTriple:
        return RateTriple(float(self.r0.mean()), float(self.r1.mean()),
                          float(self.r2.mean()))


def check_replay(decoded: np.ndarray, expected: np.ndarray, stage: str) -> None:
    """Raise RuntimeError unless a decoder output equals the encoder side's."""
    if not np.array_equal(decoded, expected):
        raise RuntimeError(f"{stage}: decoder output diverged from the encoder side")
