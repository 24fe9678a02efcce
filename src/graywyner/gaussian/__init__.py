"""Correlated Gaussian sources: models, regions, reductions, pipelines."""

from .lemmas import LemmaReport, verify_lemma
from .pipelines import extract_common, refine_private_eps10
from .model import (
    Eps2GaussianChannel,
    GaussianPairModel,
    GaussianRegion,
    LGaussianModel,
    ReductionResult,
    build_eps2_channel,
    classify_gaussian,
    lossy_ci_gaussian,
    r_xy_gaussian,
    reduce_L,
    reduce_eps2,
    reduce_pair,
    wyner_ci_L,
)

__all__ = [
    "Eps2GaussianChannel",
    "GaussianPairModel",
    "GaussianRegion",
    "LGaussianModel",
    "LemmaReport",
    "ReductionResult",
    "build_eps2_channel",
    "classify_gaussian",
    "extract_common",
    "lossy_ci_gaussian",
    "refine_private_eps10",
    "r_xy_gaussian",
    "reduce_L",
    "reduce_eps2",
    "reduce_pair",
    "verify_lemma",
    "wyner_ci_L",
]
