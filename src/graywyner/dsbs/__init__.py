"""Doubly symmetric binary source: models, regions, and coding pipelines."""

from .model import (
    DsbsModel,
    DsbsRegion,
    ag_partner_crossover,
    build_ag_channel,
    build_eps2_channel,
    build_gb_channel,
    build_point_g_channel,
    classify_dsbs,
    gb_theory_triple,
    lossy_ci_dsbs,
    pair_observation,
    r_xy_dsbs,
)
from .pipelines import (
    CurveGB,
    LineAG,
    LossyCoupled,
    LossyLopsided,
    LossyTinyBoth,
    PointA,
    PointG,
    run_dsbs_pipeline,
)

__all__ = [
    "DsbsModel",
    "DsbsRegion",
    "ag_partner_crossover",
    "build_ag_channel",
    "build_eps2_channel",
    "build_gb_channel",
    "build_point_g_channel",
    "classify_dsbs",
    "gb_theory_triple",
    "lossy_ci_dsbs",
    "pair_observation",
    "r_xy_dsbs",
    "CurveGB",
    "LineAG",
    "LossyCoupled",
    "LossyLopsided",
    "LossyTinyBoth",
    "PointA",
    "PointG",
    "run_dsbs_pipeline",
]
