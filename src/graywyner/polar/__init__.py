"""Polarization transform, code construction, and source coding."""

from .channel import (
    BinarySourceWithSideInfo,
    crossover_side_info,
    lossless_source,
    test_channel_source,
)
from .coding import (
    PolarCode,
    sc_lossless_decode,
    sc_lossless_encode,
    sc_lossy_encode,
    sc_lossy_reconstruct,
)
from .profile import (
    CLASS_FROZEN_DETERMINISTIC,
    CLASS_FROZEN_RANDOM,
    CLASS_INFO,
    PolarProfile,
    classify_indices,
    construct_profile,
    construct_profile_cached,
    load_profile,
    profile_cache_key,
    profile_path,
    save_profile,
)
from .sc import sc_traverse
from .transform import polar_transform

__all__ = [
    "BinarySourceWithSideInfo",
    "CLASS_FROZEN_DETERMINISTIC",
    "CLASS_FROZEN_RANDOM",
    "CLASS_INFO",
    "PolarCode",
    "PolarProfile",
    "classify_indices",
    "construct_profile",
    "construct_profile_cached",
    "crossover_side_info",
    "load_profile",
    "lossless_source",
    "profile_cache_key",
    "profile_path",
    "polar_transform",
    "save_profile",
    "sc_lossless_decode",
    "sc_lossless_encode",
    "sc_lossy_encode",
    "sc_lossy_reconstruct",
    "sc_traverse",
    "test_channel_source",
]
