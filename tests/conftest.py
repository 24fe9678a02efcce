"""Shared fixtures: a disk-backed profile store so expensive Monte Carlo
constructions are reused across test modules and across test sessions.

Entries that no load can serve any more (written under an earlier cache
version, not a profile, or unreadable) are deleted when a session starts,
so superseded entries do not pile up in the store.

The Hypothesis profile named by the HYPOTHESIS_PROFILE environment
variable is loaded, "default" without it.  The "ci" profile derandomizes
the examples and lifts the deadline, so @given tests cannot flake on slow
runners, and prints the blob that reproduces a failing example."""

import json
import os
from pathlib import Path

import pytest
from hypothesis import settings

import numpy as np

from graywyner.polar import construct_profile_cached
from graywyner.polar.profile import PROFILE_CACHE_VERSION

CACHE_DIR = Path(__file__).parent / ".cache"

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def is_current_entry(path: Path) -> bool:
    """True for a JSON profile entry of the current cache version."""
    if path.suffix != ".json":
        return False
    try:
        data = json.loads(path.read_text())
        return (data.get("kind") == "profile"
                and data.get("version") == PROFILE_CACHE_VERSION)
    except (OSError, ValueError, AttributeError, RecursionError):
        return False


def prune_stale_entries(cache_dir: Path) -> list:
    """Delete every file in cache_dir that is not a current entry; returns
    the deleted names."""
    if not cache_dir.is_dir():
        return []
    stale = [p for p in sorted(cache_dir.iterdir())
             if p.is_file() and not is_current_entry(p)]
    for path in stale:
        path.unlink(missing_ok=True)
    return [p.name for p in stale]


def plant_certainty(evidence, codeword):
    """A copy of (1, B, N, 1) breadth-first LLR evidence made certain of
    the true codeword bit (L = +inf for a 0, -inf for a 1) at every fourth
    position of each block whose codeword starts with 1.  The choice
    depends on the block alone, so any slicing of a batch plants the same
    leaves, and slices with and without infinite L mix."""
    x = np.asarray(codeword)
    planted = np.array(evidence, dtype=float)
    certain = np.zeros(x.shape, dtype=bool)
    certain[:, ::4] = x[:, :1] == 1
    planted[0, :, :, 0][certain] = np.where(x[certain] == 1, -np.inf, np.inf)
    return planted


def pytest_sessionstart(session):
    prune_stale_entries(CACHE_DIR)


@pytest.fixture(scope="session")
def cache_dir():
    CACHE_DIR.mkdir(exist_ok=True)
    return CACHE_DIR


@pytest.fixture(scope="session")
def profile_store(cache_dir):
    def get(channel, block_len, sample_count=256, seed=11):
        return construct_profile_cached(
            channel, block_len, cache_dir, sample_count=sample_count, seed=seed)
    return get
