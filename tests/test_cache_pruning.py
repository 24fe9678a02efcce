"""The session-start pruning of the shared test profile store keeps current
entries and deletes superseded or unreadable ones."""

import json

from conftest import prune_stale_entries

from graywyner.polar import lossless_source
from graywyner.polar.profile import PROFILE_CACHE_VERSION, construct_profile, save_profile


def test_prune_keeps_current_and_drops_stale(tmp_path):
    current = save_profile(construct_profile(lossless_source(0.11), 16, sample_count=4),
                           tmp_path).name
    entries = {
        # lattice levels are ordinary profile entries; bundles are stale
        "bundle.json": {"version": PROFILE_CACHE_VERSION, "kind": "multilevel"},
        "profile_old.json": {"version": PROFILE_CACHE_VERSION - 1, "kind": "profile"},
        "profile_odd_kind.json": {"version": PROFILE_CACHE_VERSION, "kind": "other"},
        "not_a_dict.json": [1, 2],
    }
    for name, data in entries.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "truncated.json").write_text('{"version": ')
    (tmp_path / "left_over.json123.tmp").write_text("{}")
    deleted = prune_stale_entries(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [current]
    assert len(deleted) == 6


def test_prune_of_missing_directory_is_a_no_op(tmp_path):
    assert prune_stale_entries(tmp_path / "absent") == []
