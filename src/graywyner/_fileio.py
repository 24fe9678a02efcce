"""Atomic file writes for the profile cache."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path, text: str) -> Path:
    """Write text to path atomically (temp file + rename, same directory)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target
