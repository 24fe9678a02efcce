"""The package metadata matches the code: every declared console script
resolves to a callable, and importing the library needs nothing beyond
numpy and the standard library (scipy, mpmath and hypothesis are test
dependencies only)."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import graywyner

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC_ROOT = Path(graywyner.__file__).resolve().parents[1]
TEST_ONLY = ("scipy", "mpmath", "hypothesis")


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target} is not callable"


def test_library_imports_no_test_dependency():
    # a fresh interpreter: this test process has imported the test-only
    # packages already
    probe = (
        "import importlib, json, pkgutil, sys, graywyner\n"
        "names = [m.name for m in pkgutil.walk_packages(graywyner.__path__, 'graywyner.')]\n"
        "for name in names: importlib.import_module(name)\n"
        f"print(json.dumps([names, [m for m in {TEST_ONLY!r} if m in sys.modules]]))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], cwd=SRC_ROOT,
                         capture_output=True, text=True, check=True).stdout
    names, pulled_in = json.loads(out)
    assert "graywyner.lattice" in names and "graywyner.polar.sc" in names
    assert pulled_in == []


@pytest.mark.parametrize("package", ["graywyner.dsbs", "graywyner.gaussian",
                                     "graywyner.polar"])
def test_exports_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
