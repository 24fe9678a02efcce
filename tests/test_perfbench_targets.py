"""Every function the benchmark tracer patches still exists under the
module name it is patched at, so renaming one fails here and not only in
traced benchmark runs.  perfbench/ is read, never imported as a package."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name,path,attr", spans.TARGETS,
                         ids=[f"{p}.{a}" for _, p, a in spans.TARGETS])
def test_patched_name_resolves(name, path, attr):
    assert callable(getattr(spans._resolve(path), attr))
