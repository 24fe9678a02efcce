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


def _traced(run):
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.op(0):
            run()
    return tracer.spans


def _children(all_spans, parent, name):
    index = all_spans.index(parent)
    return [s for s in all_spans if s.parent == index and s.name == name]


def test_traced_dsbs_op_keeps_sc_contract():
    """Every SC pass under a traced pipeline op reports its leaves, and each
    construction reaches the engine through a traced sc span."""
    from graywyner.dsbs.model import DsbsModel
    from graywyner.dsbs.pipelines import PointG, run_dsbs_pipeline

    block_len, sample_count = 256, 32
    recorded = _traced(lambda: run_dsbs_pipeline(
        PointG(), DsbsModel(0.11), block_len, 1, n_blocks=2,
        sample_count=sample_count, construction_seed=5))
    sc_spans = [s for s in recorded if s.name == "sc"]
    assert sc_spans and all(s.info.get("leaves", 0) > 0 for s in sc_spans)
    constructs = [s for s in recorded if s.name == "construct"]
    assert constructs
    for span in constructs:
        passes = _children(recorded, span, "sc")
        assert passes
        # both PointG channels have uniform priors: one chain
        assert sum(s.info["leaves"] for s in passes) == sample_count * block_len
    counts = spans.layer_counts(recorded, 0)
    assert counts["construct.leaves"] == len(constructs) * sample_count * block_len
    assert counts["sc.construct.busy_s"] > 0


def test_traced_lattice_op_keeps_sc_contract():
    from graywyner.gaussian.model import GaussianPairModel
    from graywyner.gaussian.pipelines import extract_common

    block_len, sample_count = 128, 32
    recorded = _traced(lambda: extract_common(
        GaussianPairModel(0.8), block_len, 1, n_blocks=2,
        sample_count=sample_count, construction_seed=5))
    sc_spans = [s for s in recorded if s.name == "sc"]
    assert sc_spans and all(s.info.get("leaves", 0) > 0 for s in sc_spans)
    builds = [s for s in recorded if s.name == "lattice.build"]
    assert builds
    for span in builds:
        passes = _children(recorded, span, "sc")
        assert len(passes) == span.info["levels"]
        # every level runs the conditional and the prior chain
        assert all(s.info["leaves"] == sample_count * block_len * 2 for s in passes)
    counts = spans.layer_counts(recorded, 0)
    assert counts["construct.calls"] == 0
    assert counts["sc.lattice.busy_s"] > 0
