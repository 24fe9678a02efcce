"""Every function the benchmark tracer patches still exists under the
module name it is patched at, so renaming one fails here and not only in
traced benchmark runs; the probes read the counts they report from the
calls' arguments (block and level counts) as the library passes them;
traced runs give the untraced outputs; and every import src/ keeps alive
only for the tracer names a patched target.
perfbench/ is read, never imported as a package."""

import ast
import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SRC = ROOT / "src"


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


def test_traced_lossy_op_counts_the_blocks_it_replays():
    """Each lossy_reconstruct span reports the blocks of the code it
    replays, the rows of the lossy_encode span that made the code: n_blocks
    for W, then 2 n_blocks for the stacked refinement twins."""
    from graywyner.dsbs.model import DsbsModel
    from graywyner.dsbs.pipelines import LossyTinyBoth, run_dsbs_pipeline

    n_blocks = 3
    recorded = _traced(lambda: run_dsbs_pipeline(
        LossyTinyBoth(0.05), DsbsModel(0.11), 256, 1, n_blocks=n_blocks,
        sample_count=32, construction_seed=5))
    encodes = [s.info["blocks"] for s in recorded if s.name == "lossy_encode"]
    replays = [s.info["blocks"] for s in recorded if s.name == "lossy_reconstruct"]
    assert encodes == replays == [n_blocks, 2 * n_blocks]


def test_traced_lossy_op_records_one_rng_block_span_per_level():
    """The coders draw each level's dither and rounding rows in one
    rng.block call, and the tracer records it under the coder's span: W
    codes one level and the refinement twins two, so the encoders make
    2 and 4 calls (dither and rounding) and the replays 1 and 2."""
    recorded = _traced(_dsbs_lossy_run)
    calls = {name: [len(_children(recorded, s, "rng.block"))
                    for s in recorded if s.name == name]
             for name in ("lossy_encode", "lossy_reconstruct")}
    assert calls == {"lossy_encode": [2, 4], "lossy_reconstruct": [1, 2]}
    assert spans.layer_counts(recorded, 0)["rng.block_calls"] == 9


def test_traced_lattice_replay_counts_the_levels():
    """The lattice.reconstruct span reports the level count of the lattice
    that the lattice.build span built."""
    from graywyner.gaussian.model import GaussianPairModel
    from graywyner.gaussian.pipelines import extract_common

    recorded = _traced(lambda: extract_common(
        GaussianPairModel(0.8), 128, 1, n_blocks=2, sample_count=32,
        construction_seed=5))
    (build,) = [s for s in recorded if s.name == "lattice.build"]
    (replay,) = [s for s in recorded if s.name == "lattice.reconstruct"]
    assert replay.info["levels"] == build.info["levels"] > 1


def _dsbs_lossy_run():
    from graywyner.dsbs.model import DsbsModel
    from graywyner.dsbs.pipelines import LossyTinyBoth, run_dsbs_pipeline

    return run_dsbs_pipeline(LossyTinyBoth(0.05), DsbsModel(0.11), 256, 1,
                             n_blocks=3, sample_count=32, construction_seed=5)


def _gaussian_refined_run():
    from graywyner.gaussian.model import GaussianPairModel
    from graywyner.gaussian.pipelines import extract_common, refine_private_eps10

    model = GaussianPairModel(0.8)
    common = extract_common(model, 128, 1, n_blocks=2, sample_count=32,
                            construction_seed=5)
    return refine_private_eps10(0.1, 0.1, model, common, sample_count=32,
                                construction_seed=5)


@pytest.mark.parametrize("run", [_dsbs_lossy_run, _gaussian_refined_run],
                         ids=["dsbs-lossy", "gaussian-refined"])
def test_tracing_moves_no_output(run):
    """Traced and untraced runs give array-equal RunRecords.  The tracer
    puts a timing wrapper in every sc_traverse's second slot, wrapping
    whatever sat there (None for a depth-first pass), so the traced run
    completing with the same outputs pins that no depth-first pass calls
    its second argument."""
    plain = run()
    traced = []
    _traced(lambda: traced.append(run()))
    for field in dataclasses.fields(plain):
        want, got = getattr(plain, field.name), getattr(traced[0], field.name)
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want, err_msg=field.name)
        else:
            assert got == want, field.name


def _unused_marked_imports(text: str) -> list:
    """Names a module imports in a statement marked `# noqa: F401` and
    never reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and any("noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names if (alias.asname or alias.name) not in read]


def test_keep_alive_imports_name_patched_targets():
    """A name src/ imports only so that the tracer can patch it there must
    be a target the tracer patches at that module; once a target retires,
    its import is dead and fails here."""
    text = "from a import b, c  # noqa: F401\nfrom d import e\nc()\n"
    assert _unused_marked_imports(text) == ["b"]  # the scan itself
    patched = {(path, attr) for _, path, attr in spans.TARGETS}
    kept = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        kept += [(module, name) for name in _unused_marked_imports(path.read_text())]
    assert [pair for pair in kept if pair not in patched] == []
