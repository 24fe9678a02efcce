"""Golden digest of the pipelines' per-block outputs on fixed seeds.

A refactor that must not change any output proves it here: the SHA-256 of
r0, r1, r2, dist_x, dist_y and common (where present), in that order, over
a fixed list of DSBS operating points and Gaussian routes, stays equal to
the committed digest.  A change that moves outputs on purpose updates the
digest and says why in CHANGES.md.

GOLDEN covers every route at 4 blocks or fewer; GOLDEN_BATCH covers two
DSBS points at 64 blocks and a Gaussian pair at 32, where the SC passes'
batch-wide decisions (the rate-1 guards take a minimum over the batch)
meet many blocks at once.
"""

import hashlib

import numpy as np

from graywyner.dsbs import (
    CurveGB,
    DsbsModel,
    LineAG,
    LossyCoupled,
    LossyLopsided,
    LossyTinyBoth,
    PointA,
    PointG,
    run_dsbs_pipeline,
)
from graywyner.gaussian import (
    GaussianPairModel,
    LGaussianModel,
    extract_common,
    refine_private_eps10,
)

GOLDEN = "d9c01ed951152cee7485b4cb00e40abbf45fbd619ac8ee2cec413980d10dc1f2"
GOLDEN_BATCH = "6373e80e574950d8495dfa39771b30df9e754f219776dddff78c13ec59e5d308"
FIELDS = ("r0", "r1", "r2", "dist_x", "dist_y", "common")


def golden_runs():
    model = DsbsModel(0.11)
    points = [PointA(), PointG(), LineAG(model.a1 / 2),
              CurveGB((model.a1 + 0.5) / 2), LossyTinyBoth(0.05),
              LossyCoupled(0.3, 0.3), LossyLopsided(0.05, 0.4)]
    for point in points:
        yield run_dsbs_pipeline(point, model, 1024, 7, n_blocks=4,
                                sample_count=64, construction_seed=3)
    pair_model = GaussianPairModel(0.8)
    gauss = dict(n_blocks=3, sample_count=32)
    pair = extract_common(pair_model, 512, 5, **gauss)
    yield pair
    yield refine_private_eps10(0.1, 0.1, pair_model, pair, sample_count=32)
    yield extract_common(LGaussianModel(3, 0.5), 512, 5, **gauss)
    yield extract_common((0.3, 0.3, pair_model), 512, 5, **gauss)
    yield extract_common((0.1, 0.7, pair_model), 512, 5, **gauss)


def golden_batch_runs():
    model = DsbsModel(0.11)
    for point in (PointG(), LossyTinyBoth(0.05)):
        yield run_dsbs_pipeline(point, model, 1024, 7, n_blocks=64,
                                sample_count=64, construction_seed=3)
    yield extract_common(GaussianPairModel(0.8), 512, 5, n_blocks=32,
                         sample_count=32)


def digest_of(runs) -> str:
    digest = hashlib.sha256()
    for run in runs:
        for name in FIELDS:
            values = getattr(run, name)
            if values is not None:
                digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def test_outputs_match_golden_digest():
    assert digest_of(golden_runs()) == GOLDEN


def test_batch_outputs_match_golden_digest():
    assert digest_of(golden_batch_runs()) == GOLDEN_BATCH
