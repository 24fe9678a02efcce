"""Golden digest of the pipelines' per-block outputs on fixed seeds.

A refactor that must not change any output proves it here: the SHA-256 of
r0, r1, r2, dist_x, dist_y and common (where present), in that order, over
a fixed list of DSBS operating points and Gaussian routes, stays equal to
the committed digest.  A change that moves outputs on purpose updates the
digest and says why in CHANGES.md.

GOLDEN covers every route at 4 blocks or fewer; GOLDEN_BATCH covers two
DSBS points at 64 blocks and a Gaussian pair at 32, where the SC passes'
batch-wide decisions (the rate-1 guards take a minimum over the batch)
meet many blocks at once.  GOLDEN_SCALARS hashes the repr of each record's
scalar fields (SCALAR_FIELDS, with the theory triple spelled out) over the
runs of both lists, so a label, region, theory figure or target cannot
change unseen either.  GOLDEN_PROFILES hashes the constructions themselves
(PROFILE_FIELDS of each profile): three DSBS channels and the levels of a
Gaussian pair's lattice code, so a change to the construction that happens
not to move any pipeline output is still seen.  GOLDEN_CLASSES hashes
only the construction decisions of the same profiles (decisions_of: the
lossy classes and the lossless stored set), so a change that moves h or e
by rounding units, as NumPy's SIMD kernels do from one CPU to another,
re-records GOLDEN_PROFILES while GOLDEN_CLASSES shows that no decision
moved.  GOLDEN_CODES hashes the
coders' own outputs, which the pipeline digests see only through rates and
distortions: a lossless code (sent bits, corrections) with its decoded
blocks, lossy codes with their reconstructions and replays on two DSBS
channels, and a Gaussian pair's per-level lattice codes, reconstruction
and replay.

Run as a script (python tests/test_golden_outputs.py, with the package
importable) to print the six digests of the current code by name, for
re-recording them.
"""

import hashlib
import itertools
from operator import attrgetter

import numpy as np

from graywyner import rng
from graywyner.dsbs import (
    CurveGB,
    DsbsModel,
    LineAG,
    LossyCoupled,
    LossyLopsided,
    LossyTinyBoth,
    PointA,
    PointG,
    build_point_g_channel,
    run_dsbs_pipeline,
)
from graywyner.gaussian import (
    GaussianPairModel,
    LGaussianModel,
    extract_common,
    reduce_pair,
    refine_private_eps10,
)
from graywyner.lattice import (
    build_multilevel_code,
    lattice_quantize,
    lattice_reconstruct,
    plan_chain,
)
from graywyner.polar import (
    construct_profile,
    crossover_side_info,
    sc_lossless_decode,
    sc_lossless_encode,
    sc_lossy_encode,
    sc_lossy_reconstruct,
)
from graywyner.polar import test_channel_source as make_quantizer_source

GOLDEN = "be4d0bbd1c94d4a8814add5b91355adc80d0429eab6218630975c6213a04e4c1"
GOLDEN_BATCH = "4bc3f4fa1b158e75dca7612651bba2a21645cf4bfad3b22246cd0d89f8d620b6"
GOLDEN_SCALARS = "5eed4e8cbb44cff99578c570d46446bd63d26c2edbb5d547f0c54f8f89931878"
GOLDEN_PROFILES = "7d568543c6157f3fbbe4e154d4e0963d8cc8d2b3e4c8f65645a873ce8e1d6e80"
GOLDEN_CLASSES = "09e2282a848e029b6c41609aa3b579c84ecb1d226a17180ecff2f8b11b4ec493"
GOLDEN_CODES = "8cab9f5969c499b5ec7d0369d2ea12062644b8725a1424465773800932eed691"
FIELDS = ("r0", "r1", "r2", "dist_x", "dist_y", "common")
SCALAR_FIELDS = ("point_label", "block_len", "seed", "region", "theory.r0",
                 "theory.r1", "theory.r2", "theory_ci", "target_dx", "target_dy")
PROFILE_FIELDS = ("h_cond", "h_prior", "e_cond", "e_prior", "classes")


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


def golden_channels():
    """The PointG W channel, the lossless X-given-W channel and the
    LossyTinyBoth(0.05) refinement channel."""
    model = DsbsModel(0.11)
    delta = 0.05
    refine = make_quantizer_source(
        (model.a1 - delta) / (1.0 - 2.0 * delta),
        np.array([[1.0 - delta, delta], [delta, 1.0 - delta]]))
    return build_point_g_channel(model), crossover_side_info(model.a1), refine


def golden_lattice_code():
    """The Gaussian pair's reduction and its lattice code at N=512."""
    reduction = reduce_pair(GaussianPairModel(0.8))
    mmse = reduction.mmse
    return reduction, build_multilevel_code(plan_chain(mmse), mmse, 512,
                                            sample_count=32, seed=3)


def golden_profiles():
    """The golden channels' profiles at N=1024, then the levels of the
    Gaussian pair's lattice code."""
    for channel in golden_channels():
        yield construct_profile(channel, 1024, sample_count=64, seed=3)
    yield from golden_lattice_code()[1].profiles


def golden_codes():
    """The coders' outputs on fixed seeds, as a flat sequence of arrays:
    16 blocks of the lossless code of the X-given-W channel (sent bits,
    corrections, the decoded blocks), then 16 blocks of the lossy code
    (sent bits, corrections), reconstruction and replay of the W and
    refinement channels at N=1024, then 8 blocks of the Gaussian pair's
    lattice codes (every level's sent bits, then every level's
    corrections), reconstruction and replay.  Corrections enter as
    per-block counts, then the indices."""
    w_channel, side_channel, refine = golden_channels()
    x, y = side_channel.sample(16, 1024, rng.stream(21, rng.STREAM_SOURCE))
    profile = construct_profile(side_channel, 1024, sample_count=64, seed=3)
    code = sc_lossless_encode(x, side_channel, profile, side=y)
    yield code.sent
    yield from corrections_arrays(code.corrections)
    yield sc_lossless_decode(code, side_channel, profile, side=y)
    for seed, channel in ((22, w_channel), (23, refine)):
        profile = construct_profile(channel, 1024, sample_count=64, seed=3)
        _, obs = channel.sample(16, 1024, rng.stream(seed, rng.STREAM_SOURCE))
        code, recon = sc_lossy_encode(obs, channel, profile, shared_seed=seed)
        yield code.sent
        yield from corrections_arrays(code.corrections)
        yield recon
        yield sc_lossy_reconstruct(code, channel, profile, shared_seed=seed)
    reduction, lattice = golden_lattice_code()
    model = GaussianPairModel(0.8)
    samples = reduction.combine(model.sample(8, 512, rng.stream(24, rng.STREAM_SOURCE)))
    codes, recon = lattice_quantize(samples, lattice, shared_seed=24)
    for level_code in codes:
        yield level_code.sent
    for level_code in codes:
        yield from corrections_arrays(level_code.corrections)
    yield recon
    yield lattice_reconstruct(codes, lattice, shared_seed=24)


def corrections_arrays(corrections):
    """The per-block correction counts, then each block's indices."""
    yield np.array([len(c) for c in corrections], dtype=np.int64)
    yield from corrections


def array_digest_of(arrays) -> str:
    digest = hashlib.sha256()
    for values in arrays:
        digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def decisions_of(profiles):
    """Each profile's classes, then its stored set, the decisions that
    define its lossy and lossless codes."""
    for profile in profiles:
        yield profile.classes
        yield profile.stored_mask()


def digest_of(runs, fields=FIELDS) -> str:
    values = (getattr(run, name) for run in runs for name in fields)
    return array_digest_of(v for v in values if v is not None)


def scalar_digest_of(runs) -> str:
    digest = hashlib.sha256()
    for run in runs:
        digest.update(repr(attrgetter(*SCALAR_FIELDS)(run)).encode())
    return digest.hexdigest()


def test_outputs_match_golden_digest():
    assert digest_of(golden_runs()) == GOLDEN


def test_batch_outputs_match_golden_digest():
    assert digest_of(golden_batch_runs()) == GOLDEN_BATCH


def test_scalar_fields_match_golden_digest():
    runs = itertools.chain(golden_runs(), golden_batch_runs())
    assert scalar_digest_of(runs) == GOLDEN_SCALARS


def test_profiles_match_golden_digest():
    assert digest_of(golden_profiles(), PROFILE_FIELDS) == GOLDEN_PROFILES


def test_construction_decisions_match_golden_digest():
    assert array_digest_of(decisions_of(golden_profiles())) == GOLDEN_CLASSES


def test_codes_match_golden_digest():
    assert array_digest_of(golden_codes()) == GOLDEN_CODES


def current_digests() -> dict:
    """The six digests of the current code, by the names they are recorded
    under."""
    runs, batch = list(golden_runs()), list(golden_batch_runs())
    profiles = list(golden_profiles())
    return {
        "GOLDEN": digest_of(runs),
        "GOLDEN_BATCH": digest_of(batch),
        "GOLDEN_SCALARS": scalar_digest_of(runs + batch),
        "GOLDEN_PROFILES": digest_of(profiles, PROFILE_FIELDS),
        "GOLDEN_CLASSES": array_digest_of(decisions_of(profiles)),
        "GOLDEN_CODES": array_digest_of(golden_codes()),
    }


if __name__ == "__main__":
    for name, value in current_digests().items():
        print(f'{name} = "{value}"')
