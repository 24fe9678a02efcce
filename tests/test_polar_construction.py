"""Construction tests: exact chain-rule telescoping, entropy estimates
against closed forms, decision errors against an oracle count, polarization
trends, classification rules, caching, the construction sampler,
breadth-first passes that do not depend on their slice size, and the
construction's traced memory peak."""

import base64
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import plant_certainty

from graywyner import lattice as lattice_module
from graywyner import rng
from graywyner.gaussian import GaussianPairModel, reduce_pair
from graywyner.lattice import (
    build_multilevel_code,
    lattice_quantize,
    lattice_reconstruct,
    plan_chain,
)
from graywyner.numerics import binary_entropy
from graywyner.polar import (
    CLASS_FROZEN_DETERMINISTIC,
    CLASS_FROZEN_RANDOM,
    CLASS_INFO,
    BinarySourceWithSideInfo,
    PolarProfile,
    classify_indices,
    construct_profile,
    construct_profile_cached,
    crossover_side_info,
    load_profile,
    lossless_source,
    polar_transform,
    profile_cache_key,
    profile_path,
    save_profile,
    sc_lossless_decode,
    sc_lossless_encode,
    sc_lossy_encode,
    sc_lossy_reconstruct,
    sc_traverse,
)
from graywyner.polar import channel as channel_module
from graywyner.polar import profile as profile_module
from graywyner.polar import sc as sc_module
from graywyner.polar import test_channel_source as make_quantizer_source
from graywyner.polar.profile import FROZEN_RANDOM_KAPPA, channel_evidence
from graywyner.polar.sc import map_bits

A1 = 0.0584119566836076573
_LATTICE_MMSE = reduce_pair(GaussianPairModel(0.8)).mmse


def _surprisal(llr, bits):
    """-log2 p(bits) of the posterior pair (1 / (1 + e^-L), 1 / (1 + e^L))."""
    p_true = 1.0 / (1.0 + np.exp(np.where(bits == 1, llr, -llr)))
    return -np.log2(p_true)


def _true_path_llrs(evidence, u):
    """(B, N) leaf LLRs of one-chain evidence along the bits u, read from
    a float64 breadth-first pass, whose chain rule holds to 1e-9."""
    seen = []
    sc_traverse(evidence, lambda leaves, llr: seen.append(llr[0]), known=u,
                dtype=np.float64)
    return seen[0]


class TestChainRuleExact:
    """The per-block sum of leaf surprisals telescopes to the exact block
    log-likelihood; this pins the whole traversal arithmetic at once."""

    @pytest.mark.parametrize("block_len", [8, 64])
    def test_telescoping_matches_direct_likelihood(self, block_len):
        channel = crossover_side_info(0.17)
        gen = rng.stream(99, rng.STREAM_SOURCE)
        x, y = channel.sample(5, block_len, gen)
        u_true = polar_transform(x)
        evidence = channel.leaf_evidence(y)[None]
        surprisal = _surprisal(_true_path_llrs(evidence, u_true), u_true).sum(axis=1)
        table = channel.conditional_table()
        direct = -np.log2(table[y, x.astype(np.intp)]).sum(axis=1)
        np.testing.assert_allclose(surprisal, direct, atol=1e-9)

    def test_prior_chain_telescoping(self):
        channel = lossless_source(0.11)
        gen = rng.stream(4, rng.STREAM_SOURCE)
        x, _ = channel.sample(6, 64, gen)
        u_true = polar_transform(x)
        evidence = np.asarray(channel.prior_evidence((6, 64)))[None]
        surprisal = _surprisal(_true_path_llrs(evidence, u_true), u_true).sum(axis=1)
        weight = x.sum(axis=1)
        direct = -(weight * np.log2(0.11) + (64 - weight) * np.log2(0.89))
        np.testing.assert_allclose(surprisal, direct, atol=1e-9)


class TestEntropyEstimates:
    def test_plain_source_estimates(self):
        profile = construct_profile(lossless_source(0.11), 1024,
                                    sample_count=500, seed=21)
        h = binary_entropy(0.11)
        assert profile.conditional_entropy_estimate() == pytest.approx(h, abs=0.01 * h)
        assert profile.prior_entropy_estimate() == pytest.approx(h, abs=0.01 * h)

    def test_side_info_estimates(self):
        profile = construct_profile(crossover_side_info(A1), 1024,
                                    sample_count=500, seed=22)
        assert profile.conditional_entropy_estimate() == pytest.approx(
            binary_entropy(A1), abs=0.01)
        # uniform coded variable: prior chain is exactly uniform
        np.testing.assert_array_equal(profile.h_prior, np.ones(1024))
        np.testing.assert_array_equal(profile.e_prior, np.full(1024, 0.5))
        assert profile.prior_entropy_estimate() == 1.0


class TestDecisionErrors:
    @pytest.mark.parametrize("channel", [
        make_quantizer_source(0.2, np.array([[0.9, 0.1], [0.1, 0.9]])),
        crossover_side_info(0.17)], ids=["two-chain", "uniform-prior"])
    def test_errors_match_oracle_count(self, channel):
        """e is the rate at which map_bits of each chain's leaf LLR along the
        true path misses the true bit, over the construction's own blocks,
        read from the float32 breadth-first pass construction runs."""
        profile = construct_profile(channel, 32, sample_count=40, seed=12)
        x, y = channel.sample(40, 32, rng.stream(12, rng.STREAM_CONSTRUCTION))
        u = polar_transform(x)
        chains = [c for c in channel_evidence(channel, y) if c is not None]
        seen = []
        sc_traverse(np.stack([chain(0, 40) for chain in chains]),
                    lambda leaves, llr: seen.append(llr.copy()), known=u,
                    dtype=np.float32)
        misses = (map_bits(seen[0]) != u).sum(axis=1)
        np.testing.assert_array_equal(profile.e_cond, misses[0] / 40)
        np.testing.assert_array_equal(
            profile.e_prior, misses[1] / 40 if len(chains) == 2 else 0.5)
        assert profile.e_cond.any()


class TestPolarizationTrend:
    @pytest.mark.parametrize("channel_factory", [
        # no side information: the conditional chain is the prior chain
        lambda: lossless_source(0.11),
        lambda: crossover_side_info(A1),
    ])
    def test_extreme_fractions_grow_with_block_length(self, channel_factory):
        lows, highs = [], []
        for exponent in (8, 10, 12):
            h = construct_profile(channel_factory(), 2 ** exponent,
                                  sample_count=200, seed=31).h_cond
            lows.append(float(np.mean(h < 0.01)))
            highs.append(float(np.mean(h > 0.99)))
        assert lows[0] <= lows[1] <= lows[2]
        assert highs[0] <= highs[1] <= highs[2]
        assert lows[2] + highs[2] > 0.75


class TestClassification:
    def test_rules_reproduce_classes(self):
        profile = construct_profile(lossless_source(0.11), 256,
                                    sample_count=300, seed=41)
        expected = classify_indices(profile.h_cond, profile.e_prior, 256)
        np.testing.assert_array_equal(profile.classes, expected)
        assert set(np.unique(profile.classes)) <= {CLASS_INFO, CLASS_FROZEN_RANDOM,
                                                   CLASS_FROZEN_DETERMINISTIC}

    def test_deterministic_wins_ties(self):
        h_cond = np.array([1.0, 1.0])
        e_prior = np.array([0.0, 0.5])  # correction_bits(2) = 2: 0 and 1 bit
        classes = classify_indices(h_cond, e_prior, 2)
        assert classes[0] == CLASS_FROZEN_DETERMINISTIC
        assert classes[1] == CLASS_FROZEN_RANDOM

    def test_one_rule_sends_a_bit_only_where_correcting_costs_more(self):
        """At N = 16 a correction costs log2(16) + 1 = 5 bits: a bit is
        stored where e_cond * 5 > 1 and deterministic where e_prior * 5 < 1;
        the tie e * 5 = 1 is neither."""
        e = np.array([0.0, 0.1, 0.2, 0.25, 0.5] + [0.3] * 11)
        h_cond = np.full(16, 0.5)
        classes = classify_indices(h_cond, e, 16)
        np.testing.assert_array_equal(
            classes[:5], [CLASS_FROZEN_DETERMINISTIC] * 2 + [CLASS_INFO] * 3)
        profile = PolarProfile(
            channel_id="hand", channel_name="hand", block_len=16,
            sample_count=20, seed=0, h_cond=h_cond,
            h_prior=np.ones(16), e_cond=e, e_prior=e, classes=classes)
        np.testing.assert_array_equal(profile.stored_mask()[:5],
                                      [False, False, False, True, True])
        assert profile.stored_mask()[5:].all()
        # without a prior chain no index is deterministic, whatever e_prior
        assert not (classify_indices(h_cond, None, 16)
                    == CLASS_FROZEN_DETERMINISTIC).any()

    @pytest.mark.parametrize("block_len", [1, 2, 1024])
    def test_uniform_prior_profile_has_no_deterministic_at_any_length(self, block_len):
        """e_prior is 1/2 without a prior chain; at N = 1 a correction costs
        1 bit, so 1/2 would pass the D rule, which only profiles with a prior
        chain apply."""
        channel = crossover_side_info(0.2)
        profile = construct_profile(channel, block_len, sample_count=16, seed=6)
        np.testing.assert_array_equal(profile.e_prior, np.full(block_len, 0.5))
        assert not (profile.classes == CLASS_FROZEN_DETERMINISTIC).any()
        _, y = channel.sample(2, block_len, rng.stream(6, rng.STREAM_SOURCE))
        code, recon = sc_lossy_encode(y, channel, profile, shared_seed=6)
        assert all(len(f) == 0 for f in code.corrections)
        np.testing.assert_array_equal(
            sc_lossy_reconstruct(code, channel, profile, shared_seed=6), recon)

    @pytest.mark.parametrize("name,bad", [
        ("e_cond", -0.25), ("e_prior", 1.5), ("e_cond", math.nan),
        ("e_prior", math.inf)])
    def test_errors_outside_unit_interval_rejected(self, name, bad):
        profile = construct_profile(lossless_source(0.11), 16, sample_count=4, seed=1)
        values = getattr(profile, name).copy()
        values[3] = bad
        with pytest.raises(ValueError, match=name):
            replace(profile, **{name: values})

    def test_constant_source_is_all_deterministic(self):
        profile = construct_profile(lossless_source(0.0), 128,
                                    sample_count=50, seed=5)
        assert np.all(profile.classes == CLASS_FROZEN_DETERMINISTIC)
        np.testing.assert_allclose(profile.h_cond, 0.0, atol=1e-12)

    def test_uniform_prior_has_no_deterministic(self):
        profile = construct_profile(crossover_side_info(0.2), 256,
                                    sample_count=200, seed=6)
        assert not (profile.classes == CLASS_FROZEN_DETERMINISTIC).any()

    def test_frozen_random_is_the_entropy_rule_less_deterministic(self):
        """With a nonuniform prior, FROZEN_RANDOM is {h_cond >= 1 - kappa}
        less the D set {e_prior * c < 1}, and every class occurs."""
        channel = make_quantizer_source(0.3, np.array([[0.9, 0.1], [0.2, 0.8]]))
        profile = construct_profile(channel, 512, sample_count=64, seed=4)
        deterministic = profile.e_prior * (np.log2(512) + 1.0) < 1.0
        nearly_uniform = profile.h_cond >= 1.0 - FROZEN_RANDOM_KAPPA
        np.testing.assert_array_equal(profile.classes == CLASS_FROZEN_RANDOM,
                                      nearly_uniform & ~deterministic)
        np.testing.assert_array_equal(
            profile.classes == CLASS_FROZEN_DETERMINISTIC, deterministic)
        assert set(np.unique(profile.classes)) == {
            CLASS_INFO, CLASS_FROZEN_RANDOM, CLASS_FROZEN_DETERMINISTIC}

    @pytest.mark.parametrize("beta", [math.nan, 0.0, 1.0])
    def test_beta_outside_open_unit_interval_rejected(self, beta):
        with pytest.raises(TypeError, match="beta was removed"):
            construct_profile(lossless_source(0.11), 16, beta=beta,
                              sample_count=4, seed=1)

    def test_beta_is_refused_unless_none(self, tmp_path):
        channel = lossless_source(0.11)
        for build in (lambda **kw: construct_profile(channel, 16, **kw),
                      lambda **kw: construct_profile_cached(channel, 16, tmp_path,
                                                            **kw)):
            with pytest.raises(TypeError, match="beta was removed"):
                build(beta=0.25, sample_count=4, seed=1)
            assert build(beta=None, sample_count=4, seed=1).classes.shape == (16,)


def _base64(values: np.ndarray) -> str:
    """values as a cache entry stores an array: base64 of its little-endian
    bytes."""
    little = values.astype(values.dtype.newbyteorder("<"))
    return base64.b64encode(little.tobytes()).decode("ascii")


def _entry(cache_dir, profile):
    """Cache path of the entry for profile's header."""
    return profile_path(cache_dir, profile_cache_key(
        profile.channel_id, profile.block_len, profile.sample_count, profile.seed))


class TestProfileCache:
    def test_round_trip_is_bit_identical(self, tmp_path):
        profile = construct_profile(lossless_source(0.11), 64,
                                    sample_count=60, seed=9)
        path = save_profile(profile, tmp_path)
        loaded = load_profile(path)
        for name in ("h_cond", "h_prior", "e_cond", "e_prior"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(profile, name))
            assert getattr(loaded, name).dtype == np.float64
        np.testing.assert_array_equal(loaded.classes, profile.classes)
        assert loaded.classes.dtype == np.int8
        # arrays are stored as base64 text of their little-endian bytes
        entry = json.loads(path.read_text())
        assert entry["h_cond"] == _base64(profile.h_cond)
        assert entry["classes"] == _base64(profile.classes)
        assert (loaded.channel_id, loaded.block_len, loaded.sample_count,
                loaded.seed) == (profile.channel_id, profile.block_len,
                                 profile.sample_count, profile.seed)

    def test_cached_constructor_prefers_disk(self, tmp_path):
        channel = lossless_source(0.11)
        first = construct_profile_cached(channel, 64, tmp_path,
                                         sample_count=60, seed=9)
        # plant a marker in the cached file; a cache hit must surface it
        import dataclasses
        marked = dataclasses.replace(first, h_cond=first.h_cond + 1.0)
        save_profile(marked, tmp_path)
        again = construct_profile_cached(channel, 64, tmp_path,
                                         sample_count=60, seed=9)
        np.testing.assert_array_equal(again.h_cond, first.h_cond + 1.0)

    def test_distinct_parameters_distinct_paths(self, tmp_path):
        a = profile_path(tmp_path, "profile_xyz_n64_s60_r9")
        channel = lossless_source(0.11)
        p1 = construct_profile_cached(channel, 64, tmp_path, sample_count=60, seed=9)
        p2 = construct_profile_cached(channel, 64, tmp_path, sample_count=60, seed=10)
        assert _entry(tmp_path, p1) != _entry(tmp_path, p2)
        assert a.parent == _entry(tmp_path, p1).parent

    def test_entry_built_for_other_parameters_is_a_miss(self, tmp_path):
        channel = lossless_source(0.11)
        wanted = dict(sample_count=60, seed=9)
        stale = construct_profile(channel, 64, sample_count=60, seed=10)
        key = profile_cache_key(channel.channel_id(), 64, **wanted)
        # plant the other seed's profile under the requested key
        path = profile_path(tmp_path, key)
        path.write_text(save_profile(stale, tmp_path).read_text())
        got = construct_profile_cached(channel, 64, tmp_path, **wanted)
        assert got.seed == 9
        assert load_profile(path).seed == 9

    @pytest.mark.parametrize("content", [
        "{not json", "[1, 2]", '{"version": 2}', "",
        # an array spoiled through its decoded values, then stored as the
        # base64 of the spoiled array's own little-endian bytes
        pytest.param(("classes", lambda c: np.r_[np.int16(300), c[1:]]),
                     id="class-300"),  # two bytes a class: the wrong length
        pytest.param(("classes", lambda c: np.r_[np.int8(7), c[1:]]), id="class-7"),
        pytest.param(("classes", lambda c: np.r_[np.int8(-1), c[1:]]),
                     id="class-negative"),
        pytest.param(("h_prior", lambda h: np.r_[math.nan, h[1:]]), id="nan-h_prior"),
        pytest.param(("h_cond", lambda h: np.r_[h[:-1], math.inf]),
                     id="inf-h_cond"),
        pytest.param(("e_prior", lambda e: e[:-1]), id="e_prior-short"),
        pytest.param(("e_cond", lambda e: np.r_[-0.5, e[1:]]), id="e_cond-negative"),
        pytest.param(("e_prior", lambda e: np.r_[e[:-1], 1.5]), id="e_prior-above-one"),
        pytest.param(("e_cond", lambda e: np.r_[math.nan, e[1:]]), id="nan-e_cond"),
        pytest.param(("e_prior", lambda e: np.r_[e[:-1], math.inf]), id="inf-e_prior"),
        pytest.param(("e_cond", lambda e: e.astype("<f4")), id="e_cond-float32"),
        pytest.param(("classes", lambda c: c.astype("<f8") + 0.9),
                     id="classes-fractional"),
        # text that is not base64, and values that are not text
        pytest.param(("h_cond", "not base64!"), id="h_cond-bad-base64"),
        pytest.param(("classes", "AAE"), id="classes-unpadded-base64"),
        pytest.param(("classes", lambda c: [bool(v == CLASS_INFO) for v in c]),
                     id="classes-bool"),
        pytest.param(("h_cond", lambda h: [str(v) for v in h]), id="h_cond-strings"),
        pytest.param(("h_prior", lambda h: [str(v) for v in h]),
                     id="h_prior-strings"),
        pytest.param(("h_prior", lambda h: h.tolist()), id="h_prior-number-list"),
        pytest.param(("N", math.inf), id="N-infinite"),
        pytest.param(("N", "64"), id="N-string"),
        pytest.param(("sample_count", 60.5), id="sample_count-fractional"),
        # the previous cache format: its version, beta and Bhattacharyya
        # array, under the key the current format uses
        pytest.param(lambda entry: {**entry, "version": 7, "beta": 0.25,
                                    "z_cond": entry["h_cond"]}, id="version-7-entry"),
    ])
    def test_corrupt_entry_is_rebuilt(self, tmp_path, content):
        channel = lossless_source(0.11)
        fresh = construct_profile(channel, 64, sample_count=60, seed=9)
        path = _entry(tmp_path, fresh)
        rebuilt = save_profile(fresh, tmp_path).read_text()
        if callable(content):  # a valid entry rewritten as a whole
            content = json.dumps(content(json.loads(rebuilt)))
        elif not isinstance(content, str):  # a valid entry with one value spoiled
            name, value = content
            entry = json.loads(rebuilt)
            if callable(value):
                spoiled = value(getattr(fresh, name))
                entry[name] = (_base64(spoiled) if isinstance(spoiled, np.ndarray)
                               else spoiled)
            else:
                entry[name] = value
            content = json.dumps(entry)
        path.write_text(content)
        got = construct_profile_cached(channel, 64, tmp_path, sample_count=60, seed=9)
        np.testing.assert_array_equal(got.h_cond, fresh.h_cond)
        np.testing.assert_array_equal(load_profile(path).classes, fresh.classes)
        # a miss overwrites the entry; a served entry would stay as planted
        assert path.read_text() == rebuilt

    @pytest.mark.parametrize("build", [
        pytest.param(lambda d: (construct_profile_cached(
            crossover_side_info(0.1), 64, d, sample_count=8, seed=np.int64(3)),),
            id="int64-seed"),
        pytest.param(lambda d: (construct_profile_cached(
            crossover_side_info(0.1), 64, d, sample_count=np.int64(8)),),
            id="int64-sample_count"),
        pytest.param(lambda d: build_multilevel_code(
            plan_chain(_LATTICE_MMSE), _LATTICE_MMSE, 64, sample_count=8,
            seed=np.int64(2), cache_dir=d).profiles, id="int64-lattice-seed"),
    ])
    def test_numpy_scalar_parameters_are_cached(self, tmp_path, monkeypatch, build):
        first = build(tmp_path)
        assert len(list(tmp_path.glob("profile_*.json"))) == len(first)

        def no_construction(*args, **kwargs):
            raise AssertionError("a cached profile was constructed again")

        monkeypatch.setattr(profile_module, "construct_from_evidence", no_construction)
        monkeypatch.setattr(lattice_module, "construct_from_evidence", no_construction)
        _assert_same_profiles(build(tmp_path), first)


PROFILE_FIELDS = ("h_cond", "h_prior", "e_cond", "e_prior", "classes")


def _assert_same_profiles(profiles, reference):
    assert len(profiles) == len(reference)
    for got, want in zip(profiles, reference):
        for name in PROFILE_FIELDS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestSampler:
    """sample draws exactly what Generator.choice draws over the joint law,
    a few rows at a time."""

    # K = 130: 2 K outcomes outgrow uint8, the symbols do not; K = 300:
    # the symbols outgrow uint8 too
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 130, 300])
    @pytest.mark.parametrize("n_blocks", [0, 1, 7, 37])
    def test_matches_generator_choice(self, monkeypatch, k, n_blocks):
        weights = rng.stream(k, rng.STREAM_SOURCE).random((2, k)) + 0.1
        weights[1, 0] = 0.0  # a zero-probability outcome
        channel = BinarySourceWithSideInfo(weights / weights.sum())
        # 3 rows per chunk, so 7 and 37 rows end in a partial chunk
        monkeypatch.setattr(channel_module, "_SAMPLE_VALUES", 3 * 64)
        gen, ref = (rng.stream(61, rng.STREAM_CONSTRUCTION) for _ in range(2))
        x, y = channel.sample(n_blocks, 64, gen)
        idx = ref.choice(2 * k, size=(n_blocks, 64), p=channel.joint.ravel())
        assert (x.dtype, y.dtype) == (np.uint8, np.min_scalar_type(k - 1))
        np.testing.assert_array_equal(x, idx // k)
        np.testing.assert_array_equal(y, idx % k)
        np.testing.assert_array_equal(gen.random(5), ref.random(5))


class TestSliceIndependence:
    """Breadth-first passes give the same bits whatever their slice budget
    (the counterpart of test_lossy_outputs_independent_of_batch_size):
    slices of one block, of three, and of the whole batch."""

    @staticmethod
    def _per_budget(monkeypatch, n_chains, block_len, n_blocks, run,
                    plant=False):
        """run() under each budget, checking that the budget sets the
        slices, with certain leaves planted in some blocks (plant_certainty)
        if plant; returns the outputs and each slice's evidence: whether it
        was certain somewhere."""
        traverse = profile_module.sc_traverse
        seen = []  # one entry per slice: whether its evidence was certain

        def recording(evidence, stats, **kwargs):
            if plant:
                evidence = plant_certainty(evidence, kwargs["known"])
            # list.append is atomic: slices may run on several threads
            seen.append(bool(np.isinf(evidence).any()))
            return traverse(evidence, stats, **kwargs)

        monkeypatch.setattr(profile_module, "sc_traverse", recording)
        budgets = (n_blocks, 3, 1)  # whole batch first: the reference
        outputs, slices = [], []
        for blocks in budgets:
            monkeypatch.setattr(sc_module, "_GROUP_VALUES",
                                blocks * n_chains * block_len)
            before = len(seen)
            outputs.append(run())
            slices.append(len(seen) - before)
        # one slice per pass with the whole batch, ceil(B / blocks) otherwise
        assert slices == [slices[0] * -(-n_blocks // b) for b in budgets]
        return outputs, seen

    def test_two_chain_profile(self, monkeypatch):
        channel = make_quantizer_source(0.2, np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert not channel.prior_is_uniform
        outputs, _ = self._per_budget(monkeypatch, 2, 256, 20, lambda: [
            construct_profile(channel, 256, sample_count=20, seed=4)])
        for profiles in outputs[1:]:
            _assert_same_profiles(profiles, outputs[0])

    def test_lattice_levels_with_infinite_evidence(self, monkeypatch):
        mmse = reduce_pair(GaussianPairModel(0.99)).mmse
        chain = plan_chain(mmse)
        # lattice L is finite: plant_certainty gives some slices +-inf
        outputs, certain = self._per_budget(monkeypatch, 2, 256, 12, lambda: (
            build_multilevel_code(chain, mmse, 256, sample_count=12,
                                  seed=3).profiles), plant=True)
        assert any(certain) and not all(certain)
        for profiles in outputs[1:]:
            _assert_same_profiles(profiles, outputs[0])

    def test_lossless_encoder(self, monkeypatch):
        channel = crossover_side_info(0.11)
        profile = construct_profile(channel, 256, sample_count=40, seed=6)
        x, y = channel.sample(10, 256, rng.stream(8, rng.STREAM_SOURCE))
        outputs, _ = self._per_budget(monkeypatch, 1, 256, 10, lambda: [
            sc_lossless_encode(x, channel, profile, side=y)])
        (want,) = outputs[0]
        assert any(len(c) for c in want.corrections)
        for (got,) in outputs[1:]:
            np.testing.assert_array_equal(got.sent, want.sent)
            assert len(got.corrections) == len(want.corrections)
            for a, b in zip(got.corrections, want.corrections):
                np.testing.assert_array_equal(a, b)


class TestPassPrecision:
    def test_every_pass_runs_in_float32(self, monkeypatch):
        """Every SC pass the pipelines run evaluates its tree in float32:
        construction's breadth-first passes (binary and lattice), the
        coders' breadth-first flag passes and their depth-first walks
        (lossy encode and replay, lossless decode, lattice quantize and
        reconstruct)."""
        seen = set()
        for kind in ("_breadth_first", "_depth_first"):
            def recording(llr, *args, _kind=kind, _pass=getattr(sc_module, kind)):
                seen.add((_kind, llr.dtype.name))
                return _pass(llr, *args)

            monkeypatch.setattr(sc_module, kind, recording)
        every = {("_breadth_first", "float32"), ("_depth_first", "float32")}
        channel = make_quantizer_source(0.2, np.array([[0.9, 0.1], [0.1, 0.9]]))
        profile = construct_profile(channel, 64, sample_count=8, seed=1)
        assert seen == {("_breadth_first", "float32")}
        seen.clear()
        _, y = channel.sample(4, 64, rng.stream(2, rng.STREAM_SOURCE))
        code, _ = sc_lossy_encode(y, channel, profile, shared_seed=3)
        sc_lossy_reconstruct(code, channel, profile, shared_seed=3)
        assert seen == every
        side = crossover_side_info(0.11)
        side_profile = construct_profile(side, 64, sample_count=8, seed=1)
        seen.clear()
        x, y = side.sample(4, 64, rng.stream(2, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, side, side_profile, side=y)
        sc_lossless_decode(code, side, side_profile, side=y)
        assert seen == every
        seen.clear()
        lattice = build_multilevel_code(plan_chain(_LATTICE_MMSE), _LATTICE_MMSE,
                                        64, sample_count=8, seed=1)
        assert seen == {("_breadth_first", "float32")}
        samples = np.random.default_rng(2).normal(0.0, 1.0, (4, 64))
        codes, _ = lattice_quantize(samples, lattice, shared_seed=3)
        lattice_reconstruct(codes, lattice, shared_seed=3)
        assert ("_depth_first", "float32") in seen
        assert {dtype for _, dtype in seen} == {"float32"}


def _traced_peak_mib(build) -> float:
    """Peak traced memory of build(), NumPy buffers included, in MiB."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


class TestConstructionMemory:
    """Construction holds one cache-sized slice of evidence and node arrays
    at a time, not the whole sample: its peak is the sampled blocks
    themselves plus a small constant."""

    def test_two_chain_profile_peak(self):
        channel = make_quantizer_source(0.2, np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert not channel.prior_is_uniform
        peak = _traced_peak_mib(lambda: construct_profile(
            channel, 4096, sample_count=1024, seed=2))
        assert peak < 64.0

    def test_lattice_build_peak(self):
        mmse = reduce_pair(GaussianPairModel(0.8)).mmse
        peak = _traced_peak_mib(lambda: build_multilevel_code(
            plan_chain(mmse), mmse, 2048, sample_count=256, seed=2))
        assert peak < 32.0
