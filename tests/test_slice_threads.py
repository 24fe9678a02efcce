"""Breadth-first slices on several threads: construction profiles and
lossless codes are byte-equal for every thread count, even when slices
finish out of order; no more slices are started and unfolded than there
are threads; a failing slice raises its own exception once no slice is
running; one-slice passes and tiny pipelines start no thread; no helper
thread outlives its pass, so a child forked after a threaded pass builds
the parent's profile; workers see the caller's NumPy errstate."""

import concurrent.futures
import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import plant_certainty

from graywyner import rng
from graywyner.dsbs import DsbsModel, LossyTinyBoth, PointG, run_dsbs_pipeline
from graywyner.gaussian import (
    GaussianPairModel,
    extract_common,
    reduce_pair,
    refine_private_eps10,
)
from graywyner.lattice import build_multilevel_code, plan_chain
from graywyner.polar import (
    construct_profile,
    crossover_side_info,
    polar_transform,
    sc_lossless_encode,
)
from graywyner.polar import profile as profile_module
from graywyner.polar import sc as sc_module
from graywyner.polar import test_channel_source as make_quantizer_source
from graywyner.polar.profile import channel_evidence, construct_from_evidence

THREAD_COUNTS = (1, 2, 3)
PROFILE_FIELDS = ("h_cond", "h_prior", "e_cond", "e_prior", "classes")


def _two_chain_channel():
    channel = make_quantizer_source(0.2, np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert not channel.prior_is_uniform
    return channel


def _digest(profiles) -> str:
    digest = hashlib.sha256()
    for profile in profiles:
        for name in PROFILE_FIELDS:
            digest.update(np.ascontiguousarray(getattr(profile, name)).tobytes())
    return digest.hexdigest()


def _slice_blocks(monkeypatch, blocks, n_chains, block_len):
    """Breadth-first slices of `blocks` blocks each."""
    monkeypatch.setattr(sc_module, "_GROUP_VALUES", blocks * n_chains * block_len)


def _per_thread_count(monkeypatch, run):
    outputs = []
    for workers in THREAD_COUNTS:
        monkeypatch.setattr(profile_module, "_WORKERS", workers)
        outputs.append(run())
    return outputs


class TestSameBytesForEveryThreadCount:

    def test_two_chain_profile(self, monkeypatch):
        channel = _two_chain_channel()
        _slice_blocks(monkeypatch, 3, 2, 256)  # 7 slices
        digests = _per_thread_count(monkeypatch, lambda: _digest(
            [construct_profile(channel, 256, sample_count=20, seed=4)]))
        assert len(set(digests)) == 1

    def test_lattice_levels_with_infinite_evidence(self, monkeypatch):
        mmse = reduce_pair(GaussianPairModel(0.99)).mmse
        chain = plan_chain(mmse)
        _slice_blocks(monkeypatch, 2, 2, 256)  # 6 slices per level
        seen = []
        traverse = profile_module.sc_traverse

        def recording(evidence, stats, **kwargs):
            # lattice L is finite: plant certain leaves in some blocks
            evidence = plant_certainty(evidence, kwargs["known"])
            seen.append(bool(np.isinf(evidence).any()))
            return traverse(evidence, stats, **kwargs)

        monkeypatch.setattr(profile_module, "sc_traverse", recording)
        digests = _per_thread_count(monkeypatch, lambda: _digest(
            build_multilevel_code(chain, mmse, 256, sample_count=12,
                                  seed=3).profiles))
        assert any(seen) and not all(seen)  # slices with and without +-inf
        assert len(set(digests)) == 1

    def test_lossless_encoder_over_64_blocks(self, monkeypatch):
        channel = crossover_side_info(0.11)
        profile = construct_profile(channel, 256, sample_count=40, seed=6)
        x, y = channel.sample(64, 256, rng.stream(8, rng.STREAM_SOURCE))
        _slice_blocks(monkeypatch, 5, 1, 256)  # 13 slices

        def encode():
            code = sc_lossless_encode(x, channel, profile, side=y)
            return (code.sent.tobytes(),
                    tuple(c.tobytes() for c in code.corrections))

        outputs = _per_thread_count(monkeypatch, encode)
        assert any(outputs[0][1])  # some block needs corrections
        assert outputs[1:] == outputs[:1] * (len(outputs) - 1)

    def test_slices_finishing_out_of_order(self, monkeypatch):
        channel = _two_chain_channel()
        x, y = channel.sample(24, 128, rng.stream(9, rng.STREAM_CONSTRUCTION))
        cond, prior = channel_evidence(channel, y)
        _slice_blocks(monkeypatch, 2, 2, 128)  # 12 slices
        finished, odd_done = [], threading.Event()

        def slow_even(start, stop):
            # even slices wait for an odd one to finish (a helper runs it)
            if (start // 2) % 2 == 0:
                odd_done.wait(timeout=10)
            finished.append(start)
            if (start // 2) % 2 == 1:
                odd_done.set()
            return cond(start, stop)

        def build(evidence):
            return _digest([construct_from_evidence(
                x, evidence, prior, seed=0, channel_id="c",
                channel_name="c")])

        monkeypatch.setattr(profile_module, "_WORKERS", 1)
        want = build(cond)
        monkeypatch.setattr(profile_module, "_WORKERS", 3)
        assert build(slow_even) == want
        assert sorted(finished) == list(range(0, 24, 2))
        assert finished != sorted(finished)


class TestFailuresAndThreads:

    # slice 5 runs on a helper, slice 6 (the first of a wave) in the caller
    @pytest.mark.parametrize("failing_slice", [5, 6])
    def test_failure_reaches_the_caller_after_every_slice_stopped(
            self, monkeypatch, failing_slice):
        channel = _two_chain_channel()
        x, y = channel.sample(16, 128, rng.stream(10, rng.STREAM_CONSTRUCTION))
        cond, prior = channel_evidence(channel, y)
        _slice_blocks(monkeypatch, 1, 2, 128)  # 16 slices
        monkeypatch.setattr(profile_module, "_WORKERS", 3)
        error = RuntimeError(f"slice {failing_slice} failed")
        running, lock = [0], threading.Lock()

        def failing(start, stop):
            with lock:
                running[0] += 1
            try:
                time.sleep(0.002)
                if start == failing_slice:
                    raise error
                return cond(start, stop)
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(RuntimeError) as caught:
            construct_from_evidence(x, failing, prior, seed=0,
                                    channel_id="c", channel_name="c")
        assert caught.value is error
        assert running[0] == 0
        construct_from_evidence(x, cond, prior, seed=0,
                                channel_id="c", channel_name="c")
        assert running[0] == 0

    def test_at_most_one_unfolded_slice_per_thread(self, monkeypatch):
        """Slices started but not yet folded, their results included, never
        outnumber the threads, even when folding is slower than the slices;
        the results are folded in slice order."""
        monkeypatch.setattr(profile_module, "_WORKERS", 3)
        lock = threading.Lock()
        started, folded, peak = [0], [], [0]

        def work(start, stop):
            with lock:
                started[0] += 1
                peak[0] = max(peak[0], started[0] - len(folded))
            time.sleep(0.001)
            return start

        def fold(result):
            time.sleep(0.003)
            with lock:
                folded.append(result)

        profile_module._run_slices(work, fold, [(i, i + 1) for i in range(12)])
        assert folded == list(range(12))
        assert 1 < peak[0] <= 3

    def test_one_slice_runs_inline(self, no_executor, monkeypatch):
        monkeypatch.setattr(profile_module, "_WORKERS", 3)
        channel = _two_chain_channel()
        x, y = channel.sample(8, 256, rng.stream(11, rng.STREAM_CONSTRUCTION))
        cond, prior = channel_evidence(channel, y)
        threads = set()

        def recorded(start, stop):
            threads.add(threading.get_ident())
            return cond(start, stop)

        before = threading.active_count()
        construct_from_evidence(x, recorded, prior, seed=0,
                                channel_id="c", channel_name="c")
        assert threads == {threading.get_ident()}
        assert threading.active_count() == before

    def test_tiny_pipelines_start_no_thread(self, no_executor, monkeypatch):
        monkeypatch.setattr(profile_module, "_WORKERS", 4)
        model = DsbsModel(0.11)
        for point in (PointG(), LossyTinyBoth(0.05)):
            run_dsbs_pipeline(point, model, 256, 0, n_blocks=2, sample_count=32,
                              construction_seed=1)
        model = GaussianPairModel(0.8)
        first = extract_common(model, 128, 0, n_blocks=2, sample_count=32,
                               construction_seed=1)
        refine_private_eps10(0.1, 0.1, model, first, sample_count=32,
                             construction_seed=1)

    def test_no_executor_stub_catches_a_threaded_pass(self, no_executor,
                                                      monkeypatch):
        """The stub of the two tests above is reached by a threaded pass."""
        monkeypatch.setattr(profile_module, "_WORKERS", 2)
        with pytest.raises(AssertionError, match="helper threads"):
            profile_module._run_slices(lambda s, e: s, lambda _: None,
                                       [(0, 1), (1, 2)])

    def test_thread_count_stays_within_the_cap(self, monkeypatch):
        channel = _two_chain_channel()
        x, y = channel.sample(12, 128, rng.stream(12, rng.STREAM_CONSTRUCTION))
        cond, prior = channel_evidence(channel, y)
        _slice_blocks(monkeypatch, 1, 2, 128)  # 12 slices
        peak = {}

        def counted(start, stop):
            workers = profile_module._WORKERS
            peak[workers] = max(peak.get(workers, 0), len(_slice_threads()))
            time.sleep(0.001)
            return cond(start, stop)

        for workers in (3, 2, 3, 1):
            monkeypatch.setattr(profile_module, "_WORKERS", workers)
            construct_from_evidence(x, counted, prior, seed=0,
                                    channel_id="c", channel_name="c")
            assert _slice_threads() == []  # no helper outlives its pass
        assert peak == {3: 2, 2: 1, 1: 0}  # _WORKERS - 1 helpers


def _slice_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("graywyner-slice")]


@pytest.fixture
def no_executor(monkeypatch):
    """A pass that asks for helper threads fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a pass asked for helper threads")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)


def _child_digest(conn):
    channel = _two_chain_channel()
    conn.send(_digest([construct_profile(channel, 256, sample_count=40, seed=4)]))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_builds_with_its_own_pool(monkeypatch):
    monkeypatch.setattr(profile_module, "_WORKERS", 2)
    _slice_blocks(monkeypatch, 4, 2, 256)  # 10 slices
    want = _digest([construct_profile(_two_chain_channel(), 256, sample_count=40,
                                      seed=4)])
    assert _slice_threads() == []  # the child inherits no helper
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_digest, args=(send,))
    with warnings.catch_warnings():
        # newer Pythons warn about forking a process that runs threads
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child did not finish its profile"
        assert receive.recv() == want
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="NumPy's errstate is a context variable from 2.0")
def test_workers_run_under_the_callers_errstate(monkeypatch):
    channel = _two_chain_channel()
    x, y = channel.sample(12, 128, rng.stream(13, rng.STREAM_CONSTRUCTION))
    cond, prior = channel_evidence(channel, y)
    _slice_blocks(monkeypatch, 1, 2, 128)  # 12 slices
    monkeypatch.setattr(profile_module, "_WORKERS", 3)
    seen = []

    def recorded(start, stop):
        seen.append((threading.get_ident(), np.geterr()))
        time.sleep(0.001)
        return cond(start, stop)

    with np.errstate(all="ignore", divide="raise"):
        wanted = np.geterr()
        construct_from_evidence(x, recorded, prior, seed=0,
                                channel_id="c", channel_name="c")
    assert wanted != np.geterr()
    assert len({ident for ident, _ in seen}) > 1
    assert all(err == wanted for _, err in seen)


def test_breadth_first_passes_return_no_block_outputs():
    """Construction and the lossless encoder throw the (B, N) outputs away,
    so the breadth-first route does not make them."""
    x, _ = crossover_side_info(0.1).sample(3, 64, rng.stream(14, rng.STREAM_SOURCE))
    u = polar_transform(x)
    assert profile_module.traverse_batches(
        (lambda s, e: np.full((e - s, 64, 2), 0.5),), 3, 64,
        lambda llr, s, e: None, known=u) is None


def test_thread_pool_module_loads_on_the_first_threaded_pass():
    """concurrent.futures (which imports logging) is not loaded by importing
    the package or by one-slice passes, only by the first threaded one."""
    script = (
        "import sys\n"
        "import graywyner.dsbs, graywyner.gaussian, graywyner.lattice\n"
        "from graywyner.polar import construct_profile, crossover_side_info\n"
        "from graywyner.polar import profile\n"
        "profile._WORKERS = 2\n"
        "construct_profile(crossover_side_info(0.1), 256, sample_count=32)\n"
        "print('concurrent.futures' in sys.modules)\n"
        "construct_profile(crossover_side_info(0.1), 4096, sample_count=32)\n"
        "print('concurrent.futures' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
