"""Both pipeline families refuse a decoder output that differs from the
encoder side by a single bit, with the same RuntimeError."""

import numpy as np
import pytest

from graywyner.dsbs import DsbsModel, PointA, PointG, run_dsbs_pipeline
from graywyner.dsbs import pipelines as dsbs_pipelines
from graywyner.gaussian import GaussianPairModel, extract_common
from graywyner.gaussian import pipelines as gaussian_pipelines


def _flip_first(fn):
    def corrupted(*args, **kwargs):
        out = np.array(fn(*args, **kwargs))
        out.flat[0] = 1 - out.flat[0] if out.dtype == np.uint8 else out.flat[0] + 1.0
        return out
    return corrupted


def _dsbs(point):
    return lambda: run_dsbs_pipeline(point, DsbsModel(0.11), 256, 1, n_blocks=2,
                                     sample_count=32)


CASES = {
    "dsbs-lossy": (dsbs_pipelines, "sc_lossy_reconstruct", _dsbs(PointG())),
    "dsbs-lossless": (dsbs_pipelines, "sc_lossless_decode", _dsbs(PointA())),
    "gaussian-lattice": (gaussian_pipelines, "lattice_reconstruct",
                         lambda: extract_common(GaussianPairModel(0.8), 256, 1,
                                                n_blocks=2, sample_count=16)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_flipped_bit_fails_the_run(monkeypatch, case):
    module, name, run = CASES[case]
    run()  # the untouched decoder passes the check
    monkeypatch.setattr(module, name, _flip_first(getattr(module, name)))
    with pytest.raises(RuntimeError, match="diverged"):
        run()
