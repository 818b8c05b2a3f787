"""The seeded RNG stream and trial records, pinned as literals.

The population digests and records below were produced by the per-device
implementation that stacked arrays replaced (one frozen object per device
and per message).  The observation digests come from the synthesis kernel's
device-blocked BLAS products, which round differently from the einsum they
replaced while every record stayed the same.  The K_star literals come from
math.lgamma, which rounds the closed form's Gamma ratio a few ulps away from
the scipy gammaln it replaced.  A change that alters the draw order, the
population arrays, the synthesized observations or the scored records fails
here.  The float digests assume IEEE float64 numpy kernels as
on x86-64; they do not depend on the BLAS thread count.
"""

import hashlib

import numpy as np
import pytest

from rmaccess.access_pipeline import FrameConfig, transmissions, tree_encode
from rmaccess.geometry_channel import GeometryConfig, frame_observations, sample_frame
from rmaccess.sim_cli import presets, run_single_trial

GEO = GeometryConfig(density=2e-3, area=100_000.0, alpha=4.0, theta=1e-6, gamma=1e6, r=4)


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def test_sample_frame_stream_is_pinned():
    frame = FrameConfig(m=6, p=4, d=1)
    pop = sample_frame(GEO, frame, np.random.default_rng(2024))
    assert len(pop) == 207
    digests = {name: _sha(getattr(pop, name)) for name in ("distance", "h", "delta", "info")}
    digests["slots"] = _sha(transmissions(tree_encode(pop.info, frame), frame)[2])
    assert digests == {
        "distance": "77f395d297719d4f1cf748b3c2ea6dcf1b71b1b77d85468adcda7b5a14d6c661",
        "h": "c5784e23dd1af6e46b6d8b24528ca9539c991e2dc27bded58be75fc286997b1d",
        "delta": "fc9447abe5a57724fa23a58cfc96f8d999119aa9743ab90b36b1215f698d7279",
        "info": "874eafe0c456b1d507bff80cb655722d12ca8643f94b700ca019a1e9e9b3cfab",
        "slots": "348c05f8ba01e056ee4984d5d8dfb46cd6eae76b963c2219abdb429bf869dca2",
    }


@pytest.mark.parametrize(
    "frame, digest",
    [
        (
            FrameConfig(m=6, p=4, d=0),
            "98a888241c90784dcc7037347ea5a1db2467ca761589e3c35356b8b02bbc722f",
        ),
        (
            FrameConfig(m=6, p=4, d=2),
            "a97e6c3ad2c2c52a12ec6379aacb81c2bff7ec982583cc9adccca1f258bef914",
        ),
        (
            FrameConfig(m=7, p=2, tau_max=0.0),
            "f39115986aeb0d6408ae4b795c37a5dd615496f1a5347e857a73ce10bde2f5b5",
        ),
    ],
    ids=["async-d0", "async-d2", "sync"],
)
def test_frame_observations_are_pinned(frame, digest):
    rng = np.random.default_rng(11)
    pop = sample_frame(GEO, frame, rng)
    assert len(pop) == 181
    obs = frame_observations(pop, frame, GEO, rng)
    Y = obs
    assert Y.shape == (frame.n_subblocks, frame.n_slots, GEO.r, frame.seq_len)
    assert _sha(Y) == digest


@pytest.mark.parametrize(
    "preset, point, trial, record",
    [
        (
            "baseline",
            dict(K=1000, r=16, m=6, p=6, d=0),
            0,
            {"B": 30, "C": 4736, "K_star": 12.468594178496076, "miss": 0.0, "fa": 0.0,
             "truth": 14, "decoded": 14, "overflow": False},
        ),
        (
            "subblocks",
            dict(K=1000, r=16, m=6, p=6, d=2),
            4,
            {"B": 93, "C": 18944, "K_star": 12.468594178496076, "miss": 0.1111111111111111,
             "fa": 0.1111111111111111, "truth": 9, "decoded": 9, "overflow": False},
        ),
        (
            "antennas",
            dict(K=2000, r=1, m=6, p=6, d=0),
            0,
            {"B": 30, "C": 4736, "K_star": 22.273311987326824, "miss": 0.2,
             "fa": 0.15789473684210525, "truth": 20, "decoded": 19, "overflow": False},
        ),
    ],
    ids=["baseline", "subblocks", "antennas"],
)
def test_trial_records_are_pinned(preset, point, trial, record):
    got = run_single_trial(presets()[preset], point, trial)
    assert got.pop("runtime") >= 0.0
    assert got == {**point, "trial": trial, **record}
