"""Golden digest pins — guard against silent semantic drift across rounds.

Mirrors the reference's checksum style (round(sum(x)/sd(x), 3) —
/root/reference/tests/testthat/test-stamps.R:101-115) over deterministic
inputs. Expected values live in tests/golden/digests.json; regenerate with
`python tests/golden/regen.py` ONLY after an intentional semantic change.
"""

import json
import os

import numpy as np
import pytest

GOLD = os.path.join(os.path.dirname(__file__), "golden", "digests.json")


def digest(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    x = x[np.isfinite(x)]
    return round(float(x.sum() / x.std()), 3)


def compute_digests() -> dict:
    from tsmp_ray.kernels.mpx import mpx
    from tsmp_ray.kernels.mstomp import mstomp
    from tsmp_ray.kernels.stomp import stomp
    from tsmp_ray.kernels.mining import fluss_cac, mpdist, pmp, valmod

    rng = np.random.default_rng(2018)
    x = np.cumsum(rng.choice([-1.0, 1.0], size=2000))  # reference bench walk
    w = 50
    prof = stomp(x, w)
    y = np.cumsum(np.random.default_rng(7).standard_normal(500))
    out = {
        "stomp_mp": digest(prof.mp),
        "stomp_pi": digest(prof.pi.astype(float)),
        "stomp_lmp": digest(prof.lmp),
        "stomp_rmp": digest(prof.rmp),
        "cac": digest(fluss_cac(prof)),
        "mpx_w20": digest(mpx(x, 20).mp),
        "mpdist": round(mpdist(x[:400], y[:300], 25), 6),
        "valmod": digest(valmod(y, 20, 30)["mp"]),
        "mstomp_2d": digest(
            mstomp(np.stack([x[:600], np.roll(x[:600], 3)], axis=1), 30).mp),
    }
    return out


def test_golden_digests():
    with open(GOLD) as f:
        want = json.load(f)
    got = compute_digests()
    assert set(got) == set(want)
    for k, v in want.items():
        assert got[k] == pytest.approx(v, abs=2e-3), k
