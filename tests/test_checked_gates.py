"""Every ``*_checked`` op's gate fires: with the production kernel it
calls poisoned (every value moved off the oracle), the op must raise its
own AssertionError; and no gate raises on a flat stretch of a float
series. Pure local (no Ray): the ops are called on one packed row built by
hand, and the pair ops on two series."""

import numpy as np
import pyarrow as pa
import pytest

from tsmp_ray.config import SIGNALS
from tsmp_ray.kernels.stompi import StreamingProfile
from tsmp_ray.stages import mining_stage as ms

W = 8


def _series(seed: int, n: int = 120) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 8, n).astype(np.float64)


def _flat_stretch(seed: int, n: int = 120) -> np.ndarray:
    """A non-integer series with a constant 0.1 stretch of 30 points: a
    window inside it has numpy std ≈ 1e-17 at w = 6 or 12, not 0."""
    x = np.round(np.random.default_rng(seed).normal(4.0, 2.0, n), 3)
    x[40:70] = 0.1
    return x


def _batch(xs) -> pa.Table:
    return pa.table({"conv_id": ["c0"], **{
        sig: pa.array([x.tolist()], pa.list_(pa.float64()))
        for sig, x in zip(SIGNALS, xs)}})


XS = [_series(s) for s in range(len(SIGNALS))]
BATCH = _batch(XS)
FLAT_XS = [_flat_stretch(s) for s in range(len(SIGNALS))]
FLAT_BATCH = _batch(FLAT_XS)


def _wrap(real, poison):
    return lambda *a, **k: poison(real(*a, **k))


def _moved(obj, attr, by=0.01):
    setattr(obj, attr, getattr(obj, attr) + by)
    return obj


class _DriftingStream(StreamingProfile):
    def update(self, new_data):
        super().update(new_data)
        _moved(self.profile, "mp")


# op name -> (run the op, kernel attribute on mining_stage, poisoned kernel)
GATES = {
    "profile_checked": (
        lambda b, xs: ms.profile_checked_op("c0", b, 0, w=W),
        "blocked_mp", _wrap(ms.blocked_mp, lambda p: _moved(p, "mp"))),
    "chains_checked": (
        lambda b, xs: ms.chains_checked_op("c0", b, 0, w=W),
        "find_chains", lambda prof: {"chains": [[0, 1, 2]], "best": []}),
    "fluss_cac_checked": (
        lambda b, xs: ms.fluss_cac_checked_op("c0", b, 0, w=W),
        "fluss_cac", _wrap(ms.fluss_cac, lambda c: c - 0.5)),
    "fluss_segments_checked": (
        lambda b, xs: ms.fluss_segments_checked_op("c0", b, 0, w=W),
        "fluss_cac", _wrap(ms.fluss_cac, lambda c: c - 0.5)),
    "dist_profile_checked": (
        lambda b, xs: ms.distprof_checked_op("c0", b, 0, w=W),
        "dist_profile", _wrap(ms.dist_profile, lambda r: (r[0] + 0.01, r[1]))),
    "stompi_checked": (
        lambda b, xs: ms.stompi_checked_op("c0", b, 0, w=W),
        "StreamingProfile", _DriftingStream),
    "ab_join_checked": (
        lambda b, xs: ms.abjoin_checked_pair_op("c0", xs[0], "c1", xs[1], w=W),
        "blocked_mp", _wrap(ms.blocked_mp, lambda p: _moved(p, "mp"))),
    "motifs_checked": (
        lambda b, xs: ms.motifs_checked_op("c0", b, 0, w=W),
        "find_motifs", _wrap(ms.find_motifs, lambda found: [
            dict(m, distance=m["distance"] + 1.0) for m in found])),
    "mstomp_checked": (
        lambda b, xs: ms.mstomp_checked_op("c0", b, 0, w=W),
        "mstomp", _wrap(ms.mstomp, lambda r: _moved(r, "mp"))),
    "valmod_checked": (
        lambda b, xs: ms.valmod_checked_op("c0", b, 0, wmin=6, wmax=12),
        "valmod", _wrap(ms.valmod, lambda r: dict(r, mp=r["mp"] + 0.01))),
    "pmp_checked": (
        lambda b, xs: ms.pmp_checked_op("c0", b, 0, windows=[6, 8, 10, 12]),
        "pmp", _wrap(ms.pmp, lambda r: dict(r, pmp={
            w: v + 0.01 for w, v in r["pmp"].items()}))),
    "snippets_checked": (
        lambda b, xs: ms.snippet_checked_op("c0", b, 0, s_size=16, w=W),
        "find_snippet", _wrap(ms.find_snippet, lambda r: dict(
            r, snippet_idx=[i + 1 for i in r["snippet_idx"]]))),
    "mpdist_checked": (
        lambda b, xs: ms.mpdist_checked_pair_op("c0", xs[0], "c1", xs[1], w=W),
        "mpdist", _wrap(ms.mpdist, lambda d: d + 0.01)),
}


@pytest.mark.parametrize("name", sorted(GATES))
def test_checked_gate_fires_on_poisoned_kernel(name, monkeypatch):
    """No gate is vacuous: the op passes and emits rows with the real
    kernel, and raises its own "deviate(s)" AssertionError once that kernel
    is poisoned."""
    run, attr, poisoned = GATES[name]
    out = run(BATCH, XS)  # the op's columns
    assert out is not None and len(next(iter(out.values()))) > 0
    monkeypatch.setattr(ms, attr, poisoned)
    with pytest.raises(AssertionError, match="deviate"):
        run(BATCH, XS)


@pytest.mark.parametrize("name", sorted(GATES))
def test_checked_gate_passes_flat_float_stretch(name):
    """The oracle-order side skips a flat window by the kernels' own rule
    (min == max or sd < EPS): a constant 0.1 stretch of a float series,
    whose windows have std ≈ 1e-17 rather than 0, passes every gate."""
    out = GATES[name][0](FLAT_BATCH, FLAT_XS)
    assert out is not None and len(next(iter(out.values()))) > 0
