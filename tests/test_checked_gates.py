"""Every ``*_checked`` op's gate fires: with the production kernel that
its shipped op (or stage) calls poisoned (every value moved off the
oracle), the op must raise its own AssertionError; and no gate raises on a
flat stretch of a float series. Pure local (no Ray): the ops are called on
one packed row built by hand, and the pair ops on two series;
``profiles_checked`` gates the rows that ``compute_profiles``' block and
strip-shard task functions emit for that row, run in-process."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from tsmp_ray.config import DEFAULT_EZ, SIGNALS, exclusion_zone
from tsmp_ray.kernels.block_join import strip_splits
from tsmp_ray.kernels.stompi import StreamingProfile
from tsmp_ray.stages import mining_stage as ms
from tsmp_ray.stages import profile_stage as ps

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


def _profiles_checked(batch, strips: bool):
    """``profiles_checked_op`` on the ``text_len`` rows that
    ``compute_profiles`` emits for the batch's one conv: from its block
    function (``_profile_block``), or with ``strips`` from its strip-shard
    tasks' functions (``_profile_shard`` per strip, ``_merge_rows``)."""
    if strips:
        p = len(ms.list_cell(batch, 0, ms._ORACLE_SIGNAL)) - W + 1
        rows = ps._merge_rows("c0", ms._ORACLE_SIGNAL, *[
            ps._profile_shard(batch, 0, ms._ORACLE_SIGNAL, W, DEFAULT_EZ,
                              lo, hi)
            for lo, hi in strip_splits(p, exclusion_zone(W), 2)])
    else:
        rows = ps._profile_block(batch, W, DEFAULT_EZ)
    rows = rows.filter(pc.equal(rows["signal"], ms._ORACLE_SIGNAL))
    shipped = {"c0": (rows["window_idx"].to_numpy(), rows["mp"].to_numpy())}
    return ms.profiles_checked_op("c0", batch, 0, w=W, shipped=shipped)


def _drifting(found):
    return [dict(m, distance=m["distance"] + 1.0) for m in found]


# op name -> (run the op, module holding the kernel, kernel attribute,
# poisoned kernel)
GATES = {
    "profiles_checked": (
        lambda b, xs: _profiles_checked(b, strips=False),
        ps, "blocked_mp_many",
        _wrap(ps.blocked_mp_many, lambda profs: [_moved(p, "mp")
                                                 for p in profs])),
    "profiles_checked_strips": (
        lambda b, xs: _profiles_checked(b, strips=True),
        ps, "blocked_mp", _wrap(ps.blocked_mp, lambda p: _moved(p, "mp"))),
    "chains_checked": (
        lambda b, xs: ms.chains_checked_op("c0", b, 0, w=W),
        ms, "find_chains", lambda prof: {"chains": [[0, 1, 2]], "best": []}),
    "fluss_cac_checked": (
        lambda b, xs: ms.fluss_cac_checked_op("c0", b, 0, w=W),
        ms, "fluss_cac", _wrap(ms.fluss_cac, lambda c: c - 0.5)),
    "fluss_segments_checked": (
        lambda b, xs: ms.fluss_segments_checked_op("c0", b, 0, w=W),
        ms, "fluss_cac", _wrap(ms.fluss_cac, lambda c: c - 0.5)),
    "dist_profile_checked": (
        lambda b, xs: ms.distprof_checked_op("c0", b, 0, w=W),
        ms, "dist_profile",
        _wrap(ms.dist_profile, lambda r: (r[0] + 0.01, r[1]))),
    "stompi_checked": (
        lambda b, xs: ms.stompi_checked_op("c0", b, 0, w=W),
        ms, "StreamingProfile", _DriftingStream),
    "ab_join_checked": (
        lambda b, xs: ms.abjoin_checked_pair_op("c0", xs[0], "c1", xs[1], w=W),
        ms, "blocked_mp", _wrap(ms.blocked_mp, lambda p: _moved(p, "mp"))),
    "motifs_checked": (
        lambda b, xs: ms.motifs_checked_op("c0", b, 0, w=W),
        ms, "find_motifs", _wrap(ms.find_motifs, _drifting)),
    "motifs_checked_discords": (
        lambda b, xs: ms.motifs_checked_op("c0", b, 0, w=W),
        ms, "find_discords", _wrap(ms.find_discords, _drifting)),
    "mstomp_checked": (
        lambda b, xs: ms.mstomp_checked_op("c0", b, 0, w=W),
        ms, "mstomp", _wrap(ms.mstomp, lambda r: _moved(r, "mp"))),
    "valmod_checked": (
        lambda b, xs: ms.valmod_checked_op("c0", b, 0, wmin=6, wmax=12),
        ms, "valmod", _wrap(ms.valmod, lambda r: dict(r, mp=r["mp"] + 0.01))),
    "pmp_checked": (
        lambda b, xs: ms.pmp_checked_op("c0", b, 0, windows=[6, 8, 10, 12]),
        ms, "pmp", _wrap(ms.pmp, lambda r: dict(r, pmp={
            w: v + 0.01 for w, v in r["pmp"].items()}))),
    "snippets_checked": (
        lambda b, xs: ms.snippet_checked_op("c0", b, 0, s_size=16, w=W),
        ms, "find_snippet", _wrap(ms.find_snippet, lambda r: dict(
            r, snippet_idx=[i + 1 for i in r["snippet_idx"]]))),
    "mpdist_checked": (
        lambda b, xs: ms.mpdist_checked_pair_op("c0", xs[0], "c1", xs[1], w=W),
        ms, "mpdist", _wrap(ms.mpdist, lambda d: d + 0.01)),
}


@pytest.mark.parametrize("name", sorted(GATES))
def test_checked_gate_fires_on_poisoned_kernel(name, monkeypatch):
    """No gate is vacuous: the op passes and emits rows with the real
    kernel, and raises its own "deviate(s)" AssertionError once that kernel
    is poisoned."""
    run, module, attr, poisoned = GATES[name]
    out = run(BATCH, XS)  # the op's columns
    assert out is not None and len(next(iter(out.values()))) > 0
    monkeypatch.setattr(module, attr, poisoned)
    with pytest.raises(AssertionError, match="deviate"):
        run(BATCH, XS)


@pytest.mark.parametrize("name", sorted(GATES))
def test_checked_gate_passes_flat_float_stretch(name):
    """The oracle-order side skips a flat window by the kernels' own rule
    (min == max or sd < EPS): a constant 0.1 stretch of a float series,
    whose windows have std ≈ 1e-17 rather than 0, passes every gate."""
    out = GATES[name][0](FLAT_BATCH, FLAT_XS)
    assert out is not None and len(next(iter(out.values()))) > 0
