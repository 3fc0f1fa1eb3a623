"""Distributed per-conversation mining — the downstream query catalog
(motifs/discords/segments/chains/mstomp/stompi/annotation) run over
packed-series rows in the profile stage's plan (``profile_stage.per_block``):
one task per packed block, one op call per conversation (or per pair, after
the pair stage's sort); no driver loops, no full-dataset ``to_pandas``.

Each op recomputes the needed matrix profile inline from the packed series
(one pass per conv: the profile is O(n²), the mining step O(n) — fusing them
avoids a profile→series shuffle join). Partitioning assumption: a single
conversation's series fits one task, however long: these ops never shard a
conversation's profile. Only ``compute_mstomp`` fans a conversation above
``EngineConfig.salt_turn_threshold`` out as index-range shards.

Reference semantics per op cited in the kernels
(/root/reference/R/find-motifs.R, find-discord.R, fluss.R, find-chains.R,
mstomp.R, stompi.R, annotations.R); this module is only the Ray fan-out.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import (DEFAULT_EZ, EPS, SIGNALS, EngineConfig, exclusion_zone,
                      session_cpus)
from ..kernels.block_join import blocked_mp
from ..kernels.mass import dist_profile
from ..kernels.mining import (
    av_complexity,
    find_chains,
    find_discords,
    find_motifs,
    find_snippet,
    fluss,
    fluss_cac,
    fluss_extract,
    mpdist,
    pmp,
    valmod,
)
from ..kernels.mstomp import mstomp
from ..kernels.profile_types import empty_profile
from ..kernels.salient import salient_subsequences
from ..kernels.stompi import StreamingProfile
from .profile_stage import per_block
from .signals import key_runs, list_cell, remote, repeat_labels


#: the signal every single-signal op (but ``fluss_op``: ``tool_call``) and
#: ``conv_pair_stage`` read, and the decimal places of the values the
#: checked ops emit (the SQL oracles round to the same 6 dp)
_ORACLE_SIGNAL = "text_len"
_DP = 6
#: the one tolerance every ``*_checked`` gate allows between shipped and
#: oracle-order values (sqrt amplifies kernel rounding near d = 0)
_ATOL = 2e-5


def emits(schema: pa.Schema):
    """Declare an op's output schema, once: the stage running the op reads
    ``fn.schema`` to assemble its blocks and to type an empty one."""
    def declare(fn):
        fn.schema = schema
        return fn
    return declare


def _keyed(*fields) -> pa.Schema:
    """A per-conversation op's output schema: the ``conv_id`` key column
    that ``per_conv_stage`` prepends, then the op's own ``fields``."""
    return pa.schema([("conv_id", pa.string()), *fields])


def _emit(schema: pa.Schema, parts) -> pa.Table:
    """One output block of ``schema`` from the column dicts of a batch's op
    calls (None = no output): their concatenation, or the typed empty table
    when nothing came back, so every block a stage emits has the op's one
    schema."""
    tables = [pa.table(p, schema=schema) for p in parts if p is not None]
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables) if tables else schema.empty_table()


def _assert_agrees(prod, oracle: np.ndarray, what: str, where: str,
                   fin: np.ndarray | None = None, symmetric: bool = True,
                   slack: float = 0.0) -> None:
    """The one production-vs-oracle gate of every ``*_checked`` op: ``prod``
    (cut to the oracle's length) must lie within ``_ATOL`` of ``oracle``
    with rtol=0 (np.allclose's default rtol silently weakens the gate);
    ``slack`` widens it by a step the oracle side takes and production does
    not (rounding before a selection, a tie count).

    With ``fin`` (the oracle's finite mask) values are compared only where
    both sides are finite, and the masks are asserted first: np.allclose on
    an empty mask is True, so a kernel that wrongly emits Inf/NaN would
    otherwise pass vacuously. Production must be finite wherever the oracle
    is and, when ``symmetric`` (kernels whose skip rule is exactly the
    oracle's flat-window rule), non-finite wherever it is not. ``fin=None``
    compares every position, finite or not."""
    prod = np.asarray(prod, dtype=np.float64)[: len(oracle)]
    oracle = np.asarray(oracle, dtype=np.float64)
    atol = _ATOL + slack
    both = slice(None)
    if fin is not None:
        prod_fin = np.isfinite(prod)
        sides = [("non-finite", fin & ~prod_fin)]
        if symmetric:
            sides.append(("finite", prod_fin & ~fin))
        for state, bad in sides:
            if bad.any():
                raise AssertionError(
                    f"{what} deviates from the oracle on {where}: {state} "
                    f"at {int(bad.sum())} window(s) where the oracle is not "
                    f"(first at {int(np.flatnonzero(bad)[0])})")
        both = fin & prod_fin
    if not np.allclose(prod[both], oracle[both], rtol=0.0, atol=atol):
        worst = float(np.abs(prod[both] - oracle[both]).max())
        raise AssertionError(
            f"{what} deviates from the oracle-order value on {where}: "
            f"max|Δ|={worst:.2e} > atol={atol}")


def _with_key(conv_id: str, cols: dict) -> dict:
    """A per-conv op's columns with the ``conv_id`` key column prepended."""
    n = len(next(iter(cols.values())))
    return {"conv_id": repeat_labels([conv_id], [n]), **cols}


def _run_convs(batch: pa.Table, fn, kw: dict) -> pa.Table:
    """One ``per_conv_stage`` batch: ``fn``'s columns for each conversation,
    keyed by its ``conv_id``, as one block of ``fn.schema``."""
    ids = batch["conv_id"].to_pylist()
    outs = ((cid, fn(cid, batch, r, **kw)) for r, cid in enumerate(ids))
    return _emit(fn.schema, [_with_key(cid, cols) for cid, cols in outs
                             if cols is not None])


def per_conv_stage(ds_packed, fn, fn_kwargs: dict | None = None):
    """Generic fan-out of an ``@emits(_keyed(...))`` op over packed
    conversation rows, one task per packed block and one op call per
    conversation: ``fn(conv_id, batch, row, **kw)`` returns its non-key
    columns (name → 1-D values) or None; the stage owns the ``conv_id``
    column and the block's schema."""
    return per_block(ds_packed, fn.schema, _run_convs, fn, fn_kwargs or {})


# ------------------------------------------------------------------- ops

_MINING_SCHEMA = _keyed(
    ("signal", pa.string()),
    ("motif_a", pa.int64()), ("motif_b", pa.int64()),
    ("motif_dist", pa.float64()),
    ("discord", pa.int64()), ("discord_dist", pa.float64()),
    ("segment", pa.int64()),
)


@emits(_MINING_SCHEMA)
def mining_op(conv_id, batch, r, *, w: int, ez: float = DEFAULT_EZ):
    """Per (conv, signal): top motif pair + top discord + first FLUSS segment
    (the reference's ``analyze()`` mining tail, /root/reference/R/analyze.R:69-72)."""
    rows = []
    for sig in SIGNALS:
        x = list_cell(batch, r, sig)
        if len(x) < 2 * w:
            continue
        prof = blocked_mp(x, w, ez)
        motifs = find_motifs(x, prof, n_motifs=2)
        discords = find_discords(x, prof, n_discords=1)
        segs = fluss_extract(fluss_cac(prof), w, num_segments=1)
        rows.append((
            sig,
            motifs[0]["motifs"][0] if motifs else -1,
            motifs[0]["motifs"][1] if motifs else -1,
            motifs[0]["distance"] if motifs else np.nan,
            discords[0]["discord"] if discords else -1,
            discords[0]["distance"] if discords else np.nan,
            segs[0] if segs else -1,
        ))
    return dict(zip(_MINING_SCHEMA.names[1:], zip(*rows))) if rows else None


@emits(_keyed(("segment", pa.int64())))
def fluss_op(conv_id, batch, r, *, w: int):
    x = list_cell(batch, r, "tool_call")
    if len(x) < 4 * w:
        return None
    res = fluss(x, w, num_segments=1)
    return {"segment": [res["fluss"][0] if res["fluss"] else -1]}


_CHAINS_SCHEMA = _keyed(
    ("signal", pa.string()),
    ("best_chain_len", pa.int64()), ("n_chains", pa.int64()),
)


@emits(_CHAINS_SCHEMA)
def chains_op(conv_id, batch, r, *, w: int, ez: float = DEFAULT_EZ):
    rows = []
    for sig in SIGNALS:
        x = list_cell(batch, r, sig)
        if len(x) < 2 * w:
            continue
        res = find_chains(blocked_mp(x, w, ez))
        rows.append((sig, len(res["best"]), len(res["chains"])))
    return dict(zip(_CHAINS_SCHEMA.names[1:], zip(*rows))) if rows else None


_MSTOMP_SCHEMA = _keyed(
    ("k_dim", pa.int64()),
    ("window_idx", pa.int64()), ("mp", pa.float64()), ("pi", pa.int64()),
    ("lmp", pa.float64()), ("lpi", pa.int64()),
    ("rmp", pa.float64()), ("rpi", pa.int64()),
)


def _mstomp_cols(res, offset: int = 0) -> dict:
    """Long-format columns of a (possibly index-range) MultiMatrixProfile;
    ``offset`` = the range's global start (window_idx stays global)."""
    d, p = res.mp.shape
    return {
        "k_dim": np.repeat(np.arange(1, d + 1, dtype=np.int64), p),
        "window_idx": np.tile(np.arange(offset, offset + p, dtype=np.int64), d),
        "mp": res.mp.reshape(-1),
        "pi": res.pi.reshape(-1).astype(np.int64),
        "lmp": res.lmp.reshape(-1),
        "lpi": res.lpi.reshape(-1).astype(np.int64),
        "rmp": res.rmp.reshape(-1),
        "rpi": res.rpi.reshape(-1).astype(np.int64),
    }


@emits(_MSTOMP_SCHEMA)
def mstomp_op(conv_id, batch, r, *, w: int):
    """One conv's multivariate profile; None for convs shorter than 2w."""
    mats = [list_cell(batch, r, s) for s in SIGNALS]
    if len(mats[0]) < 2 * w:
        return None
    return _mstomp_cols(mstomp(np.stack(mats, axis=1), w))


def _mstomp_shard(tbl: pa.Table, row: int, conv_id: str, w: int, lo: int,
                  hi: int) -> pa.Table:
    """Query rows [lo, hi) of one conv's multivariate profile, re-seeded by
    one FFT per dim; window_idx stays global."""
    mats = [list_cell(tbl, row, s) for s in SIGNALS]
    res = mstomp(np.stack(mats, axis=1), w, index_range=(lo, hi))
    return pa.table(_with_key(conv_id, _mstomp_cols(res, offset=lo)),
                    schema=_MSTOMP_SCHEMA)


def _mstomp_shards(w: int):
    """``compute_mstomp``'s shard planner: equal-width INDEX RANGES, one per
    session CPU — every query row costs O(p) (a full distance row), so the
    index axis IS the cost axis."""
    pool = session_cpus()
    shard = remote(_mstomp_shard)

    def plan(block, row: int, conv_id: str, n: int) -> list:
        if n < 2 * w:
            return []
        p = n - w + 1
        edges = np.linspace(0, p, min(pool, p) + 1).astype(np.int64)
        return [shard.remote(block, row, conv_id, w, int(lo), int(hi))
                for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]

    return plan


def compute_mstomp(ds_packed, cfg: EngineConfig):
    """Multivariate profiles for EVERY conversation, salting the long tail,
    in the profile stage's one plan (``profile_stage.per_block``):
    ``mstomp_op`` per conv in one task per packed block, and every conv
    over ``cfg.salt_turn_threshold`` fanned out as INDEX-RANGE shard tasks
    over the mstomp QT recurrence — the reference's own mstomp_par
    partitioning (its R/mstomp-par.R:110-127) — each shard
    emitting its final rows directly (no merge: every query index is
    computed exactly once)."""
    return per_block(ds_packed, _MSTOMP_SCHEMA, _run_convs, mstomp_op,
                     {"w": cfg.window_size},
                     shards=(cfg.salt_turn_threshold,
                             _mstomp_shards(cfg.window_size)))


@emits(_keyed(("window_idx", pa.int64()), ("mp", pa.float64()),
              ("pi", pa.int64())))
def stompi_op(conv_id, batch, r, *, w: int):
    """2/3 batch seed + 1/3 incremental append (equals the batch profile —
    asserted in tests; /root/reference/R/stompi.R:52-96 semantics)."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 4 * w:
        return None
    cut = 2 * len(x) // 3
    sp = StreamingProfile(x[:cut], w)
    sp.update(x[cut:])
    return {"window_idx": np.arange(len(sp.profile.mp), dtype=np.int64),
            "mp": sp.profile.mp, "pi": sp.profile.pi.astype(np.int64)}


_MP_EXACT_SCHEMA = _keyed(("window_idx", pa.int64()), ("mp", pa.float64()))


def _z_windows(x: np.ndarray, w: int):
    """Oracle-order z-normalized window rows + validity mask. A window is
    valid unless flat by the kernels' skip rule (``mass.clean_series``:
    min == max or sd < EPS) — a constant window of a non-integer value can
    have std ≈ 1e-16, not 0. On integral signals this is the SQL oracles'
    ``sd > 0``."""
    win = np.lib.stride_tricks.sliding_window_view(x, w)
    mu = win.mean(axis=1)
    sd = win.std(axis=1)
    ok = (win.min(axis=1) != win.max(axis=1)) & (sd >= EPS)
    z = np.where(ok[:, None],
                 (win - mu[:, None]) / np.where(ok, sd, 1.0)[:, None], 0.0)
    return z, ok


def _blocked_d2(za: np.ndarray, zb: np.ndarray, okb: np.ndarray,
                zone: int | None = None):
    """Yield (lo, hi, d2) ROW BLOCKS of pairwise squared distances between
    oracle-order z-rows (``_z_windows``) of A (rows) and B (columns), flat
    B columns masked to inf; for a self-join (B = A) ``zone`` also masks
    the |i-j| ≤ zone exclusion band. The one home for the oracle-order
    pairwise arithmetic of every ``*_checked`` op: one block up to 4M
    pairs, else 512 rows at a time (memory O(512 × p_b)); the k-sum's
    summation order is absorbed by the callers' rounding."""
    p_a, p_b = len(za), len(zb)
    step = p_a if p_a * p_b <= 1 << 22 else 512
    col_idx = np.arange(p_b)
    for lo in range(0, p_a, step):
        hi = min(lo + step, p_a)
        d2 = ((za[lo:hi, None, :] - zb[None, :, :]) ** 2).sum(axis=2)
        if zone is not None:
            d2[np.abs(np.arange(lo, hi)[:, None] - col_idx[None, :])
               <= zone] = np.inf
        d2[:, ~okb] = np.inf
        yield lo, hi, d2


def _row_min(ok: np.ndarray, blocks) -> np.ndarray:
    """sqrt of each row's minimum over ``_blocked_d2`` blocks; inf at the
    rows that are not ``ok`` (flat query windows)."""
    d2min = np.full(len(ok), np.inf)
    for lo, hi, d2 in blocks:
        d2min[lo:hi] = d2.min(axis=1)
    d2min[~ok] = np.inf
    return np.sqrt(d2min)


def _oracle_order_mp(x: np.ndarray, w: int, zone: int):
    """Oracle-order matrix profile: per window, z-normalize with population
    mean/sd (flat windows dropped on BOTH sides), distance =
    sqrt(min over |i-j|>zone of Σ_k (zi_k - zj_k)²) — the exact arithmetic a
    SQL self-join oracle performs. Returns (mp, ok-mask)."""
    z, ok = _z_windows(x, w)
    return _row_min(ok, _blocked_d2(z, z, ok, zone)), ok


def _cross_min(xa: np.ndarray, xb: np.ndarray, w: int) -> np.ndarray:
    """Oracle-order AB-join profile: per A-window, sqrt(min over non-flat
    B-windows of the z-distance²); inf at flat A-windows — the cross-join
    minimum the AB-join and MPdist SQL oracles compute."""
    za, oka = _z_windows(xa, w)
    zb, okb = _z_windows(xb, w)
    return _row_min(oka, _blocked_d2(za, zb, okb))


def _mp_exact_cols(mp: np.ndarray, ok: np.ndarray) -> dict:
    idx = np.flatnonzero(ok & np.isfinite(mp))
    return {"window_idx": idx.astype(np.int64),
            "mp": np.round(mp[idx], _DP)}


@emits(_MP_EXACT_SCHEMA)
def mp_exact_op(conv_id, batch, r, *, w: int):
    """Oracle-order matrix profile (see ``_oracle_order_mp``) — the
    oracle-friendly flagship-correctness query; rounded values hash-match a
    SQL self-join computing the identical znorm-ED arithmetic."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 2 * w:
        return None
    return _mp_exact_cols(*_oracle_order_mp(x, w, exclusion_zone(w)))


@emits(_MP_EXACT_SCHEMA)
def profiles_checked_op(conv_id, batch, r, *, w: int, shipped: dict,
                        ez: float = DEFAULT_EZ):
    """``mp_exact_op``'s oracle-order rows, gated by a shipped profile run:
    ``shipped`` maps each conv to the (window_idx, mp) of the ``text_len``
    rows ``profile_stage.compute_profiles`` emitted for it, and those must
    agree with the oracle-order profile at every window. A conv the run
    left out reads as non-finite everywhere, so the gate fails on it."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 2 * w:
        return None
    mp, ok = _oracle_order_mp(x, w, exclusion_zone(w, ez))
    prod = np.full(len(mp), np.inf)
    idx, vals = shipped.get(conv_id, ([], []))
    prod[idx] = vals
    _assert_agrees(prod, mp, "compute_profiles", f"conv {conv_id}",
                   fin=ok & np.isfinite(mp))
    return _mp_exact_cols(mp, ok)


def _oracle_order_pi(x: np.ndarray, w: int, zone: int):
    """Oracle-order profile INDICES: per window i, the argmin over |i-j|>zone
    of the ``_DP``-ROUNDED z-normalized distance, ties broken by smallest j
    — the deterministic selection a SQL ``row_number() OVER (ORDER BY dist,
    j)`` reproduces (round BEFORE selection: integer signals make exact
    distance ties common). One pass selects over the left (j < i) and right
    (j > i) candidates; the two-sided index is the better side, the left
    one on ties (its j is smaller). Flat windows are dropped on both sides.
    Returns (pi, lpi, rpi, rmp_rounded, ok): -1 / inf where there is no
    valid candidate."""
    z, ok = _z_windows(x, w)
    p = len(z)
    col_idx = np.arange(p)
    idx = np.full((2, p), -1, dtype=np.int64)
    dist = np.full((2, p), np.inf)
    for lo, hi, d2 in _blocked_d2(z, z, ok, zone):
        rows = np.arange(lo, hi)[:, None]
        dr = np.round(np.sqrt(d2), _DP)
        r = np.arange(hi - lo)
        for s, side in enumerate((col_idx[None, :] < rows,
                                  col_idx[None, :] > rows)):
            ds = np.where(side, dr, np.inf)
            j = np.argmin(ds, axis=1)  # first minimum = smallest j tie-break
            has = np.isfinite(ds[r, j])
            idx[s, lo:hi][has] = j[has]
            dist[s, lo:hi][has] = ds[r, j][has]
    idx[:, ~ok] = -1
    dist[:, ~ok] = np.inf
    pi = np.where(dist[1] < dist[0], idx[1], idx[0])
    return pi, idx[0], idx[1], dist[1], ok


@emits(_keyed(("chain_start", pa.int64()), ("seq", pa.int64()),
              ("window_idx", pa.int64())))
def chains_checked_op(conv_id, batch, r, *, w: int, ez: float = DEFAULT_EZ):
    """PRODUCTION ``find_chains`` (rpi-walk with lpi back-link check,
    /root/reference/R/find-chains.R:18-77) tied to SQL: both sides build
    directional indices by the deterministic rounded-argmin selection
    (:func:`_oracle_order_pi`); the op derives the chain set independently
    as the maximal paths of the edge relation {j → rpi[j] iff
    lpi[rpi[j]] == j} (in/out-degree ≤ 1 ⇒ simple paths), ASSERTS the
    production walker returns exactly those chains, and emits the
    integer-only member rows (chains longer than 2) that a recursive-CTE
    SQL oracle reproduces."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 2 * w:
        return None
    _, lpi, rpi, rmp, _ = _oracle_order_pi(x, w, exclusion_zone(w, ez))
    p = len(lpi)
    # oracle chain set: maximal paths of the edge relation
    src = np.flatnonzero((rpi >= 0) & (rpi < p))
    src = src[lpi[rpi[src]] == src]
    dst = rpi[src]
    nxt = {int(s): int(d) for s, d in zip(src, dst)}
    has_in = set(nxt.values())
    chains_o = []
    for head in sorted(nxt):
        if head in has_in:
            continue
        chain = [head]
        while chain[-1] in nxt:
            chain.append(nxt[chain[-1]])
        if len(chain) > 2:
            chains_o.append(chain)
    # production walker on the same directional profile
    prof = empty_profile(p, w, ez, directional=True, algorithm="checked")
    prof.lpi, prof.rpi, prof.rmp = lpi, rpi, rmp
    got = find_chains(prof)["chains"]
    if [list(map(int, c)) for c in got] != chains_o:
        raise AssertionError(
            f"production find_chains deviates from the oracle-order maximal "
            f"paths on conv {conv_id}: {got} != {chains_o}")
    if not chains_o:
        return None
    return {
        "chain_start": np.concatenate([[c[0]] * len(c) for c in chains_o]
                                      ).astype(np.int64),
        "seq": np.concatenate([np.arange(len(c)) for c in chains_o]
                              ).astype(np.int64),
        "window_idx": np.concatenate(chains_o).astype(np.int64),
    }


def _oracle_cac(pi_o: np.ndarray, zf: int) -> np.ndarray:
    """Oracle-order corrected arc counts: mirror the SQL operations exactly
    (arc scatter/cumsum, beta(2,2) ideal with x = pos/(p-1), clamp, force
    the first/last ``zf`` positions to 1). Shared by the CAC and segment
    checked ops so both emit bitwise-identical values to their oracles."""
    p = len(pi_o)
    nnmark = np.zeros(p)
    valid = pi_o >= 0
    i_idx = np.flatnonzero(valid)
    j_idx = pi_o[valid]
    np.add.at(nnmark, np.minimum(i_idx, j_idx), 1.0)
    np.add.at(nnmark, np.maximum(i_idx, j_idx), -1.0)
    arc = np.cumsum(nnmark)
    pos = np.arange(p, dtype=np.float64)
    xs = pos / (p - 1) if p > 1 else np.zeros(1)
    ideal = 6.0 * xs * (1.0 - xs) * p / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cac = np.minimum(arc / ideal, 1.0)
    cac[~np.isfinite(cac)] = 1.0
    cac[: min(zf, p)] = 1.0
    cac[max(p - zf, 0):] = 1.0
    return cac


def _gated_cac(conv_id, x: np.ndarray, w: int, zone: int, ez_factor: float):
    """Oracle-order CAC (:func:`_oracle_cac`, edge zone round(w·ez_factor))
    on the rounded-argmin pi, with the production ``fluss_cac`` gated on
    the same pi (linspace vs pos/(p-1) division differ only in ulps); None
    when no window is valid."""
    pi_o, *_, ok = _oracle_order_pi(x, w, zone)
    if not ok.any():
        return None
    cac = _oracle_cac(pi_o, int(round(w * ez_factor + EPS)))
    prof = empty_profile(len(pi_o), w, ez_factor / 10.0, algorithm="checked")
    prof.pi = pi_o
    _assert_agrees(fluss_cac(prof, ez_factor=ez_factor), cac,
                   "production fluss_cac", f"conv {conv_id}")
    return cac


@emits(_keyed(("window_idx", pa.int64()), ("cac", pa.float64())))
def fluss_cac_checked_op(conv_id, batch, r, *, w: int, ez: float = DEFAULT_EZ):
    """PRODUCTION ``fluss_cac`` (arc scatter/cumsum, beta(2,2) ideal
    parabola, clamps, edge-zone forcing — kernels/mining.py,
    /root/reference/R/fluss.R:307-355) tied to SQL: both sides build the
    profile index by the deterministic rounded-argmin selection
    (:func:`_oracle_order_pi`), the op runs the production CAC on that pi,
    asserts it equals the SQL-order arithmetic and emits the oracle-order
    values.

    Scope: this gates the CAC pipeline; the pi VALUES themselves are gated
    at distance level by ``profiles_checked`` (index ties under unrounded
    production kernels are legitimately arbitrary, so the production
    kernel's pi cannot be hash-compared directly)."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 2 * w:
        return None
    cac = _gated_cac(conv_id, x, w, exclusion_zone(w, ez), ez * 10)
    if cac is None:
        return None
    return {"window_idx": np.arange(len(cac), dtype=np.int64),
            "cac": np.round(cac, _DP)}


@emits(_keyed(("seg_rank", pa.int64()), ("window_idx", pa.int64())))
def fluss_segments_checked_op(conv_id, batch, r, *, w: int):
    """PRODUCTION ``fluss_extract`` (iterative argmin + ±zone·suppression,
    stop at cac ≥ 1 — /root/reference/R/fluss.R:254-282) tied to SQL.

    Both sides build the CAC deterministically (rounded-argmin pi, the
    :func:`_oracle_cac` arithmetic, values rounded to ``_DP`` BEFORE
    extraction — argmin on unrounded floats would make selection ties
    fold-order-dependent); the op asserts the production ``fluss_cac``
    against the oracle-order CAC, then runs the production ``fluss_extract``
    loop on the rounded oracle CAC and emits its segments as INTEGER-only
    (conv_id, seg_rank, window_idx) rows. The SQL oracle reproduces the
    loop as 3 chained argmin levels, each excluding [prev − zone,
    prev + zone) of every earlier pick (the reference's asymmetric 1-based
    mask) and emitting only while min(cac) < 1.

    The edge-forcing AND suppression zone is round(w·1.0) (``ez_factor`` =
    1.0) — the reference default 10·ez = 5 forces the whole CAC to 1 on
    sf0.01-sized convs (p ≈ 60 < 2·zone = 80), which would gate nothing."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 2 * w:
        return None
    cac = _gated_cac(conv_id, x, w, exclusion_zone(w), 1.0)
    if cac is None:
        return None
    # PRODUCTION extraction loop on the rounded oracle CAC (bitwise == SQL)
    segs = fluss_extract(np.round(cac, _DP), w, num_segments=3,
                         ez_factor=1.0)
    if not segs:
        return None
    return {"seg_rank": np.arange(len(segs), dtype=np.int64),
            "window_idx": np.asarray(segs, dtype=np.int64)}


@emits(_keyed(("window_idx", pa.int64()), ("av", pa.float64())))
def annotation_op(conv_id, batch, r, *, w: int):
    """av_complexity per window, rounded to ``_DP`` so the result
    hash-matches the SQL oracle (numpy pairwise summation vs SQL sequential
    sums differ in the last ulp; the value is O(1) so 6 dp absorbs it)."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 2 * w:
        return None
    av = np.round(av_complexity(x, w), _DP)
    return {"window_idx": np.arange(len(av), dtype=np.int64), "av": av}


# --------------------------------------------- distributed demo-bounded ops
# Round-2 verdict item 6: the queries that used to pull a handful of convs to
# the driver (salient/snippets/mpdist/ab_join) now fan out over
# EVERY conversation via per_conv_stage / conv_pair_stage.


@emits(_keyed(("rank", pa.int64()), ("index", pa.int64()),
              ("bit_size", pa.int64())))
def salient_op(conv_id, batch, r, *, w: int, ez: float = DEFAULT_EZ):
    """MDL salient subsequences per conversation
    (/root/reference/R/salient.R), 6-bit discretization over 8 candidates
    per round."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 2 * w:
        return None
    sal = salient_subsequences(x, blocked_mp(x, w, ez), n_bits=6, n_cand=8)
    k = len(sal["indexes"])
    if not k:
        return None
    return {"rank": np.arange(k, dtype=np.int64),
            "index": np.asarray(sal["indexes"], dtype=np.int64),
            "bit_size": np.asarray(sal["idx_bit_size"][:k], dtype=np.int64)}


_SNIPPET_SCHEMA = _keyed(("rank", pa.int64()), ("snippet_idx", pa.int64()),
                         ("fraction", pa.float64()))


@emits(_SNIPPET_SCHEMA)
def snippet_op(conv_id, batch, r, *, s_size: int, w: int = 8):
    """The 2 representative snippets per conversation
    (/root/reference/R/find-snippet.R:47-142)."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 4 * s_size:
        return None
    res = find_snippet(x, s_size=s_size, n_snippets=2, w=w)
    return {"rank": np.arange(len(res["snippet_idx"]), dtype=np.int64),
            "snippet_idx": np.asarray(res["snippet_idx"], dtype=np.int64),
            "fraction": np.asarray(res["snippet_frac"], dtype=np.float64)}


# ------------------------------------------------------------- pair stage


def _conv_num(s: str) -> int:
    """Numeric suffix of a conv id ('c17' → 17, 'conv000042' → 42). An id
    WITHOUT a numeric suffix raises: returning a sentinel would collapse
    every such conv into one pair group, silently pairing two arbitrary
    ones and dropping the rest."""
    import re

    m = re.search(r"(\d+)$", s)
    if m is None:
        raise ValueError(
            f"conv_pair_stage requires conv ids with a numeric suffix "
            f"(pairing key = suffix // 2); got {s!r}")
    return int(m.group(1))


def _run_pairs(batch: pa.Table, fn, kw: dict) -> pa.Table:
    """One ``conv_pair_stage`` block: ``fn``'s columns for each pair (run of
    ``pair_id``), as one block of ``fn.schema``."""
    outs = []
    batch, bounds = key_runs(batch, ["pair_id"])
    ids = batch["conv_id"].to_pylist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo > 2:
            # duplicate numeric suffixes across prefixes ('a4' and 'b4')
            # would silently pair two arbitrary members and drop the rest
            raise ValueError(
                f"conv_pair_stage: pair group holds {hi - lo} convs "
                f"{ids[lo:hi]!r}; numeric conv-id suffixes must be "
                f"unique")
        if hi - lo == 2:
            a, b = sorted((lo, lo + 1), key=lambda r: _conv_num(ids[r]))
            outs.append(fn(ids[a], list_cell(batch, a, _ORACLE_SIGNAL),
                           ids[b], list_cell(batch, b, _ORACLE_SIGNAL),
                           **kw))
    return _emit(fn.schema, outs)


def conv_pair_stage(ds_packed, fn, fn_kwargs: dict | None = None):
    """Fan out an ``@emits`` pair op ``fn(id_a, xa, id_b, xb, **kw)`` (every
    column of ``fn.schema``, ``conv_a``/``conv_b`` included, or None) over
    CONSECUTIVE conversation pairs: numeric-id 2k pairs with 2k+1. The
    pairing key is derived from the numeric conv-id suffix INSIDE each batch
    (no global rank), then ``sort(pair_id)`` co-locates each pair and one
    task per sorted block (``profile_stage.per_block``) loops over its
    pairs (runs of ``signals.key_runs``), passing each conv's ``text_len``
    series. Odd leftover ids (no partner) are dropped."""

    def add_pair(batch: pa.Table) -> pa.Table:
        num = np.array([_conv_num(s) for s in batch["conv_id"].to_pylist()],
                       dtype=np.int64)
        return batch.append_column("pair_id", pa.array(num // 2))

    return per_block(
        ds_packed.map_batches(add_pair, batch_format="pyarrow")
        .sort("pair_id"), fn.schema, _run_pairs, fn, fn_kwargs or {})


_MPDIST_SCHEMA = pa.schema([
    ("conv_a", pa.string()), ("conv_b", pa.string()),
    ("mpdist", pa.float64()),
])


@emits(_MPDIST_SCHEMA)
def mpdist_pair_op(id_a, xa, id_b, xb, *, w: int):
    """MPdist between a conversation pair (/root/reference/R/mpdist.R)."""
    if len(xa) < 2 * w or len(xb) < 2 * w:
        return None
    return {"conv_a": [id_a], "conv_b": [id_b], "mpdist": [mpdist(xa, xb, w)]}


@emits(pa.schema([
    ("conv_a", pa.string()), ("conv_b", pa.string()),
    ("orientation", pa.string()), ("window_idx", pa.int64()),
    ("mp", pa.float64()), ("pi", pa.int64()),
]))
def abjoin_pair_op(id_a, xa, id_b, xb, *, w: int):
    """AB similarity join, BOTH orientations (join/join-reversed — the
    reference's stamp/stomp AB mode, /root/reference/R/stomp.R query path)."""
    if min(len(xa), len(xb)) < 2 * w:
        return None
    # ONE join pass: the blocked AB join fills both orientations from the
    # same block matmuls (mp/pi = A side from the row argmax, mpb/pib = B
    # side from the column argmax — mpx.cpp:234-248's fields), so the
    # reversed call would recompute identical distances. Never hash-compare
    # pi/pib across kernels or versions: exact-distance ties resolve by
    # summation-order ulps. Distances stay atol-gated through
    # ab_join_checked.
    prof = blocked_mp(xa, w, query=xb)
    lens = [len(prof.mp), len(prof.mpb)]
    return {
        "conv_a": repeat_labels([id_a, id_b], lens),
        "conv_b": repeat_labels([id_b, id_a], lens),
        "orientation": repeat_labels(["ab", "ba"], lens),
        "window_idx": np.concatenate([np.arange(n, dtype=np.int64)
                                      for n in lens]),
        "mp": np.concatenate([prof.mp, prof.mpb]),
        "pi": np.concatenate([prof.pi, prof.pib]).astype(np.int64),
    }


# ------------------------------------------------- oracle-checked kernels
# Each op computes the oracle-order exact arithmetic, ASSERTS that the
# shipped op (or, where no op ships the function, the production function)
# agrees within ``_ATOL`` (raising fails the driver run), and emits the
# oracle-order values so the hash compare is ulp-immune.


@emits(_keyed(("window_idx", pa.int64()), ("d", pa.float64())))
def distprof_checked_op(conv_id, batch, r, *, w: int):
    """MASS v3 distance profile of each conv's window 0, gated by the
    oracle-order exact z-distance (SQL: DIST_PROFILE_CHECKED_SQL)."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 2 * w:
        return None
    z, ok = _z_windows(x, w)
    if not ok[0]:
        return None
    d = np.sqrt(((z - z[0]) ** 2).sum(axis=1))
    d[~ok] = np.inf
    fin = ok & np.isfinite(d)
    _assert_agrees(dist_profile(x, x[:w], method="v3")[0], d, "MASS v3",
                   f"conv {conv_id}", fin=fin)
    idx = np.flatnonzero(fin)
    return {"window_idx": idx.astype(np.int64), "d": np.round(d[idx], _DP)}


@emits(_MP_EXACT_SCHEMA)
def stompi_checked_op(conv_id, batch, r, *, w: int):
    """``stompi_op``'s STREAMING profile (2/3 seed + 1/3 incremental
    appends) gated by the oracle-order exact batch profile — proving the
    incremental recurrence (/root/reference/R/stompi.R:52-96) converges to
    the batch answer, checked all the way to SQL (reuses the mp_exact
    oracle with a 4w min-length bound)."""
    shipped = stompi_op(conv_id, batch, r, w=w)
    if shipped is None:
        return None
    mp_e, ok = _oracle_order_mp(list_cell(batch, r, _ORACLE_SIGNAL), w,
                                exclusion_zone(w))
    _assert_agrees(shipped["mp"], mp_e, "stompi_op", f"conv {conv_id}",
                   fin=ok & np.isfinite(mp_e))
    return _mp_exact_cols(mp_e, ok)


@emits(pa.schema([
    ("conv_a", pa.string()), ("conv_b", pa.string()),
    ("window_idx", pa.int64()), ("mp", pa.float64()),
]))
def abjoin_checked_pair_op(id_a, xa, id_b, xb, *, w: int):
    """``abjoin_pair_op``'s AB join (both directions) gated by the
    oracle-order exact cross z-distance (SQL: AB_JOIN_CHECKED_SQL).
    Direction is encoded by the (conv_a, conv_b) column pair."""
    shipped = abjoin_pair_op(id_a, xa, id_b, xb, w=w)
    if shipped is None:
        return None
    # the shipped rows hold the AB orientation's windows, then the BA ones
    p_a = len(xa) - w + 1
    idxs, mps = [], []
    for ia, ib, sa, sb, kernel_mp in (
            (id_a, id_b, xa, xb, shipped["mp"][:p_a]),
            (id_b, id_a, xb, xa, shipped["mp"][p_a:])):
        d = _cross_min(sa, sb, w)
        fin = np.isfinite(d)
        _assert_agrees(kernel_mp, d, "abjoin_pair_op", f"pair ({ia}, {ib})",
                       fin=fin)
        idxs.append(np.flatnonzero(fin).astype(np.int64))
        mps.append(np.round(d[fin], _DP))
    lens = [len(i) for i in idxs]
    return {"conv_a": repeat_labels([id_a, id_b], lens),
            "conv_b": repeat_labels([id_b, id_a], lens),
            "window_idx": np.concatenate(idxs), "mp": np.concatenate(mps)}


@emits(_keyed(("motif_a", pa.int64()), ("motif_b", pa.int64()),
              ("motif_dist", pa.float64()),
              ("discord", pa.int64()), ("discord_dist", pa.float64())))
def motifs_checked_op(conv_id, batch, r, *, w: int, ez: float = DEFAULT_EZ):
    """Top motif pair + top discord tied to SQL (MOTIFS_CHECKED_SQL): the
    oracle-order selection rounds distances to ``_DP`` BEFORE the
    argmin/argmax and breaks ties by (i, j) — deterministic in both numpy and
    DuckDB despite summation-order ulp differences (integer-valued signals
    make exact distance ties common). One pass over the masked distance
    blocks yields both the profile (for the discord) and the top pair. The
    top motif and discord distances of ``mining_op``'s ``text_len`` row are
    asserted against the oracle's."""
    shipped = mining_op(conv_id, batch, r, w=w, ez=ez)
    if shipped is None:
        return None
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    z, ok = _z_windows(x, w)
    p = len(z)
    mp2 = np.full(p, np.inf)
    mdist, ma, mb = np.inf, -1, -1
    for lo, hi, d2 in _blocked_d2(z, z, ok, exclusion_zone(w, ez)):
        d2[~ok[lo:hi]] = np.inf
        mp2[lo:hi] = d2.min(axis=1)
        d = np.round(np.sqrt(d2), _DP)
        d[np.arange(lo, hi)[:, None] >= np.arange(p)[None, :]] = np.inf
        # row-major first minimum = smallest (i, j) among the tied pairs
        i, j = np.unravel_index(np.argmin(d), d.shape)
        if d[i, j] < mdist:
            mdist, ma, mb = float(d[i, j]), lo + int(i), int(j)
    mp = np.sqrt(mp2)
    if not np.isfinite(mdist):
        return None
    mp_r = np.round(mp, _DP)
    mp_r[~np.isfinite(mp)] = -np.inf
    disc = int(np.argmax(mp_r))  # argmax takes the FIRST max (ties by i)
    ddist = float(mp_r[disc])
    row = shipped["signal"].index(_ORACLE_SIGNAL)
    _assert_agrees([shipped["motif_dist"][row], shipped["discord_dist"][row]],
                   [mdist, ddist], "mining_op's top motif and discord",
                   f"conv {conv_id}")
    return {"motif_a": [ma], "motif_b": [mb], "motif_dist": [mdist],
            "discord": [disc], "discord_dist": [ddist]}


@emits(_keyed(("k_dim", pa.int64()), ("window_idx", pa.int64()),
              ("mp", pa.float64())))
def mstomp_checked_op(conv_id, batch, r, *, w: int):
    """Multidimensional profile tied to SQL (MSTOMP_CHECKED_SQL): oracle-order
    per-dim z-distance² (= the kernel's 2w(1−corr) in exact arithmetic),
    k-of-d average of the k smallest dims per pair, sqrt at the end
    (mstomp.R:234-264 semantics). A query window degenerate in ANY dim is
    dropped (mstomp.R:204-206); a candidate degenerate in one dim still
    competes through its other dims. ``mstomp_op``'s rows are asserted
    against the oracle per k."""
    shipped = mstomp_op(conv_id, batch, r, w=w)
    if shipped is None:
        return None
    mats = [list_cell(batch, r, s) for s in SIGNALS]
    n = len(mats[0])
    nd = len(SIGNALS)
    zs = [_z_windows(x, w) for x in mats]
    okq = np.logical_and.reduce([ok for _, ok in zs])  # degenerate in ANY dim
    mp2 = np.full((nd, n - w + 1), np.inf)
    zone = exclusion_zone(w)
    # the same row blocks of every dim: a candidate degenerate in ONE dim is
    # inf in that dim only
    for dims in zip(*(_blocked_d2(z, z, ok, zone) for z, ok in zs)):
        lo, hi = dims[0][:2]
        cum = np.cumsum(np.sort(np.stack([d2 for *_, d2 in dims]), axis=0),
                        axis=0)
        for k in range(1, nd + 1):
            with np.errstate(invalid="ignore"):
                avg = cum[k - 1] / k
            avg[~okq[lo:hi]] = np.inf
            mp2[k - 1, lo:hi] = avg.min(axis=1)
    shipped_mp = shipped["mp"].reshape(nd, -1)  # k_dim-major rows
    ks, idxs, mps = [], [], []
    for k in range(1, nd + 1):
        mp_k = np.sqrt(mp2[k - 1])
        # one-directional: the kernel may legitimately skip extra windows
        # under its own multidim degeneracy rules, but must never be
        # non-finite where the oracle found a finite k-of-d profile value
        _assert_agrees(shipped_mp[k - 1], mp_k, f"mstomp_op k={k}",
                       f"conv {conv_id}", fin=np.isfinite(mp_k),
                       symmetric=False)
        fin = np.flatnonzero(np.isfinite(mp_k))
        ks.append(np.full(len(fin), k, dtype=np.int64))
        idxs.append(fin.astype(np.int64))
        mps.append(np.round(mp_k[fin], _DP))
    return {"k_dim": np.concatenate(ks), "window_idx": np.concatenate(idxs),
            "mp": np.concatenate(mps)}


@emits(_keyed(("window_idx", pa.int64()), ("mp_norm", pa.float64()),
              ("best_w", pa.int64())))
def valmod_checked_op(conv_id, batch, r, *, wmin: int, wmax: int,
                      ez: float = DEFAULT_EZ):
    """Variable-length sweep tied to SQL (VALMOD_CHECKED_SQL): per window
    the oracle-order exact profile, length-normalized 1/sqrt(w)
    (valmod.R:169,609-640), ROUNDED to ``_DP`` before the cross-window
    min (strict '<' keeps the SMALLEST w on ties — deterministic in both
    numpy and SQL's ORDER BY scaled, w). The production ``valmod`` sweep
    is asserted against the oracle per index, within ``_ATOL`` plus the
    rounding step."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 2 * wmax:
        return None
    p_out = len(x) - wmin + 1
    best = np.full(p_out, np.inf)
    bw = np.full(p_out, -1, dtype=np.int64)
    for w in range(wmin, wmax + 1):
        mp, _ = _oracle_order_mp(x, w, exclusion_zone(w, ez))
        scaled = np.round(mp / np.sqrt(w), _DP)
        p = len(scaled)
        upd = scaled < best[:p]
        best[:p][upd] = scaled[upd]
        bw[:p][upd] = w
    _assert_agrees(valmod(x, wmin, wmax, ez=ez)["mp"], best, "valmod",
                   f"conv {conv_id}", fin=np.isfinite(best),
                   symmetric=False, slack=10.0 ** -_DP)
    idx = np.flatnonzero(np.isfinite(best))
    return {"window_idx": idx.astype(np.int64), "mp_norm": best[idx],
            "best_w": bw[idx]}


@emits(_keyed(("w", pa.int64()), ("window_idx", pa.int64()),
              ("mp", pa.float64())))
def pmp_checked_op(conv_id, batch, r, *, windows, ez: float = DEFAULT_EZ):
    """Pan-matrix-profile tied to SQL (PMP_CHECKED_SQL — round-3 verdict
    item 4): per window length the oracle-order exact profile; the
    production ``pmp`` sweep (``blocked_mp`` per window,
    /root/reference/R/pmp.R:166-211) asserted in-op per w — values within
    ``_ATOL`` AND finiteness masks equal — then the oracle-order values are
    emitted so the DuckDB hash compare is ulp-immune."""
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    if len(x) < 2 * max(windows):
        return None
    res = pmp(x, windows=windows, ez=ez)
    ws, idxs, mps = [], [], []
    for w in sorted(res["pmp"]):
        mp_e, ok = _oracle_order_mp(x, w, exclusion_zone(w, ez))
        oracle_fin = ok & np.isfinite(mp_e)
        _assert_agrees(res["pmp"][w], mp_e, f"pmp kernel at w={w}",
                       f"conv {conv_id}", fin=oracle_fin)
        fin = np.flatnonzero(oracle_fin)
        ws.append(np.full(len(fin), w, dtype=np.int64))
        idxs.append(fin.astype(np.int64))
        mps.append(np.round(mp_e[fin], _DP))
    return {"w": np.concatenate(ws), "window_idx": np.concatenate(idxs),
            "mp": np.concatenate(mps)}


@emits(_SNIPPET_SCHEMA)
def snippet_checked_op(conv_id, batch, r, *, s_size: int = 16, w: int = 8):
    """find_snippet tied to SQL (SNIPPETS_CHECKED_SQL — round-3 verdict
    item 4), n_snippets=2: the oracle-order MPdist profile matrix
    ``M[s, i]`` is rebuilt from the exact z-distance matrix of the
    zero-padded series (mpdist_vect semantics,
    /root/reference/R/find-snippet.R:86-131 and mpdist.R:143-182: per-out-
    position k-th smallest of the candidate's sliding row minima plus its
    column minima, k = ceil(0.05·2·s_size)), ROUNDED to ``_DP`` before
    the greedy area-minimizing selection (ties → smallest start, matching
    SQL ORDER BY area, s); fractions use the reference's total_min−1 tie
    rule. ``snippet_op``'s rows (FFT mpdist_vect) are asserted in-op:
    identical snippet indices, fractions within ties/out_len (a position
    where both chosen rounded profiles tie exactly can flip sides under FFT
    last-ulp noise — the slack is the tie count)."""
    shipped = snippet_op(conv_id, batch, r, s_size=s_size, w=w)
    if shipped is None:
        return None
    x = list_cell(batch, r, _ORACLE_SIGNAL)
    pad = int(np.ceil(len(x) / s_size)) * s_size - len(x)
    padded = np.concatenate([x, np.zeros(pad)])
    z, ok = _z_windows(padded, w)
    # no exclusion band: every window pair counts
    D = np.sqrt(np.vstack([d2 for *_, d2 in _blocked_d2(z, z, ok)]))
    D[~ok] = np.inf
    m_sub = s_size - w + 1
    starts = np.arange(0, len(padded) - s_size, s_size)
    out_len = len(padded) - s_size + 1
    k = max(int(np.ceil(0.05 * 2 * s_size)), 1)
    M = np.empty((len(starts), out_len))
    swv = np.lib.stride_tricks.sliding_window_view
    for si, s in enumerate(starts):
        block = D[s : s + m_sub]                      # (m_sub × p)
        left = swv(block, m_sub, axis=1).min(axis=2)  # (m_sub × out_len)
        right = swv(block.min(axis=0), m_sub)         # (out_len × m_sub)
        vals = np.concatenate([left.T, right], axis=1)
        M[si] = np.sort(vals, axis=1)[:, k - 1]
    M = np.round(M, _DP)

    minis = np.full(out_len, np.inf)
    order: list[int] = []
    chosen = np.empty((2, out_len))
    for n in range(2):
        areas = np.minimum(M, minis).sum(axis=1)
        areas[order] = np.inf
        idx = int(np.argmin(areas))   # first min → smallest s on ties
        order.append(idx)
        minis = np.minimum(M[idx], minis)
        chosen[n] = M[idx]
    total_min = chosen.min(axis=0)
    fracs = []
    ties = int((chosen[0] == chosen[1]).sum())
    for i in range(2):
        a = chosen[i] <= total_min
        fracs.append(float(a.sum() / out_len))
        total_min = np.where(a, total_min - 1, total_min)

    o_idx = [int(starts[i]) for i in order]
    where = f"conv {conv_id}"
    _assert_agrees(shipped["snippet_idx"], o_idx, "snippet_op indices", where)
    _assert_agrees(shipped["fraction"], fracs, "snippet_op fractions", where,
                   slack=ties / out_len)
    return {"rank": np.arange(2, dtype=np.int64),
            "snippet_idx": np.asarray(o_idx, dtype=np.int64),
            "fraction": np.asarray(fracs, dtype=np.float64)}


@emits(_MPDIST_SCHEMA)
def mpdist_checked_pair_op(id_a, xa, id_b, xb, *, w: int):
    """MPdist tied to SQL (MPDIST_CHECKED_SQL): oracle-order per-window
    cross-distance minima from BOTH directions, concatenated, k-th smallest
    with k = ceil(0.05·(na+nb)) (/root/reference/R/mpdist.R:125-131,194-212).
    ``mpdist_pair_op``'s value is asserted against the oracle's. Pairs where
    fewer than k finite per-window minima exist emit nothing (the kernel
    returns Inf there)."""
    shipped = mpdist_pair_op(id_a, xa, id_b, xb, w=w)
    if shipped is None:
        return None
    abba = np.concatenate([_cross_min(xa, xb, w), _cross_min(xb, xa, w)])
    k = max(int(np.ceil(0.05 * (len(xa) + len(xb)))), 1)
    fin = np.sort(abba[np.isfinite(abba)])
    if len(fin) < k:
        return None
    val = float(fin[k - 1])
    _assert_agrees(shipped["mpdist"], [val], "mpdist_pair_op",
                   f"pair ({id_a}, {id_b})")
    return {"conv_a": [id_a], "conv_b": [id_b], "mpdist": [round(val, _DP)]}
