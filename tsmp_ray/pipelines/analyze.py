"""Flagship pipeline — the engine's ``analyze()`` preset (reference:
``analyze()`` → compute → motifs → discords, /root/reference/R/analyze.R:44-73,
re-hosted per SURVEY.md §7.0):

    read transcripts
      → add_turn_features (stateless, zero-copy Arrow)
      → sort(conv_id) packed, stable-ordered series   [THE shuffle]
      → tier rollup raw→1m→1h→1d (+ gap-fill)          [per-conv, no shuffle]
      → pack (delta-of-delta ts + Gorilla values)
      → matrix profiles (actor pool, salted long convs)
      → per-conv motif/discord/segment extraction
      → write tiers + profiles (resumable layout) or return Datasets
"""

from __future__ import annotations

from ..config import EngineConfig
from ..stages.profile_stage import compute_profiles
from ..stages.rollup import tiers_from_packed
from ..stages.signals import pack_series, unpack_signals


def analyze(ds_transcripts, cfg: EngineConfig | None = None):
    """Full pipeline on a transcript Dataset. Returns dict of Datasets:
    signals, tiers (1m/1h/1d), profiles, mining.

    ONE ``sort(conv_id)`` shuffle total: the packed-series rows are the
    shuffle's output; the tiers, profiles and mining read them directly, and
    the wide signal rows are recovered from them by a stateless explode
    (``unpack_signals``) — the raw transcript table is scanned exactly
    once."""
    cfg = cfg or EngineConfig()
    packed = pack_series(ds_transcripts).materialize()
    signals = unpack_signals(packed)
    tiers = tiers_from_packed(packed, tiers=cfg.tiers, gap_fill=cfg.gap_fill,
                              max_gap=cfg.gap_fill_max_buckets)
    profiles = compute_profiles(packed, cfg)
    mining = mining_results(packed, cfg)
    return {"signals": signals, "tiers": tiers, "profiles": profiles,
            "mining": mining}


def mining_results(ds_packed, cfg: EngineConfig):
    """Distributed per-conv mining (motifs/discords/segment) — map_batches
    tasks over packed rows; replaces the round-1 driver-side pandas loop."""
    from ..stages.mining_stage import mining_op, per_conv_stage

    return per_conv_stage(ds_packed, mining_op,
                          {"w": cfg.window_size, "ez": cfg.ez})
