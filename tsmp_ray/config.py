"""Engine-wide configuration and numeric constants.

Mirrors the reference's global options (``/root/reference/R/zzz.R:1-15``:
``tsmp.exclusion_zone = 1/2``) and eps convention
(``/root/reference/R/misc.R:1102-1107``: ``eps = .Machine$double.eps^0.5``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: sqrt of float64 machine epsilon — the reference's ``vars()$eps``
#: (/root/reference/R/misc.R:1103). Used for degenerate-window (flat) detection
#: and exclusion-zone rounding.
EPS: float = float(np.sqrt(np.finfo(np.float64).eps))

#: default trivial-match exclusion-zone fraction for self-joins
#: (/root/reference/R/zzz.R:6, /root/reference/R/stomp.R:56).
DEFAULT_EZ: float = 0.5

#: sentinel for "no neighbor" profile index (reference uses -Inf / NA;
#: we use -1 in int64 columns, documented in SURVEY.md §4.3).
PI_SENTINEL: int = -1

#: kmode constant from the reference (/root/reference/R/misc.R:1104-1106).
KMODE: float = 0.6311142


def session_cpus() -> int:
    """Session CPU count for shard-planner fanouts, at least 2 so tiny
    sessions still split heavy conversations; falls back to 8 when Ray
    isn't up (planning outside a session)."""
    try:
        import ray

        cpus = (int(ray.cluster_resources().get("CPU", 8))
                if ray.is_initialized() else 8)
    except Exception:  # pragma: no cover — ray import/cluster race
        cpus = 8
    return max(2, cpus)


def exclusion_zone(window_size: int, ez: float = DEFAULT_EZ) -> int:
    """Trivial-match exclusion radius: ``round(w * ez + eps)``.

    Reference: /root/reference/R/stomp.R:56 (self-join), 0 for AB-joins.
    """
    return int(round(window_size * ez + EPS))


def raise_if_too_short(n: int, w: int, *, ceiling: bool,
                       what: str = "time series") -> None:
    """The reference's too-short guard, single-sourced (the kernels mirror
    their own reference file's convention — two exist):

    - ``ceiling=True``: refuse ``w > ceil(n/2)`` (stomp.R:95-97,
      scrimp.R:95-97, stamp.R:106-108) — but NOT ``w > n``, which those
      kernels report as "longer than series" (pinned message).
    - ``ceiling=False``: refuse ``2*w > n`` outright (mstomp.R:101-103,
      simple.R:116-121, valmod.R:96-98 use plain ``n/2``).
    """
    if ceiling:
        bad = n >= w > (n + 1) // 2
    else:
        bad = 2 * w > n
    if bad:
        raise ValueError(
            f"{what} is too short relative to desired window size")


def raise_if_bad_window(n: int, w: int) -> None:
    """stomp's self-join refusals, kept by the ops that seeded with it
    (fluss, sdts training, the streaming profile): ``w < 4`` (stomp.R:48)
    and the too-short band ``w > ceil(n/2)`` (stomp.R:95-97)."""
    if w < 4:
        raise ValueError("window_size must be at least 4")
    raise_if_too_short(n, w, ceiling=True)


# Rollup tier definitions: name -> bucket width in microseconds.
TIERS: dict[str, int] = {
    "1m": 60 * 1_000_000,
    "1h": 3600 * 1_000_000,
    "1d": 86400 * 1_000_000,
}

#: the three per-conversation signals derived from a transcript
SIGNALS: tuple[str, ...] = ("ts_delta", "text_len", "tool_call")


@dataclass
class EngineConfig:
    """Top-level knobs for the Ray Data pipelines."""

    window_size: int = 8
    ez: float = DEFAULT_EZ
    # convs with more turns than this are sharded across tasks: a
    # near-threshold conv is a multi-second serial task that would set the
    # stage wall, the shard fan-out turns it into ~0.25 s units (an LPT
    # block-reorder was measured instead and lost, 25.1 s vs 18.1 s:
    # BASELINE.md round 5)
    salt_turn_threshold: int = 10_000
    # rollup
    tiers: tuple[str, ...] = ("1m", "1h", "1d")
    gap_fill: bool = True
    # interpolate across at most this many empty buckets (scale guard)
    gap_fill_max_buckets: int = 60
