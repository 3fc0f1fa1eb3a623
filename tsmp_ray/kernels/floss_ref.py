"""Reference-parity FLOSS driver: the exact chunking + cac_final bookkeeping
of the reference's ``floss()`` (/root/reference/R/fluss.R:66-137,385-455,
163-230), kept SEPARATE from the engine's streaming stage
(stages/floss_stage.py) which uses simpler per-chunk extraction. This module
exists so the engine can reproduce the reference's published FLOSS answers on
the reference's own data (test-fluss.R:20-33) — the known-answer gate.

All indices returned are 0-based (reference is 1-based; conversions noted).
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_EZ, KMODE, exclusion_zone
from .mining import floss_cac_online
from .stompi import StreamingProfile

__all__ = ["floss_ref"]


def _floss_cac(sp: StreamingProfile, data_window: int, new_data_size: int,
               cac_final: list[float]) -> np.ndarray:
    """fluss.R:385-455 — one-sided CAC over the trailing window
    (:func:`floss_cac_online`) + append the mode-centered slice of length
    new_data_size to cac_final."""
    w, ez = sp.w, sp.ez
    profile_size = len(sp.profile.mp)
    cac_size = data_window - w + 1
    base = max(profile_size - cac_size, 0)  # R: profile_size-cac_size+1
    # R's window ends zone+1 short of the profile (exclusive bound); pi is
    # rebased to the window, arcs leaving it are dropped
    pi = sp.profile.pi[base : profile_size - exclusion_zone(w, ez) - 1]
    cac = floss_cac_online(pi - base, w, cac_size, online=sp.offset > 0,
                           ez=ez)
    # mode-centered slice appended (fluss.R:439-448); R mid_idx is 1-based
    mode = KMODE if sp.offset > 0 else 0.5
    mid_idx = int(round(cac_size * mode)) - new_data_size // 2 - 1
    cac_final.extend(cac[mid_idx : mid_idx + new_data_size].tolist())
    return cac


def floss_ref(seed_data: np.ndarray, new_data: np.ndarray, data_window: int,
              w: int, ez: float = DEFAULT_EZ, threshold: float = 1.0) -> dict:
    """fluss.R:66-137 with a batch-profile seed. Returns
    {'floss': [0-based segment positions], 'floss_vals', 'cac', 'cac_final'}."""
    seed_data = np.asarray(seed_data, dtype=np.float64)
    new_data = np.asarray(new_data, dtype=np.float64)
    sp = StreamingProfile(seed_data, w, ez=ez, history_size=data_window)
    data_size = len(seed_data)

    # catch-up: grow to data_window before chunked streaming (fluss.R:79-88)
    if data_size < data_window:
        take = min(data_window - data_size, len(new_data))
        sp.update(new_data[:take])
        new_data = new_data[take:]
        data_size += take

    chunk = min(data_size // 2, 50, data_window // 2)
    cac_final: list[float] = []
    cac_size = data_window - w + 1
    head_len = None  # NA head of cac_final, fixed at the FIRST floss_cac
    # (fluss.R:442-446): cac_final index i (1-based) aligns series position i

    cac = np.ones(cac_size)
    for lo in range(0, len(new_data), chunk):
        piece = new_data[lo : lo + chunk]
        sp.update(piece)
        if head_len is None:
            mode = 0.5 if sp.offset == 0 else KMODE
            head_len = int(round(data_window * (mode - 1) - len(piece) / 2
                                 + len(sp.data) - w * mode)) + sp.offset
        cac = _floss_cac(sp, data_window, len(piece), cac_final)

    # floss_extract (fluss.R:163-230): one extraction over
    # tail(cac_final, -offset); real position = idx + offset (1-based) —
    # cac_final coordinates ARE series coordinates (NA head aligns them).
    vals = np.asarray(cac_final)
    offset = sp.offset
    # appended values occupy cac_final positions head_len+1.. (1-based);
    # tail(-offset) keeps positions offset+1.., i.e. appended[offset-head_len:]
    slice_start = max(offset - head_len, 0)
    tail_vals = vals[slice_start:]
    cac_masked = np.where(tail_vals > threshold, np.nan, tail_vals)
    segments: list[int] = []
    seg_vals: list[float] = []
    if len(cac_masked) and not np.all(np.isnan(cac_masked)):
        idx = int(np.nanargmin(cac_masked))
        segments.append(offset + idx)  # 0-based (R: idx_1based + offset)
        seg_vals.append(float(cac_masked[idx]))
    return {"floss": segments, "floss_vals": seg_vals, "cac": cac,
            "cac_final": vals, "head_len": head_len}
