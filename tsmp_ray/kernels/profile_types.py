"""Shared result container for matrix-profile kernels.

Engine analog of the reference's ``MatrixProfile`` S3 object
(``list(mp, pi, rmp, rpi, lmp, lpi, w, ez)`` — /root/reference/R/stomp.R:218-229).
Arrays are float64 (mp) / int64 (pi, sentinel -1); lengths = n - w + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import PI_SENTINEL


@dataclass
class MatrixProfile:
    mp: np.ndarray
    pi: np.ndarray
    w: int
    ez: float
    lmp: np.ndarray | None = None
    lpi: np.ndarray | None = None
    rmp: np.ndarray | None = None
    rpi: np.ndarray | None = None
    join: bool = False           # True for AB-join
    algorithm: str = ""
    # AB-join second-orientation profiles (mpx 'mpb'/'pib' — src/mpx.cpp:234-248)
    mpb: np.ndarray | None = None
    pib: np.ndarray | None = None
    extra: dict = field(default_factory=dict)

    def copy(self) -> "MatrixProfile":
        return MatrixProfile(
            mp=self.mp.copy(), pi=self.pi.copy(), w=self.w, ez=self.ez,
            lmp=None if self.lmp is None else self.lmp.copy(),
            lpi=None if self.lpi is None else self.lpi.copy(),
            rmp=None if self.rmp is None else self.rmp.copy(),
            rpi=None if self.rpi is None else self.rpi.copy(),
            join=self.join, algorithm=self.algorithm,
            mpb=None if self.mpb is None else self.mpb.copy(),
            pib=None if self.pib is None else self.pib.copy(),
            extra=dict(self.extra),
        )


def empty_profile(p: int, w: int, ez: float, *, directional: bool = True,
                  algorithm: str = "") -> MatrixProfile:
    mp = np.full(p, np.inf)
    pi = np.full(p, PI_SENTINEL, dtype=np.int64)
    prof = MatrixProfile(mp=mp, pi=pi, w=w, ez=ez, algorithm=algorithm)
    if directional:
        prof.lmp = np.full(p, np.inf)
        prof.lpi = np.full(p, PI_SENTINEL, dtype=np.int64)
        prof.rmp = np.full(p, np.inf)
        prof.rpi = np.full(p, PI_SENTINEL, dtype=np.int64)
    return prof


def corr_to_ed(c: np.ndarray, w: int) -> np.ndarray:
    """Pearson correlation -> z-normalized distance sqrt(2w(1-ρ)), ρ clamped
    at 1 (dot products may exceed it by an ulp); non-finite ρ -> inf."""
    cc = np.minimum(c, 1.0)
    with np.errstate(invalid="ignore"):
        d = np.sqrt(np.maximum(2.0 * w * (1.0 - cc), 0.0))
    d[~np.isfinite(cc)] = np.inf
    return d


def merge_min(a: MatrixProfile, b: MatrixProfile) -> MatrixProfile:
    """Elementwise min-merge of two partial profiles (argmin carries pi).

    The engine's combine step for salted / sharded kernels — same contract as
    the reference's driver-side merge of SNOW partials
    (/root/reference/R/stomp-par.R:249-264).
    """
    out = a.copy()
    for mp_name, pi_name in (("mp", "pi"), ("lmp", "lpi"), ("rmp", "rpi")):
        am, bm = getattr(a, mp_name), getattr(b, mp_name)
        if am is None or bm is None:
            continue
        ai, bi = getattr(a, pi_name), getattr(b, pi_name)
        take_b = bm < am
        m = np.where(take_b, bm, am)
        i = np.where(take_b, bi, ai)
        setattr(out, mp_name, m)
        setattr(out, pi_name, i)
    return out
