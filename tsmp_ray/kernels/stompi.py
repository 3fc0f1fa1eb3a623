"""stompi — incremental (streaming) matrix profile updates.

Capability match for the reference's ``stompi_update``
(/root/reference/R/stompi.R:18-134): append new points to a series whose
profile is already computed, extend mp/pi/lmp/lpi/rmp/rpi exactly, optionally
truncate history to ``history_size`` points with an index ``offset`` so
external indices stay stable (stompi.R:98-117; caveat stompi.R:5-8: lmp/lpi
lose windows that fell off the left edge).

The seed profile is one ``blocked_mp`` self-join. Each new window
contributes one MASS distance profile over the grown series;
existing windows only ever improve through their *right* neighbors (appends
are strictly in-order — the engine's streaming invariant, SURVEY.md §2.10).
This object is the per-conv state held by ``stompi_op`` and by FLOSS, each
for one conversation's call.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_EZ, exclusion_zone, raise_if_bad_window
from .block_join import blocked_mp
from .mass import mass_pre, mass_v3
from .profile_types import MatrixProfile


class StreamingProfile:
    """Holds (data, profile, offset) for one series and applies appends."""

    def __init__(self, data: np.ndarray, w: int, ez: float = DEFAULT_EZ,
                 history_size: int | None = None):
        self.w = w
        self.ez = ez
        self.history_size = history_size
        self.offset = 0  # how many points have been dropped off the left
        self.data = np.asarray(data, dtype=np.float64).copy()
        raise_if_bad_window(len(self.data), w)  # stomp's refusals
        self.profile: MatrixProfile = blocked_mp(self.data, w, ez=ez)
        self._truncate()

    def update(self, new_data: np.ndarray) -> MatrixProfile:
        new_data = np.atleast_1d(np.asarray(new_data, dtype=np.float64))
        w, ez = self.w, self.ez
        zone = exclusion_zone(w, ez)
        x = np.concatenate([self.data, new_data])
        n2 = len(x)
        p_old = len(self.profile.mp)
        p_new = n2 - w + 1
        prof = self.profile

        def _extend(arr, fill):
            out = np.full(p_new, fill, dtype=arr.dtype)
            out[:p_old] = arr
            return out

        prof.mp = _extend(prof.mp, np.inf)
        prof.pi = _extend(prof.pi, -1)
        prof.lmp = _extend(prof.lmp, np.inf)
        prof.lpi = _extend(prof.lpi, -1)
        prof.rmp = _extend(prof.rmp, np.inf)
        prof.rpi = _extend(prof.rpi, -1)

        pre = mass_pre(x, w)
        for i in range(p_old, p_new):
            d, _ = mass_v3(pre, x[i : i + w])
            d[max(0, i - zone) : i + zone + 1] = np.inf
            if pre.skip[i]:
                d[:] = np.inf
            j = int(np.argmin(d))
            if np.isfinite(d[j]):
                prof.mp[i] = d[j]
                prof.pi[i] = j
            if i > 0:
                jl = int(np.argmin(d[:i]))
                if np.isfinite(d[jl]):
                    prof.lmp[i] = d[jl]
                    prof.lpi[i] = jl
            # new window i is a RIGHT neighbor candidate of every older window
            older = d[:i] < prof.rmp[:i]
            prof.rmp[:i][older] = d[:i][older]
            prof.rpi[:i][older] = i
            better = d[:i] < prof.mp[:i]
            prof.mp[:i][better] = d[:i][better]
            prof.pi[:i][better] = i

        self.data = x
        self.profile = prof
        self._truncate()
        return self.profile

    def _truncate(self) -> None:
        if self.history_size is None or len(self.data) <= self.history_size:
            return
        drop = len(self.data) - self.history_size
        self.data = self.data[drop:]
        self.offset += drop
        prof = self.profile
        for name in ("mp", "lmp", "rmp"):
            setattr(prof, name, getattr(prof, name)[drop:])
        for name in ("pi", "lpi", "rpi"):
            arr = getattr(prof, name)[drop:].copy()
            arr[arr >= 0] -= drop
            arr[arr < -1] = -1  # neighbor fell off the left edge
            setattr(prof, name, arr)
