"""FLOSS — streaming semantic segmentation, replayed per conversation.

Engine analog of the reference's online loop (``floss()``
/root/reference/R/fluss.R:66-137: chunks of new points → ``stompi_update`` →
``floss_cac`` one-sided corrected arc counts → threshold extraction
``floss_extract`` fluss.R:163-230). ``FlossState`` holds one stream's state
(SURVEY.md §3.3): {tail buffer, profile arrays, cac_final, offset}; feed it
chunks with ``append`` for true streaming.

``floss_op`` is the per-conversation op that ``mining_stage.per_conv_stage``
runs over packed rows (one task per packed block): it replays a
conversation's whole ``tool_call`` series through a fresh ``FlossState`` in
the reference's 50-point chunks, so nothing is kept across conversations or
blocks. Keyed state that survives across micro-batches (and a checkpoint for
it) does not exist yet (ROADMAP item 6).

Ordering contract: a stream's chunks must arrive in turn order (the
engine's stable (conv_id, turn_idx) invariant). No watermark/late data —
matching the reference's in-order append assumption (SURVEY.md §2.10).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DEFAULT_EZ, EPS
from ..kernels.mining import floss_cac_online
from ..kernels.stompi import StreamingProfile
from .mining_stage import _keyed, emits
from .signals import list_cell


class FlossState:
    """One stream's FLOSS state; ``floss_op`` builds one per conversation."""

    def __init__(self, w: int, data_window: int, ez: float = DEFAULT_EZ,
                 threshold: float = 0.35):
        if data_window <= w:
            raise ValueError("data_window must exceed window_size")
        self.w = w
        self.ez = ez
        self.data_window = data_window
        self.threshold = threshold
        self.buffer = np.empty(0)
        self.sp: StreamingProfile | None = None
        self.cac_final: list[float] = []
        self.segments: list[int] = []
        self.seg_vals: list[float] = []
        self.seen = 0  # total points ever appended

    def append(self, new_data: np.ndarray, chunk: int = 50) -> None:
        new_data = np.atleast_1d(np.asarray(new_data, dtype=np.float64))
        for lo in range(0, len(new_data), chunk):
            self._append_chunk(new_data[lo : lo + chunk])

    def _append_chunk(self, x: np.ndarray) -> None:
        # each chunk extends cac_final by its length, read off the trailing
        # CAC window; a longer chunk would silently emit fewer points than
        # were appended and every later cac_final index would point at the
        # wrong stream position. Refuse it before any state moves, so a
        # caught refusal leaves the stream as it was.
        if self.sp is not None and len(x) > self.data_window - self.w + 1:
            raise ValueError(
                f"floss chunk of {len(x)} points exceeds the CAC window "
                f"(data_window - w + 1 = {self.data_window - self.w + 1}); "
                f"use a smaller chunk or a larger data_window")
        self.seen += len(x)
        if self.sp is None:
            self.buffer = np.concatenate([self.buffer, x])
            if len(self.buffer) >= max(2 * self.w, self.w + 2):
                self.sp = StreamingProfile(self.buffer, self.w, ez=self.ez,
                                           history_size=self.data_window)
            return
        self.sp.update(x)
        # one-sided CAC over the trailing window, online (Kumaraswamy) ideal
        pi = self.sp.profile.pi
        cac_size = min(len(pi), self.data_window - self.w + 1)
        pi_win = pi[-cac_size:].copy()
        base = len(pi) - cac_size
        valid = pi_win >= 0
        pi_win[valid] -= base
        cac = floss_cac_online(pi_win, self.w, cac_size,
                               online=self.sp.offset > 0, ez=self.ez)
        # extend the global cac record by the newly covered points
        # (len(x) <= cac_size: checked above)
        self.cac_final.extend(cac[-len(x):].tolist())
        self._extract(cac, base_offset=self.sp.offset + base)

    def _extract(self, cac: np.ndarray, base_offset: int) -> None:
        """Threshold extraction with exclusion handling (fluss.R:163-230)."""
        zone = int(round(self.w * self.ez * 10 + EPS))
        idx = int(np.argmin(cac))
        val = float(cac[idx])
        if val > self.threshold:
            return
        real = base_offset + idx
        if self.segments:
            last = self.segments[-1]
            if real <= last:
                return
            if real < last + zone:
                if val < self.seg_vals[-1]:
                    self.segments[-1] = real
                    self.seg_vals[-1] = val
                return
        self.segments.append(real)
        self.seg_vals.append(val)


@emits(_keyed(("n_segments", pa.int64()), ("segments", pa.list_(pa.int64()))))
def floss_op(conv_id, batch, r, *, w: int, data_window: int, threshold: float):
    """One conversation's ``tool_call`` series replayed through a fresh
    ``FlossState`` in 50-point chunks: its segment count and positions."""
    st = FlossState(w, data_window, threshold=threshold)
    st.append(list_cell(batch, r, "tool_call"))
    return {"n_segments": [len(st.segments)], "segments": [st.segments]}
