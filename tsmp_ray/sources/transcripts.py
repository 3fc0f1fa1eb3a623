"""Transcript sources.

Two ways to obtain the engine's primary input table
``(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us])`` (BASELINE.json input_hint):

1. :func:`synthetic_transcripts` — deterministic seeded generator following
   FIXTURES.md F1: Zipf-skewed turn counts (exercises salting), text lengths
   carrying planted motifs + a discord, tool-call bursts with a regime change,
   cadence with an injected >1h gap (exercises gap-fill). Rows are emitted
   SHUFFLED so every consumer must re-establish stable (conv_id, turn_idx)
   order.

2. :func:`transcripts_from_events` — canonical derivation from the driver's
   ``events`` table so DuckDB oracles can compute the identical table in SQL:

       conv_id  = 'c' || user_id
       turn_idx = row_number() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) - 1
       role     = CASE turn_idx % 2 WHEN 0 THEN 'user' ELSE 'assistant' END
       text     = props
       tool     = CASE WHEN event_type IN ('click','purchase')
                       THEN event_type ELSE '' END
       ts       = ts

   (see :data:`TRANSCRIPTS_FROM_EVENTS_SQL`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..stages.signals import key_runs, sort_map

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

#: tools considered tool-call turns in the events derivation
TOOL_EVENT_TYPES = ("click", "purchase")

#: the canonical SQL view of the derivation, used by every oracle query
TRANSCRIPTS_FROM_EVENTS_SQL = """
SELECT 'c' || CAST(user_id AS VARCHAR) AS conv_id,
       CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1
            AS INTEGER) AS turn_idx,
       CASE WHEN (row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1) % 2 = 0
            THEN 'user' ELSE 'assistant' END AS role,
       props AS text,
       CASE WHEN event_type IN ('click', 'purchase') THEN event_type ELSE '' END AS tool,
       ts
FROM events
"""


def read_parquet_plain(path: str, columns: list[str] | None = None):
    """Ray Dataset of a Parquet file under its own fields, without the
    file's schema metadata. Files written from pandas carry that metadata
    (a dict), which Ray's shuffles cannot hash when they deduplicate block
    schemas ("Failed to hash the schemas"); reading under the bare fields
    drops it inside the read, at the cost of one footer read here."""
    import ray.data

    fields = pads.dataset(path, format="parquet").schema
    columns = list(columns or fields.names)
    return ray.data.read_parquet(
        path, columns=columns,
        schema=pa.schema([fields.field(c) for c in columns]))


def _transcript_block(batch: pa.Table) -> pa.Table:
    """Every user of one ``user_id``-sorted block -> its transcript rows:
    one stable (user_id, ts, event_id) sort, ``turn_idx`` as the row's
    offset from its run start, and every column one vectorized op."""
    batch, bounds = key_runs(batch, ["user_id"], ["ts", "event_id"])
    turn = (np.arange(batch.num_rows)
            - np.repeat(bounds[:-1], np.diff(bounds))).astype(np.int32)
    et = batch["event_type"]
    return pa.table(
        {
            "conv_id": pc.binary_join_element_wise(
                "c", pc.cast(batch["user_id"], pa.string()), ""),
            "turn_idx": pa.array(turn),
            "role": pc.if_else(pa.array(turn % 2 == 0), "user", "assistant"),
            "text": batch["props"],
            "tool": pc.if_else(
                pc.is_in(et, value_set=pa.array(TOOL_EVENT_TYPES)), et, ""),
            "ts": batch["ts"],
        },
        schema=TRANSCRIPT_SCHEMA,
    )


def transcripts_from_events(sf_dir: str):
    """Ray Dataset of transcripts derived from ``events.parquet``.

    The plan is ``signals.sort_map`` on ``user_id`` with
    ``_transcript_block``, as in ``signals.pack_series``; the
    window-function ranking is the run offset after a stable
    (ts, event_id) sort — the ordering the SQL view uses. Column pruning at the read, which also drops the file's schema
    metadata before the shuffle.
    """
    ds = read_parquet_plain(f"{sf_dir}/events.parquet",
                            ["event_id", "ts", "user_id", "event_type", "props"])
    return sort_map(ds, "user_id", TRANSCRIPT_SCHEMA, _transcript_block)


_WORDS = np.array(
    "the data batch stream window query table row value key scan join filter "
    "agg sort merge spark ray arrow block shard tier rollup gap fill conv turn "
    "tool call model plan run exec wait read write".split()
)


def synthetic_transcripts(
    n_convs: int = 20,
    seed: int = 42,
    mean_turns: int = 200,
    long_conv_turns: int | None = None,
    max_turns: int | None = None,
    start_ts_us: int = 1_704_067_200_000_000,  # 2024-01-01T00:00:00Z
) -> pa.Table:
    """Deterministic synthetic transcript table (FIXTURES.md F1).

    Per conv: turn counts ~ Zipf-ish (one conv can be forced huge via
    ``long_conv_turns``); ``len(text)`` follows a sinusoid + noise with an
    embedded repeated text-length motif and one discord window; ``tool``
    bursts flip rate at a regime-change turn; ``ts`` gaps follow a base
    cadence with one injected >1h gap. Rows are returned globally shuffled.
    """
    rng = np.random.default_rng(seed)
    cols: dict[str, list] = {k: [] for k in
                             ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
    for ci in range(n_convs):
        cap = max_turns if max_turns is not None else mean_turns * 40
        n = int(np.clip(rng.zipf(1.6) * mean_turns // 4 + mean_turns // 2,
                        16, cap))
        if long_conv_turns is not None and ci == 0:
            n = long_conv_turns
        conv = f"conv{ci:06d}"
        idx = np.arange(n, dtype=np.int32)

        # --- text lengths: sinusoid + noise + motif + discord
        tl = (40 + 25 * np.sin(idx / 9.0) + rng.standard_normal(n) * 6).clip(4, None)
        w = 16
        if n >= 8 * w:
            motif = 40 + 35 * np.sin(np.linspace(0, 3 * np.pi, w))
            for pos in (n // 8, (5 * n) // 8):
                tl[pos : pos + w] = motif + rng.standard_normal(w)
            dpos = (3 * n) // 8
            tl[dpos : dpos + w] = np.linspace(8, 120, w)[::-1]
        lengths = tl.astype(np.int64)

        # --- tool bursts with a regime change at n//2
        p_tool = np.where(idx < n // 2, 0.08, 0.45)
        is_tool = rng.random(n) < p_tool
        tools = np.where(is_tool, rng.choice(["search", "code", "fetch"], size=n), "")

        # --- timestamps: base cadence + jitter + one >1h gap
        gaps = rng.gamma(2.0, 15.0, size=n) * 1e6  # ~30s mean, µs
        if n > 20:
            gaps[n // 2] += 2 * 3600 * 1e6  # 2h silence at the regime change
        ts = start_ts_us + np.int64(ci) * 86_400_000_000 + np.cumsum(gaps).astype(np.int64)

        # --- text: deterministic pseudo-words reaching the target length.
        # A fixed word-salad template sliced per turn (C-level slicing) keeps
        # generation O(total_chars) — the signal content lives in len(text).
        template = " ".join(_WORDS[rng.integers(0, len(_WORDS), size=64)])
        template = (template + " ") * (int(lengths.max()) // len(template) + 2)
        texts = [template[: max(1, int(ln))] for ln in lengths]

        roles = np.where(is_tool, "tool",
                         np.where(idx % 2 == 0, "user", "assistant"))

        cols["conv_id"].append(np.full(n, conv))
        cols["turn_idx"].append(idx)
        cols["role"].append(roles)
        cols["text"].append(np.array(texts, dtype=object))
        cols["tool"].append(tools)
        cols["ts"].append(ts)

    tbl = pa.table(
        {
            "conv_id": pa.array(np.concatenate(cols["conv_id"]), pa.string()),
            "turn_idx": pa.array(np.concatenate(cols["turn_idx"]).astype(np.int32)),
            "role": pa.array(np.concatenate(cols["role"]), pa.string()),
            "text": pa.array(np.concatenate(cols["text"]), pa.string()),
            "tool": pa.array(np.concatenate(cols["tool"]), pa.string()),
            "ts": pa.array(np.concatenate(cols["ts"]), pa.timestamp("us")),
        }
    )
    # emit shuffled: consumers must re-establish stable (conv_id, turn_idx)
    perm = rng.permutation(tbl.num_rows)
    return tbl.take(pa.array(perm))
