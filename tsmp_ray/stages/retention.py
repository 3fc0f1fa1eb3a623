"""TTL-driven retention compaction over the tiered rollup store.

North-star requirement: "TTL-driven retention compaction". Each tier has a
TTL; a compaction pass drops expired buckets and rewrites only the partitions
that changed, updating the lineage manifest (so a later resume sees the
compacted state). The raw tier typically has the shortest TTL and coarser
tiers keep data longer — the classic downsample-retention policy.

``apply_retention`` is a streaming filter; ``compact`` is the
manifest-driven rewrite (Parquet footer statistics decide each partition;
only a straddling one is read → filtered → atomically replaced → manifest
updated with a ``compacted_at`` note).
"""

from __future__ import annotations

import logging
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state.lineage import Manifest, _content_hash

log = logging.getLogger("tsmp_ray")


def apply_retention(ds_tier, now_us: int, ttl_us: int):
    """Drop expired buckets (streaming filter)."""
    cutoff = now_us - ttl_us
    return ds_tier.filter(expr=f"bucket_ts >= {cutoff}")


def _footer_side(files: list[str], cutoff: int) -> tuple[int, str | None]:
    """(rows, side) from the files' Parquet footers alone. ``side`` is
    'after' when every row group's ``bucket_ts`` lies at or after ``cutoff``,
    'before' when every one lies before it, and None when a group straddles
    the cutoff, holds nulls or carries no statistics."""
    rows, after, before = 0, True, True
    for f in files:
        md = pq.read_metadata(f)
        col = [md.schema.column(j).path
               for j in range(md.num_columns)].index("bucket_ts")
        cut = pa.scalar(cutoff).cast(
            md.schema.to_arrow_schema().field("bucket_ts").type).as_py()
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            rows += rg.num_rows
            st = rg.column(col).statistics
            if (st is None or not st.has_min_max or not st.has_null_count
                    or st.null_count):
                after = before = False
                continue
            after = after and st.min >= cut
            before = before and st.max < cut
    return rows, "after" if after else "before" if before else None


def _refresh(man: Manifest, key: str, path: str, rows: int,
             cutoff: int) -> None:
    entry = dict(man.data["partitions"][key])
    entry.update(
        rows=rows,
        content_crc32=_content_hash(path),
        compacted_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        ttl_cutoff_us=cutoff,
    )
    man.record(key, entry)


def compact(out_dir: str, now_us: int, ttl_us: int) -> dict:
    """Manifest-driven retention rewrite of a resumable tier layout.

    Each completed partition is decided from its Parquet footers: if every
    row group's ``bucket_ts`` min is at or after the cutoff it is
    'unchanged'; if every row group's max is before it, the directory is
    renamed aside, dropped from the manifest and removed ('emptied'). Only a
    partition with a straddling row group, nulls or no statistics is read,
    filtered and rewritten as one ``part-0.parquet`` through a '.compact'
    tmp dir and a rename-aside promote ('compacted'); row order is kept.

    Two statuses report what recovery cannot explain. A crashed compact can
    only leave FEWER rows on disk than the manifest records (that entry is
    refreshed and reported 'compacted'); MORE rows on disk is 'mismatch',
    and the entry and files are left untouched. A partition whose directory
    and '.old' copy are both gone is 'missing': real loss, whose entry is
    dropped so reads of the rest still work. Both statuses also log a
    warning on the ``tsmp_ray`` logger naming the partition. A '<key>.old'
    with neither a manifest entry nor a live '<key>' can only be an empty
    drop that crashed before its final rmtree; it is removed.

    Records the run's counts and wall time as the manifest metric
    ``retention.last_compact``. Returns {partition: 'compacted'|'unchanged'|
    'emptied'|'mismatch'|'missing'}.
    """
    t0 = time.perf_counter()
    man = Manifest(out_dir)
    cutoff = now_us - ttl_us
    status: dict[str, str] = {}
    n_footer = n_read = n_rewritten = bytes_rewritten = 0
    for name in os.listdir(out_dir):
        key = name[:-len(".old")]
        if (name.endswith(".old") and key not in man.data["partitions"]
                and not os.path.exists(os.path.join(out_dir, key))):
            shutil.rmtree(os.path.join(out_dir, name))
    for key in sorted(man.data["partitions"]):
        path = os.path.join(out_dir, key)
        old, tmp = path + ".old", path + ".compact"
        # crash recovery: a previous compact that died between its renames
        # left the live data at path+'.old' — restore it first; a '.compact'
        # tmp is never live (the promoting rename is the commit point)
        if not os.path.exists(path) and os.path.exists(old):
            os.replace(old, path)
        shutil.rmtree(old, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.exists(path):
            log.warning("retention.compact: partition %s is missing (no "
                        "directory and no .old copy); dropping its manifest "
                        "entry", key)
            man.drop(key)
            status[key] = "missing"
            continue
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".parquet"))
        rows, side = _footer_side(files, cutoff)
        if side is None:
            n_read += 1
            # partitioning=None: hive discovery on the 'key=value' dir would
            # inject a dictionary column the file already holds
            tbl = pq.read_table(files, partitioning=None)
            ts = tbl["bucket_ts"]
            kept = tbl.filter(
                pc.greater_equal(ts, pa.scalar(cutoff).cast(ts.type)))
            rows, n_keep = tbl.num_rows, kept.num_rows
        else:
            n_footer += 1
            n_keep = rows if side == "after" else 0
        if n_keep == rows:
            recorded = man.data["partitions"][key]["rows"]
            if rows == recorded:
                status[key] = "unchanged"
            elif rows < recorded:
                # a previous run promoted its rewrite (tmp -> path) but
                # crashed before man.record — the on-disk partition is the
                # compacted one while the manifest still records the
                # pre-compaction rows/crc; refresh the entry now so
                # integrity consumers don't read the partition as corrupt
                _refresh(man, key, path, rows, cutoff)
                status[key] = "compacted"
            else:
                log.warning("retention.compact: partition %s holds %d rows "
                            "on disk but the manifest records %d; entry and "
                            "files left untouched", key, rows, recorded)
                status[key] = "mismatch"
            continue
        if n_keep == 0:
            # rename aside before dropping: a crash in this window leaves
            # '.old', which the preamble restores and re-decides as emptied
            os.replace(path, old)
            man.drop(key)
            shutil.rmtree(old)
            status[key] = "emptied"
            continue
        os.makedirs(tmp)
        part = os.path.join(tmp, "part-0.parquet")
        pq.write_table(kept, part)
        bytes_rewritten += os.path.getsize(part)
        # rename the live dir ASIDE (not rmtree) before promoting tmp: a
        # crash anywhere in this window leaves the rows on disk — either
        # still live, or at '.old' where the recovery preamble above
        # restores them on the next run
        os.replace(path, old)
        os.replace(tmp, path)
        shutil.rmtree(old)
        _refresh(man, key, path, n_keep, cutoff)
        n_rewritten += 1
        status[key] = "compacted"
    man.record_metric("retention.last_compact", {
        "footer_decided": n_footer,
        "read": n_read,
        "rewritten": n_rewritten,
        "bytes_rewritten": bytes_rewritten,
        "wall_s": round(time.perf_counter() - t0, 6),
    })
    return status
