"""Per-partition lineage manifest + resumable partitioned output.

"Resumable from checkpoint with per-partition lineage + metrics" (north_rule):

- Output layout: ``out_dir/<partition_key>=<value>/part-*.parquet`` — one
  directory per partition, written ATOMICALLY (tmp dir + rename), never one
  giant file.
- ``_manifest.json``: one entry per completed partition: inputs, row count,
  content hash, wall time, engine version — written after the partition's
  rename so a crash can never record an incomplete partition — and, once,
  the layout's Arrow schema.
- ``resumable_write``: skips partitions already recorded in the manifest, so
  a killed job rerun only does the missing work (tested by killing after
  tier-1 in tests/test_lineage.py).

The reference's analog is the anytime/partial machinery (`on.exit` best-so-far
/root/reference/R/stamp.R:158-169; PMP resumable input /root/reference/R/pmp.R:81-92)
— re-expressed as idempotent partition outputs + a manifest.
"""

from __future__ import annotations

import base64
import json
import os
import shutil
import time
import zlib


class Manifest:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "_manifest.json")
        os.makedirs(out_dir, exist_ok=True)
        if os.path.exists(self.path):
            with open(self.path) as f:
                self.data = json.load(f)
        else:
            self.data = {"partitions": {}, "metrics": {}}

    def done(self, partition: str) -> bool:
        return partition in self.data["partitions"]

    def record(self, partition: str, entry: dict) -> None:
        self.record_all({partition: entry})

    def record_all(self, entries: dict) -> None:
        """Record every ``partition -> entry`` with ONE manifest rewrite."""
        self.data["partitions"].update(entries)
        self._flush()

    def drop(self, partition: str) -> None:
        self.data["partitions"].pop(partition, None)
        self._flush()

    def record_metric(self, name: str, value) -> None:
        self.data["metrics"][name] = value
        self._flush()

    def _flush(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.data, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def _content_hash(path: str) -> int:
    crc = 0
    for root, _dirs, files in sorted(os.walk(path)):
        for fn in sorted(files):
            with open(os.path.join(root, fn), "rb") as f:
                while chunk := f.read(1 << 20):
                    crc = zlib.crc32(chunk, crc)
    return crc


def resumable_write(ds, out_dir: str, partition_col: str,
                    partition_values: list | None = None,
                    inputs: list[str] | None = None) -> dict:
    """Write ``ds`` partitioned by ``partition_col``; skip partitions already
    in the manifest. Returns {partition: 'written'|'skipped'}.

    ONE scan + one keyed shuffle (``signals.sort_map`` on ``partition_col``)
    writes every pending partition in parallel (round-1 shape filtered the
    full dataset once per value — O(partitions × scan), wrong for
    high-cardinality keys): the
    sort keeps each partition in one block, and one call per block writes
    each of its key runs (``signals.key_runs``). Each partition's directory
    is written atomically (tmp + rename) with a ``_SUCCESS`` marker;
    partitions completed by a crashed run are ADOPTED into the manifest on
    the next call instead of rewritten, so kill-resume granularity is per
    partition. The call records its adopted and written partitions with ONE
    manifest rewrite at its end (each ``_SUCCESS`` marker is the commit
    point, so a partition written but not yet recorded is adopted by the
    next call), and the first such rewrite stores the layout's Arrow schema,
    read from one partition's Parquet footer. A block is sorted by the
    partition column and then every other column before the write, making
    partition bytes deterministic under Ray's nondeterministic row order
    (byte-identical resume, tested). Workers write to ``out_dir`` directly —
    on a multi-node cluster this must be shared storage (the same
    assumption ``ds.write_parquet`` makes).
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..stages.signals import key_runs, sort_map

    man = Manifest(out_dir)
    recorded = {}  # partition -> entry, adopted or written by this call

    # adopt partitions a crashed run finished but never recorded. A
    # '<key>.tmp-<pid>' leftover also starts with '<partition_col>=' and
    # already holds _SUCCESS (written before the promoting rename), so a
    # crash in that window would otherwise adopt the tmp dir as a bogus
    # extra partition — read_partitioned would then return its rows twice.
    # Tmp leftovers are never adoptable (the rename is the commit point);
    # clear them so a rewrite by a different pid doesn't strand them.
    # retention.compact's '<key>.old' / '<key>.compact' leftovers are not
    # adoptable either ('.old' can hold the original _SUCCESS), but they are
    # kept: compact's recovery preamble restores '.old' while the live
    # directory is missing.
    for d in sorted(os.listdir(out_dir)):
        if (not d.startswith(f"{partition_col}=")
                or d.endswith((".old", ".compact"))):
            continue
        if ".tmp-" in d:
            shutil.rmtree(os.path.join(out_dir, d), ignore_errors=True)
            continue
        marker = os.path.join(out_dir, d, "_SUCCESS")
        if not man.done(d) and os.path.exists(marker):
            with open(marker) as f:
                recorded[d] = json.load(f)

    known = set(man.data["partitions"]) | set(recorded)
    if partition_values is None:
        partition_values = sorted(ds.unique(partition_col))
    status = {f"{partition_col}={v}": "skipped" for v in partition_values
              if f"{partition_col}={v}" in known}
    pending = [v for v in partition_values
               if f"{partition_col}={v}" not in known]
    val_set = pa.array(pending)

    def only_pending(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch[partition_col], value_set=val_set))

    def write_partition(part: pa.Table) -> dict:
        t0 = time.time()
        key = f"{partition_col}={part[partition_col][0].as_py()}"
        final = os.path.join(out_dir, key)
        tmp = f"{final}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(part, os.path.join(tmp, "part-0.parquet"))
        entry = {
            "inputs": inputs or [],
            "rows": part.num_rows,
            "content_crc32": _content_hash(tmp),
            "wall_sec": round(time.time() - t0, 3),
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
            json.dump(entry, f)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
        return {"partition": key, "entry": json.dumps(entry)}

    markers_schema = pa.schema([("partition", pa.string()),
                                ("entry", pa.string())])

    def write_block(batch: pa.Table) -> pa.Table:
        batch, bounds = key_runs(batch, [partition_col], [
            c for c in batch.column_names if c != partition_col])
        return pa.Table.from_pylist(
            [write_partition(batch.slice(lo, hi - lo))
             for lo, hi in zip(bounds[:-1], bounds[1:])], schema=markers_schema)

    markers = []
    if pending:
        markers = sort_map(ds.map_batches(only_pending,
                                          batch_format="pyarrow"),
                           partition_col, write_block).take_all()
    for m in markers:
        recorded[m["partition"]] = json.loads(m["entry"])
        status[m["partition"]] = "written"
    if recorded:
        if "schema" not in man.data:
            footer = pq.read_schema(os.path.join(
                out_dir, next(iter(recorded)), "part-0.parquet"))
            man.data["schema"] = base64.b64encode(
                footer.serialize().to_pybytes()).decode()
        man.record_all(recorded)
    return status


def read_partitioned(out_dir: str, partition_col: str):
    """Read a resumable layout back as one Dataset (manifest-listed parts);
    a 0-row Dataset of the layout's stored schema when the manifest lists
    no partition (e.g. after ``retention.compact`` emptied every one)."""
    import pyarrow as pa
    import ray

    man = Manifest(out_dir)
    paths = []
    for key in sorted(man.data["partitions"]):
        pdir = os.path.join(out_dir, key)
        paths.extend(sorted(os.path.join(pdir, f) for f in os.listdir(pdir)
                            if f.endswith(".parquet")))
    if paths:
        return ray.data.read_parquet(paths)
    if "schema" not in man.data:  # a layout no resumable_write recorded
        return ray.data.from_items([])
    return ray.data.from_arrow(pa.ipc.read_schema(pa.py_buffer(
        base64.b64decode(man.data["schema"]))).empty_table())
