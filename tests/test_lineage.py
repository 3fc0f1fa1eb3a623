"""Resumable-output + retention-compaction tests (FIXTURES.md F3 retention):
partitioned atomic writes, manifest skip-on-rerun, byte-identical resume, TTL
compaction updating the manifest."""

import json
import os
import shutil

import numpy as np
import pytest

from tsmp_ray.sources.transcripts import synthetic_transcripts
from tsmp_ray.stages.rollup import rollup_from_signals
from tsmp_ray.stages.signals import derive_signals
from tsmp_ray.state.lineage import Manifest, read_partitioned, resumable_write


@pytest.fixture()
def tier_ds(ray_session):
    import ray

    tbl = synthetic_transcripts(n_convs=4, seed=20, mean_turns=80)
    return rollup_from_signals(derive_signals(ray.data.from_arrow(tbl)),
                               "1m").materialize()


def tree_bytes(d):
    out = {}
    for root, _dirs, files in sorted(os.walk(d)):
        for f in sorted(files):
            if f.startswith("_manifest"):
                continue
            p = os.path.join(root, f)
            out[os.path.relpath(p, d)] = open(p, "rb").read()
    return out


def test_resumable_write_and_resume(tier_ds, tmp_path):
    out = str(tmp_path / "tier1m")
    st1 = resumable_write(tier_ds, out, "signal")
    assert set(st1.values()) == {"written"}
    man = Manifest(out)
    assert len(man.data["partitions"]) == 3
    for entry in man.data["partitions"].values():
        assert entry["rows"] > 0 and "content_crc32" in entry

    # simulate a kill after the first partition: drop two partitions' manifest
    # entries + dirs, rerun → only those are rewritten, survivor untouched
    keys = sorted(man.data["partitions"])
    survivor = keys[0]
    before = tree_bytes(os.path.join(out, survivor))
    for k in keys[1:]:
        shutil.rmtree(os.path.join(out, k))
        man.drop(k)
    st2 = resumable_write(tier_ds, out, "signal")
    assert st2[survivor] == "skipped"
    assert all(v == "written" for k, v in st2.items() if k != survivor)
    after = tree_bytes(os.path.join(out, survivor))
    assert before == after  # byte-identical: untouched partition

    # full rerun: everything skipped
    st3 = resumable_write(tier_ds, out, "signal")
    assert set(st3.values()) == {"skipped"}

    # read back and compare FULL CONTENT to the source (a count+uniques
    # check passed on scrambled or duplicated-then-truncated data)
    import pandas as pd

    got = read_partitioned(out, "signal").to_pandas()
    want = tier_ds.to_pandas()
    keys = ["conv_id", "signal", "bucket_ts"]
    g = got.sort_values(keys).reset_index(drop=True)
    v = want[g.columns.tolist()].sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, v, check_dtype=False)


def test_retention_compaction(tier_ds, tmp_path, ray_session):
    from tsmp_ray.stages.retention import apply_retention, compact, mark_expired

    out = str(tmp_path / "tier1m")
    resumable_write(tier_ds, out, "signal")
    pdf = tier_ds.to_pandas()
    lo, hi = pdf["bucket_ts"].min(), pdf["bucket_ts"].max()
    ttl = int(hi - (lo + (hi - lo) * 0.4))  # expire oldest ~40%

    marked = mark_expired(tier_ds, now_us=int(hi), ttl_us=ttl).to_pandas()
    assert marked["ttl_expired"].any() and not marked["ttl_expired"].all()
    kept_stream = apply_retention(tier_ds, now_us=int(hi), ttl_us=ttl).count()

    status = compact(out, now_us=int(hi), ttl_us=ttl)
    assert set(status.values()) <= {"compacted", "unchanged", "emptied"}
    assert "compacted" in status.values()
    got = read_partitioned(out, "signal").to_pandas()
    assert len(got) == kept_stream
    assert (got["bucket_ts"] >= int(hi) - ttl).all()
    man = Manifest(out)
    for key, entry in man.data["partitions"].items():
        if status[key] == "compacted":
            assert "compacted_at" in entry

    # idempotent: second compaction changes nothing
    status2 = compact(out, now_us=int(hi), ttl_us=ttl)
    assert set(status2.values()) == {"unchanged"}


def test_kill_and_resume_subprocess(tmp_path):
    """North-rule resume check with a REAL kill: a subprocess writes the tier
    partition-by-partition and is SIGKILLed after the first partition lands;
    a rerun skips completed work and the final layout is byte-identical to an
    uninterrupted run."""
    import signal
    import subprocess
    import sys
    import time as _time

    script = tmp_path / "writer.py"
    out_a = tmp_path / "killed"
    out_b = tmp_path / "clean"
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script.write_text(f"""
import sys, time
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         ignore_reinit_error=True, logging_level="ERROR")
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
from tsmp_ray.sources.transcripts import synthetic_transcripts
from tsmp_ray.stages.rollup import rollup_from_signals
from tsmp_ray.stages.signals import derive_signals
from tsmp_ray.state.lineage import resumable_write

out_dir, slow = sys.argv[1], sys.argv[2] == "slow"
tbl = synthetic_transcripts(n_convs=4, seed=33, mean_turns=80)
tier = rollup_from_signals(derive_signals(ray.data.from_arrow(tbl)),
                           "1m").materialize()
for sig in ("text_len", "tool_call", "ts_delta"):
    resumable_write(tier, out_dir, "signal", partition_values=[sig])
    print("DONE", sig, flush=True)
    if slow:
        time.sleep(20)  # window for the kill
ray.shutdown()
""")
    env = dict(os.environ)
    # killed run: SIGKILL right after the first partition reports DONE
    proc = subprocess.Popen([sys.executable, str(script), str(out_a), "slow"],
                            stdout=subprocess.PIPE, text=True, env=env)
    t0 = _time.time()
    while _time.time() - t0 < 180:
        line = proc.stdout.readline()
        if line.startswith("DONE"):
            break
    proc.kill()
    proc.wait()
    man = Manifest(str(out_a))
    assert len(man.data["partitions"]) == 1  # exactly the finished partition

    # resume: completes the rest, skipping the survivor
    r = subprocess.run([sys.executable, str(script), str(out_a), "fast"],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    # clean run for comparison
    r2 = subprocess.run([sys.executable, str(script), str(out_b), "fast"],
                        capture_output=True, text=True, env=env, timeout=300)
    assert r2.returncode == 0, r2.stderr[-2000:]

    a = {k: v["rows"] for k, v in Manifest(str(out_a)).data["partitions"].items()}
    b = {k: v["rows"] for k, v in Manifest(str(out_b)).data["partitions"].items()}
    assert a == b and len(a) == 3
    crc_a = {k: v["content_crc32"]
             for k, v in Manifest(str(out_a)).data["partitions"].items()}
    crc_b = {k: v["content_crc32"]
             for k, v in Manifest(str(out_b)).data["partitions"].items()}
    assert crc_a == crc_b  # byte-identical partitions after resume


def test_compact_recovers_interrupted_rename(tier_ds, tmp_path, ray_session):
    """A compact killed between its two renames leaves the live partition at
    '<path>.old'; the next compact must restore it before reading (the old
    rmtree-then-replace sequence simply LOST those rows)."""
    from tsmp_ray.stages.retention import compact

    out = str(tmp_path / "tier1m")
    resumable_write(tier_ds, out, "signal")
    before = read_partitioned(out, "signal").to_pandas()
    hi = int(before["bucket_ts"].max())
    lo = int(before["bucket_ts"].min())

    man = Manifest(out)
    key = sorted(man.data["partitions"])[0]
    path = os.path.join(out, key)
    os.replace(path, path + ".old")  # simulate the crash window

    # ttl keeps everything: the restored partition must be byte-complete
    status = compact(out, now_us=hi, ttl_us=(hi - lo) + 1)
    assert status[key] == "unchanged"
    assert os.path.isdir(path) and not os.path.exists(path + ".old")
    after = read_partitioned(out, "signal").to_pandas()
    assert len(after) == len(before)


def test_compact_refreshes_manifest_after_promote_crash(tier_ds, tmp_path,
                                                        ray_session):
    """A compact killed between promoting tmp -> path and man.record leaves
    the COMPACTED rows on disk under the PRE-compaction manifest entry; the
    next run's n_keep == total takes the 'unchanged' branch, so it must
    detect the rows mismatch and refresh the entry (stale rows/crc would make
    any integrity consumer report the partition as corrupt forever)."""
    from tsmp_ray.stages.retention import compact
    from tsmp_ray.state.lineage import _content_hash

    out = str(tmp_path / "tier1m")
    resumable_write(tier_ds, out, "signal")
    pdf = tier_ds.to_pandas()
    lo, hi = int(pdf["bucket_ts"].min()), int(pdf["bucket_ts"].max())
    ttl = int(hi - (lo + (hi - lo) * 0.4))

    man = Manifest(out)
    stale_entries = {k: dict(v) for k, v in man.data["partitions"].items()}
    status = compact(out, now_us=hi, ttl_us=ttl)
    compacted = [k for k, v in status.items() if v == "compacted"]
    assert compacted
    key = compacted[0]
    # simulate the crash: disk state is post-compaction, manifest entry is
    # the pre-compaction one (rows too high, old crc, no compacted_at)
    man2 = Manifest(out)
    man2.record(key, stale_entries[key])

    status2 = compact(out, now_us=hi, ttl_us=ttl)
    assert status2[key] == "compacted"  # refreshed, not 'unchanged'
    entry = Manifest(out).data["partitions"][key]
    path = os.path.join(out, key)
    got = read_partitioned(out, "signal").to_pandas()
    on_disk = len(got[got[key.split("=")[0]] == key.split("=", 1)[1]])
    assert entry["rows"] == on_disk
    assert entry["content_crc32"] == _content_hash(path)
    assert "compacted_at" in entry


def test_compact_finishes_interrupted_empty_drop(tier_ds, tmp_path,
                                                 ray_session):
    """An empty drop renames the partition aside before man.drop; a compact
    killed in that window leaves the rows at '<path>.old' under a manifest
    entry that still lists them. The next run must restore the directory and
    re-decide it as emptied, not fail the read or report it lost."""
    from tsmp_ray.stages.retention import compact

    out = str(tmp_path / "tier1m")
    resumable_write(tier_ds, out, "signal")
    pdf = tier_ds.to_pandas()
    hi = int(pdf["bucket_ts"].max())

    man = Manifest(out)
    key = sorted(man.data["partitions"])[0]
    path = os.path.join(out, key)
    os.replace(path, path + ".old")  # crash window: dir aside, entry kept

    status = compact(out, now_us=hi + 1, ttl_us=0)  # everything expired
    assert set(status.values()) == {"emptied"}
    assert Manifest(out).data["partitions"] == {}
    assert not os.path.exists(path) and not os.path.exists(path + ".old")


def test_compact_reports_missing_partition(tier_ds, tmp_path, ray_session):
    """A partition whose directory and '.old' copy are both gone is real
    loss, not a finished empty drop: it is reported 'missing' and its entry
    is dropped so the surviving partitions still read back."""
    from tsmp_ray.stages.retention import compact

    out = str(tmp_path / "tier1m")
    resumable_write(tier_ds, out, "signal")
    pdf = tier_ds.to_pandas()
    lo, hi = int(pdf["bucket_ts"].min()), int(pdf["bucket_ts"].max())

    man = Manifest(out)
    key = sorted(man.data["partitions"])[0]
    lost_rows = man.data["partitions"][key]["rows"]
    shutil.rmtree(os.path.join(out, key))

    status = compact(out, now_us=hi, ttl_us=(hi - lo) + 1)  # keep-all ttl
    assert status[key] == "missing"
    assert key not in Manifest(out).data["partitions"]
    assert all(v == "unchanged" for k, v in status.items() if k != key)
    got = read_partitioned(out, "signal").to_pandas()
    assert len(got) == len(pdf) - lost_rows


def test_compact_mismatch_leaves_entry(tier_ds, tmp_path, ray_session):
    """A crashed compact can only leave FEWER rows on disk than recorded. A
    manifest entry recording fewer rows than the disk holds is unexplained:
    compact reports 'mismatch' and leaves the entry and the files alone."""
    from tsmp_ray.stages.retention import compact

    out = str(tmp_path / "tier1m")
    resumable_write(tier_ds, out, "signal")
    pdf = tier_ds.to_pandas()
    lo, hi = int(pdf["bucket_ts"].min()), int(pdf["bucket_ts"].max())

    man = Manifest(out)
    key = sorted(man.data["partitions"])[0]
    entry = dict(man.data["partitions"][key], rows=1)
    man.record(key, entry)
    before = tree_bytes(os.path.join(out, key))

    status = compact(out, now_us=hi, ttl_us=(hi - lo) + 1)  # keep-all ttl
    assert status[key] == "mismatch"
    assert Manifest(out).data["partitions"][key] == entry  # crc unchanged
    assert tree_bytes(os.path.join(out, key)) == before


def test_stale_tmp_dir_not_adopted(tier_ds, tmp_path, ray_session):
    """A '<key>.tmp-<pid>' leftover also starts with '<col>=' and already
    holds _SUCCESS (written before the promoting rename) — adoption must
    skip and clear it, not record it as a bogus extra partition whose rows
    read_partitioned would return twice."""
    out = str(tmp_path / "tier1m")
    resumable_write(tier_ds, out, "signal")
    n_rows = len(read_partitioned(out, "signal").to_pandas())

    man = Manifest(out)
    key = sorted(man.data["partitions"])[0]
    stale = os.path.join(out, key + ".tmp-99999")
    shutil.copytree(os.path.join(out, key), stale)  # crash leftover

    status = resumable_write(tier_ds, out, "signal")
    assert set(status.values()) == {"skipped"}
    man2 = Manifest(out)
    assert not any(".tmp-" in k for k in man2.data["partitions"])
    assert not os.path.exists(stale)
    assert len(read_partitioned(out, "signal").to_pandas()) == n_rows


def test_compact_old_leftover_not_adopted(tier_ds, tmp_path, ray_session):
    """A compact killed after promoting tmp -> path but before rmtree(old)
    leaves '<key>.old' holding a _SUCCESS marker. resumable_write must not
    adopt it as an extra partition (read_partitioned would return its rows
    twice) and must not delete it (compact's preamble may still need it)."""
    out = str(tmp_path / "tier1m")
    resumable_write(tier_ds, out, "signal")
    n_rows = len(read_partitioned(out, "signal").to_pandas())

    key = sorted(Manifest(out).data["partitions"])[0]
    leftover = os.path.join(out, key + ".old")
    shutil.copytree(os.path.join(out, key), leftover)

    status = resumable_write(tier_ds, out, "signal")
    assert set(status.values()) == {"skipped"}
    assert not any(k.endswith(".old") for k in Manifest(out).data["partitions"])
    assert os.path.isdir(leftover)
    assert len(read_partitioned(out, "signal").to_pandas()) == n_rows


MINUTE_US = 60_000_000


@pytest.fixture()
def conv_store(tmp_path, ray_session):
    """Four conv_id partitions of ten one-minute buckets each, laid end to
    end in time: conv a holds minutes 0-9, b 10-19, c 20-29, d 30-39."""
    import pyarrow as pa
    import ray

    convs = np.repeat(np.array(["a", "b", "c", "d"]), 10)
    tbl = pa.table({
        "conv_id": pa.array(convs),
        "bucket_ts": pa.array(np.arange(40, dtype=np.int64) * MINUTE_US,
                              pa.timestamp("us")),
        "v": pa.array(np.arange(40, dtype=np.float64) * 0.5),
    })
    out = str(tmp_path / "store")
    resumable_write(ray.data.from_arrow(tbl), out, "conv_id")
    return out, tbl


def test_compact_decides_from_footers(conv_store, monkeypatch):
    """Partitions wholly before or wholly after the cutoff are decided from
    Parquet footer statistics alone: with read_table disabled, compact still
    empties the expired ones and keeps the live ones."""
    import pyarrow.parquet as pq

    from tsmp_ray.stages.retention import compact

    out, _tbl = conv_store

    def no_reads(*_a, **_k):
        raise AssertionError("compact read partition data")

    monkeypatch.setattr(pq, "read_table", no_reads)
    status = compact(out, now_us=40 * MINUTE_US, ttl_us=20 * MINUTE_US)
    assert status == {"conv_id=a": "emptied", "conv_id=b": "emptied",
                      "conv_id=c": "unchanged", "conv_id=d": "unchanged"}
    man = Manifest(out)
    assert sorted(man.data["partitions"]) == ["conv_id=c", "conv_id=d"]
    metric = man.data["metrics"]["retention.last_compact"]
    assert metric["footer_decided"] == 4
    assert (metric["read"], metric["rewritten"], metric["bytes_rewritten"]) \
        == (0, 0, 0)
    assert metric["wall_s"] >= 0


def test_compact_fallback_is_exact(conv_store):
    """Partitions the footers cannot decide are read and filtered exactly:
    one rewritten without statistics, one split into small row groups of
    which only one straddles the cutoff. Statuses, manifest rows and the
    surviving rows equal a bucket_ts >= cutoff filter of the source."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from tsmp_ray.stages.retention import compact

    out, tbl = conv_store
    cutoff = 15 * MINUTE_US  # inside conv b, between its groups 13-15/16-18

    def rewrite(key, **kw):
        part = os.path.join(out, key, "part-0.parquet")
        pq.write_table(pq.read_table(part, partitioning=None), part, **kw)

    rewrite("conv_id=b", row_group_size=3)  # groups 10-12|13-15|16-18|19
    rewrite("conv_id=c", write_statistics=False)
    md = pq.read_metadata(os.path.join(out, "conv_id=b", "part-0.parquet"))
    assert md.num_row_groups == 4

    status = compact(out, now_us=cutoff + MINUTE_US, ttl_us=MINUTE_US)
    assert status == {"conv_id=a": "emptied", "conv_id=b": "compacted",
                      "conv_id=c": "unchanged", "conv_id=d": "unchanged"}
    metric = Manifest(out).data["metrics"]["retention.last_compact"]
    assert (metric["footer_decided"], metric["read"], metric["rewritten"]) \
        == (2, 2, 1)

    want = tbl.filter(pc.greater_equal(
        tbl["bucket_ts"], pa.scalar(cutoff, pa.timestamp("us"))))
    man = Manifest(out)
    for key, entry in man.data["partitions"].items():
        conv = key.split("=", 1)[1]
        part = want.filter(pc.equal(want["conv_id"], conv))
        files = sorted(f for f in os.listdir(os.path.join(out, key))
                       if f.endswith(".parquet"))
        got = pq.read_table([os.path.join(out, key, f) for f in files],
                            partitioning=None)
        assert entry["rows"] == got.num_rows == part.num_rows
        assert got.to_pydict() == part.to_pydict()  # row order kept
    assert sum(e["rows"] for e in man.data["partitions"].values()) \
        == want.num_rows
