"""Closed-loop benchmark of the rollup + matrix-profile engine.

One client in one process drives the engine's public functions: the next
pass starts when the previous one (and its output check) has finished. Set-up
(input, Ray session, warm pass) runs ``SETUP_REPS`` times and reports its
median; the last session stays up for the timed loop. See README.md for the
workloads, metrics and the layer -> end-to-end map.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import logging
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import checks, probes
from .tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: inputs, run records and Ray's temp dir; a short name because Ray's socket
#: paths live under it
WORK = os.path.join(ROOT, ".pb")

#: synthetic_transcripts arguments per workload. long-convs: mean_turns at
#: least 2 x max_turns pins every body conv at 2500 turns (n ~ 2500 is where
#: the blocked kernel runs below its big-n rate), so the p² work does not
#: move with the seed; conv 0 is forced to 12k turns, past the 10k shard
#: cut. many-short: Zipf-skewed 37-80 turns, all in the tiny profile bin.
SHAPES = {
    "long-convs": dict(n_convs=10, mean_turns=6000, long_conv_turns=12_000,
                       max_turns=2_500),
    "many-short": dict(n_convs=150, mean_turns=50, long_conv_turns=None,
                       max_turns=80),
    "retention-store": dict(n_convs=10, mean_turns=6000, long_conv_turns=12_000,
                            max_turns=2_500),
}
#: set-ups per run; each ends with a full untimed warm pass, which starts
#: and warms every Ray worker process the timed passes will use
SETUP_REPS = 2
#: brute-force-checked conversations per pass (plus the sharded one)
SAMPLED_CONVS = {"long-convs": 1, "many-short": 4}
#: retention: share of partitions whose rows all fall before the TTL cutoff
EXPIRED_SHARE = 0.4
CACHE_KEEP = 48
OBJECT_STORE_BYTES = 512 * 1024 * 1024

#: name -> (unit, better, bound); mirrored by BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pass_s": ("s", "lower", 0.25),
    "turns_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "compressed_bytes_per_point": ("B", "lower", 0.05),
    "stored_bytes_per_point": ("B", "lower", 0.1),
    "passed_frac": ("fraction", "higher", 0.05),
}

#: span name -> metric name of its self time
LAYER_SPANS = {
    "signals.pack": "signals.pack_s",
    "rollup.tiers": "rollup.tiers_s",
    "profile_stage.profiles": "profile_stage.profiles_s",
    "compression.pack": "compression.pack_s",
    "compression.unpack": "compression.unpack_s",
    "lineage.write": "lineage.write_s",
    "lineage.resume": "lineage.resume_s",
    "lineage.read": "lineage.read_s",
    "retention.compact": "retention.compact_s",
}
COUNTS = ("signals.convs", "rollup.points", "rollup.gap_points",
          "profile_stage.rows", "profile_stage.sharded_convs",
          "profile_stage.schema_warnings", "kernels.p2_units",
          "compression.bytes_out", "lineage.partitions",
          "lineage.bytes_written", "retention.compacted",
          "retention.unchanged", "retention.emptied", "retention.rows_dropped",
          "retention.bytes_rewritten")
PER_LAYER = {
    **{m: "s" for m in LAYER_SPANS.values()},
    "profile_stage.efficiency": "ratio",
    "profile_stage.overhead_s": "s",
    **{m: ("B" if "bytes" in m else "count") for m in COUNTS},
    **{f"kernels.blocked_units_per_s.n{n}": "1/s" for n in probes.RATE_LENGTHS},
    "kernels.mpx_units_per_s.n2500": "1/s",
    "trace.overhead_s": "s",
    "trace.pass_self_s": "s",
    "host.fault_probe_mb_s": "MB/s",
    "host.cpu_probe_units_s": "1/s",
}


# ------------------------------------------------------------ inputs

def transcripts_path(workload: str, seed: int, shape: dict) -> str:
    """Seeded synthetic transcripts as Parquet, cached under a key of
    (workload, seed, shape, generator source) so a generator change never
    serves stale input."""
    from tsmp_ray.sources.transcripts import synthetic_transcripts

    h = hashlib.sha256(json.dumps(shape, sort_keys=True).encode())
    h.update(inspect.getsource(synthetic_transcripts).encode())
    cache = os.path.join(WORK, "cache")
    path = os.path.join(cache, f"{workload}-seed{seed}-{h.hexdigest()[:16]}.parquet")
    if not os.path.exists(path):
        os.makedirs(cache, exist_ok=True)
        tbl = synthetic_transcripts(seed=seed, **shape)
        pq.write_table(tbl, path + ".tmp")
        os.replace(path + ".tmp", path)
        old = sorted((os.path.join(cache, f) for f in os.listdir(cache)),
                     key=os.path.getmtime)
        for f in old[:-CACHE_KEEP]:
            os.remove(f)
    return path


def parquet_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(root) for f in fs if f.endswith(".parquet"))


def packed_bytes(tbl: pa.Table) -> int:
    """Payload bytes of ``pack_rollup_series`` rows (DoD + Gorilla blobs)."""
    return int(pc.sum(pc.binary_length(tbl["ts_dod"])).as_py()
               + pc.sum(pc.binary_length(tbl["val_gorilla"])).as_py())


def to_table(ds) -> pa.Table:
    """A materialized Dataset as one Arrow table (empty, schema-less blocks
    dropped)."""
    import ray

    tbls = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tbls) if tbls else pa.table({})


# ------------------------------------------------------------ Ray session

class SchemaWarnings(logging.Handler):
    """Counts Ray Data's "RefBundle with a different schema" warnings."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "different schema" in record.getMessage():
            self.count += 1


def nproc() -> int:
    """CPUs as ``nproc`` counts them: OMP_NUM_THREADS (capped by
    OMP_THREAD_LIMIT) when set, else the CPUs this process may run on."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        first = os.environ.get(var, "").split(",")[0].strip()
        if first.isdigit() and int(first) > 0:
            n = int(first) if var == "OMP_NUM_THREADS" else min(n, int(first))
    return n


class Session:
    def __init__(self) -> None:
        self.ncpu = nproc()
        # Ray's AF_UNIX sockets sit at <tmp>/session_<date>_<pid>/sockets/
        # plasma_store, which must stay under 108 bytes; a checkout path too
        # long for that falls back to a private temp dir, removed at exit
        self.tmp = os.path.join(WORK, "ray")
        if len(self.tmp) > 43:
            self.tmp = tempfile.mkdtemp(prefix="pbray-", dir="/tmp")
        self.warnings = SchemaWarnings()
        self.up = False

    def start(self) -> None:
        import ray
        import ray.data

        ray.init(address="local", num_cpus=self.ncpu, include_dashboard=False,
                 log_to_driver=False, logging_level="ERROR",
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=self.tmp)
        ray.data.DataContext.get_current().enable_progress_bars = False
        lg = logging.getLogger("ray.data")
        if self.warnings not in lg.handlers:
            lg.addHandler(self.warnings)
        self.up = True

    def stop(self) -> None:
        import ray

        if not self.up:
            return
        kids = probes.descendants()
        ray.shutdown()
        probes.wait_gone(kids)
        self.up = False

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)


# ------------------------------------------------------------ workloads

class EngineWorkload:
    """long-convs / many-short: transcripts Parquet -> packed series -> tiers
    -> profiles -> Gorilla/DoD pack -> unpack, each step forced before the
    next so no work moves between spans."""

    def __init__(self, name: str, seed: int, tracer: Tracer):
        from tsmp_ray.config import EngineConfig
        from tsmp_ray.stages import profile_stage

        self.name, self.seed, self.tr = name, seed, tracer
        self.cfg = EngineConfig()
        self.shard_cut = min(getattr(profile_stage, "HEAVY_TURNS", 10_000),
                             self.cfg.salt_turn_threshold)
        self.last_1m = None

    def prepare(self) -> None:
        self.path = transcripts_path(self.name, self.seed, SHAPES[self.name])

    def ready(self) -> None:
        self.run_pass()

    def build_oracle(self) -> None:
        self.oracle = checks.engine_oracle(
            self.path, self.cfg.window_size, self.cfg.ez, self.cfg.tiers,
            self.shard_cut, SAMPLED_CONVS[self.name], self.seed)
        n = np.array(list(self.oracle.conv_turns.values()))
        self.turns = int(n.sum())
        w = self.cfg.window_size
        self.conv_p = (n - w + 1)[n >= 2 * w]
        self.conv_n = n[n >= 2 * w]

    def run_pass(self) -> dict:
        import ray.data
        from tsmp_ray.stages.compression import pack_rollup_series, unpack_series
        from tsmp_ray.stages.profile_stage import compute_profiles
        from tsmp_ray.stages.rollup import tiers_from_packed
        from tsmp_ray.stages.signals import pack_series

        cfg, tr = self.cfg, self.tr
        with tr.span("signals.pack"):
            packed = pack_series(ray.data.read_parquet(self.path)).materialize()
        with tr.span("rollup.tiers"):
            tiers = {t: ds.materialize() for t, ds in tiers_from_packed(
                packed, tiers=cfg.tiers, gap_fill=cfg.gap_fill,
                max_gap=cfg.gap_fill_max_buckets).items()}
        with tr.span("profile_stage.profiles"):
            profiles = compute_profiles(packed, cfg).materialize()
        with tr.span("compression.pack"):
            packed_1m = pack_rollup_series(tiers["1m"]).materialize()
        with tr.span("compression.unpack"):
            unpacked = packed_1m.map_batches(unpack_series,
                                             batch_format="pyarrow").materialize()
        return {"packed": packed, "tiers": tiers, "profiles": profiles,
                "packed_1m": packed_1m, "unpacked": unpacked}

    def check(self, out: dict) -> tuple[list[str], dict]:
        tbl = {"tiers": {t: to_table(ds) for t, ds in out["tiers"].items()},
               "profiles": to_table(out["profiles"]),
               "unpacked": to_table(out["unpacked"])}
        n_bytes = packed_bytes(to_table(out["packed_1m"]))
        points_1m = tbl["tiers"]["1m"].num_rows
        counts = {
            "signals.convs": out["packed"].count(),
            "rollup.points": sum(t.num_rows for t in tbl["tiers"].values()),
            "rollup.gap_points": sum(int(pc.sum(t["gap_filled"]).as_py())
                                     for t in tbl["tiers"].values()),
            "profile_stage.rows": tbl["profiles"].num_rows,
            "profile_stage.sharded_convs": int((self.conv_n > self.shard_cut).sum()),
            "kernels.p2_units": 3 * int((self.conv_p.astype(np.int64) ** 2).sum()),
            "compression.bytes_out": n_bytes,
            "compressed_bytes_per_point": n_bytes / points_1m,
        }
        self.last_1m = out["tiers"]["1m"]
        return checks.check_engine_pass(tbl, self.oracle), counts

    def kernel_cpu_s(self, rates: dict) -> float:
        """Σ p² ÷ single-core blocked rate at each conversation's length."""
        p2 = 3 * self.conv_p.astype(np.float64) ** 2
        return float((p2 / probes.blocked_rate_at(rates, self.conv_n)).sum())

    def sizes(self, recs: list[dict]) -> dict:
        from tsmp_ray.state.lineage import resumable_write

        out = {"compressed_bytes_per_point": statistics.median(
            r["counts"]["compressed_bytes_per_point"] for r in recs)}
        store = os.path.join(WORK, "store", "sizes")
        shutil.rmtree(store, ignore_errors=True)
        resumable_write(self.last_1m, store, "signal")
        out["stored_bytes_per_point"] = parquet_bytes(store) / self.last_1m.count()
        shutil.rmtree(store, ignore_errors=True)
        return out


class RetentionWorkload:
    """retention-store: the 1m tier of a long-convs-sized input, built in
    set-up; each pass writes it by conv_id into a fresh store, resumes the
    write (every partition skipped), compacts with a TTL cutoff and reads
    everything back with a scanned column sum."""

    def __init__(self, name: str, seed: int, tracer: Tracer):
        self.name, self.seed, self.tr = name, seed, tracer
        self.n_pass = 0

    def prepare(self) -> None:
        self.path = transcripts_path(self.name, self.seed, SHAPES[self.name])

    def ready(self) -> None:
        import ray.data
        from tsmp_ray.config import EngineConfig
        from tsmp_ray.stages.rollup import tiers_from_packed
        from tsmp_ray.stages.signals import pack_series

        cfg = EngineConfig()
        packed = pack_series(ray.data.read_parquet(self.path)).materialize()
        tier = to_table(tiers_from_packed(
            packed, tiers=cfg.tiers, gap_fill=cfg.gap_fill,
            max_gap=cfg.gap_fill_max_buckets)["1m"])
        self.tier = tier.sort_by(checks.TIER_KEY)
        self.tier_ds = ray.data.from_arrow(self.tier)
        g = self.tier.group_by("conv_id").aggregate(
            [("bucket_ts", "min"), ("bucket_ts", "max")]).sort_by("bucket_ts_min")
        k = int(EXPIRED_SHARE * g.num_rows)
        # the cutoff sits mid-way through conversation k (on a minute), so
        # that partition is compacted, not emptied or kept
        mid = (g["bucket_ts_min"][k].as_py() + g["bucket_ts_max"][k].as_py()) // 2
        self.cutoff = mid - mid % 60_000_000
        self.now_us = int(pc.max(self.tier["bucket_ts"]).as_py()) + 60_000_000
        self.run_pass("warm")

    def build_oracle(self) -> None:
        self.oracle = checks.retention_oracle(self.tier, "conv_id", self.cutoff)
        self.turns = pq.read_metadata(self.path).num_rows

    def run_pass(self, tag: str | None = None) -> dict:
        from ray.data.aggregate import Count, Sum
        from tsmp_ray.stages.retention import compact
        from tsmp_ray.state.lineage import Manifest, read_partitioned, resumable_write

        tr = self.tr
        store = os.path.join(WORK, "store", tag or f"p{self.n_pass}")
        self.n_pass += 1
        shutil.rmtree(store, ignore_errors=True)
        res = {"store": store}
        with tr.span("lineage.write"):
            res["write"] = resumable_write(self.tier_ds, store, "conv_id")
        res["bytes_written"] = parquet_bytes(store)
        rows_before = sum(e["rows"] for e in Manifest(store).data["partitions"].values())
        with tr.span("lineage.resume"):
            res["resume"] = resumable_write(self.tier_ds, store, "conv_id")
        with tr.span("retention.compact"):
            res["compact"] = compact(store, self.now_us, self.now_us - self.cutoff)
        with tr.span("lineage.read"):
            agg = read_partitioned(store, "conv_id").aggregate(Count(), Sum("n"))
        res["rows"], res["n_sum"] = int(agg["count()"]), int(agg["sum(n)"])
        res["rows_dropped"] = rows_before - res["rows"]
        if tag:
            shutil.rmtree(store, ignore_errors=True)
        return res

    def check(self, res: dict) -> tuple[list[str], dict]:
        store = res["store"]
        status = list(res["compact"].values())
        live_bytes = parquet_bytes(store)
        counts = {
            "lineage.partitions": len(res["write"]),
            "lineage.bytes_written": res["bytes_written"],
            "retention.compacted": status.count("compacted"),
            "retention.unchanged": status.count("unchanged"),
            "retention.emptied": status.count("emptied"),
            "retention.rows_dropped": res["rows_dropped"],
            "retention.bytes_rewritten": sum(
                parquet_bytes(os.path.join(store, k))
                for k, v in res["compact"].items() if v == "compacted"),
            "stored_bytes_per_point": live_bytes / max(res["rows"], 1),
        }
        problems = checks.check_retention_pass(res, store, self.oracle)
        shutil.rmtree(store, ignore_errors=True)
        return problems, counts

    def kernel_cpu_s(self, rates: dict) -> float:
        return 0.0

    def sizes(self, recs: list[dict]) -> dict:
        from tsmp_ray.stages.compression import pack_rollup_series

        n_bytes = packed_bytes(to_table(pack_rollup_series(self.tier_ds).materialize()))
        return {"compressed_bytes_per_point": n_bytes / self.tier.num_rows,
                "stored_bytes_per_point": statistics.median(
                    r["counts"]["stored_bytes_per_point"] for r in recs)}


WORKLOADS = {"long-convs": EngineWorkload, "many-short": EngineWorkload,
             "retention-store": RetentionWorkload}


# ------------------------------------------------------------ the run

def _median(vals, default: float = 0.0) -> float:
    vals = list(vals)
    return float(statistics.median(vals)) if vals else default


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from tsmp_ray.config import EngineConfig

    os.makedirs(WORK, exist_ok=True)
    tracer = Tracer()
    session = Session()
    wl = WORKLOADS[workload](workload, seed, tracer)
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": trace, "ncpu": session.ncpu}
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            if rep:
                session.stop()
            t0 = time.perf_counter()
            wl.prepare()
            session.start()
            wl.ready()
            setup_times.append(time.perf_counter() - t0)
        wl.build_oracle()
        record["host"] = {"host.fault_probe_mb_s": probes.fault_probe_mb_s(),
                          "host.cpu_probe_units_s": probes.cpu_probe_units_s()}
        recs = _loop(wl, session, tracer, seconds, trace)
        peak = probes.vm_hwm_mb([os.getpid()] + probes.ray_worker_pids())
        rates = probes.kernel_rates(EngineConfig().window_size) if trace else {}
        checked = [r for r in recs if r["counts"]]
        sizes = wl.sizes(checked) if checked else {}
    finally:
        session.close()

    failed = sum(not r["ok"] for r in recs)
    pass_s = _median(r["pass_s"] for r in recs)
    e2e = {
        "setup_s": _median(setup_times),
        "pass_s": pass_s,
        "turns_per_s": wl.turns / pass_s,
        "peak_rss_mb": peak,
        "compressed_bytes_per_point": sizes.get("compressed_bytes_per_point", 0.0),
        "stored_bytes_per_point": sizes.get("stored_bytes_per_point", 0.0),
        "passed_frac": (len(recs) - failed) / len(recs),
    }
    layers = _layer_metrics(wl, recs, rates, session.ncpu)
    layers.update(record["host"])
    record.update(setup_times=setup_times, end_to_end=e2e, per_layer=layers,
                  passes=[{k: r[k] for k in ("pass_s", "traced", "ok", "problems")}
                          for r in recs])
    out_dir = os.path.join(WORK, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    if trace:
        tracer.dump(stem + "-spans.json")
    for r in recs:
        for p in r["problems"]:
            print(f"perfbench: pass failed: {p}", file=sys.stderr)
    print(f"perfbench: {workload} seed {seed}: {len(recs)} passes, host "
          f"{record['host']}", file=sys.stderr)

    chosen = layers if trace else e2e
    units = PER_LAYER if trace else {k: v[0] for k, v in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(recs), "failed": failed,
            "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units}}


def _loop(wl, session: Session, tracer: Tracer, seconds: float,
          trace: bool) -> list[dict]:
    """Closed loop for ``seconds``. A traced run alternates untraced and
    traced passes (odd passes are traced) and runs at least three, so the
    tracing overhead is measured in-run without the first pass, which still
    pays some cold-start cost."""
    probes.reset_peak_rss([os.getpid()] + probes.ray_worker_pids())
    recs: list[dict] = []
    t_stop = time.perf_counter() + seconds
    while (not recs or time.perf_counter() < t_stop
           or (trace and len(recs) < 3)):
        i = len(recs)
        tracer.enabled, tracer.pass_id = trace and i % 2 == 1, i
        warn0 = session.warnings.count
        problems, counts = [], {}
        t0 = time.perf_counter()
        try:
            with tracer.span("pass"):
                out = wl.run_pass()
            dt = time.perf_counter() - t0
            warns = session.warnings.count - warn0
            problems, counts = wl.check(out)
            counts["profile_stage.schema_warnings"] = warns
        except Exception:  # a pass that raises is a failed pass, not a crash
            dt = time.perf_counter() - t0
            problems = [traceback.format_exc(limit=3)]
        tracer.enabled = False
        recs.append({"pass_s": dt, "traced": trace and i % 2 == 1,
                     "ok": not problems, "problems": problems, "counts": counts,
                     "self": tracer.self_times(i)})
    return recs


def _layer_metrics(wl, recs: list[dict], rates: dict, ncpu: int) -> dict:
    traced = [r for r in recs if r["traced"]]
    out = {m: _median(r["self"].get(s, 0.0) for r in traced)
           for s, m in LAYER_SPANS.items()}
    for c in COUNTS:
        v = _median(r["counts"].get(c, 0) for r in recs)
        out[c] = int(v) if float(v).is_integer() else v
    kcpu = wl.kernel_cpu_s(rates) if rates else 0.0
    eff = [kcpu / (r["self"]["profile_stage.profiles"] * ncpu)
           for r in traced if r["self"].get("profile_stage.profiles")]
    over = [r["self"]["profile_stage.profiles"] - kcpu / ncpu
            for r in traced if r["self"].get("profile_stage.profiles")]
    out["profile_stage.efficiency"] = _median(eff)
    out["profile_stage.overhead_s"] = _median(over)
    out.update(rates)
    untraced = [r["pass_s"] for r in recs[1:] if not r["traced"]]
    out["trace.overhead_s"] = (_median(r["pass_s"] for r in traced)
                               - _median(untraced)) if traced and untraced else 0.0
    out["trace.pass_self_s"] = _median(r["self"].get("pass", 0.0) for r in traced)
    return out
