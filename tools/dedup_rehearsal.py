"""Many-doc dedup rehearsal (round-4 verdict item 6): run the minhash path
at the shape the sandbox tables never reach — ~1M short documents with a
planted near-dup rate — and record

1. the `_verify_jaccard` size gate's two plans (broadcast vs the forced
   sort-join it switches to past the 256 MB budget) — pair-identical,
2. wall time and found-pair count at the shape.

Deterministic generator (doc i duplicated with a one-token edit when
i % DUP_EVERY == 0 — near-dup rate 1/DUP_EVERY), built inside map_batches
from a range Dataset: nothing corpus-sized on the driver. Usage:

    python tools/dedup_rehearsal.py [n_docs]    # default 1_000_000
"""

import json
import os
import sys
import time

# script-location-relative, not cwd-relative: the tool must import tsmp_ray
# when launched from any directory
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# sandbox perf rule (CLAUDE.md): every entry point that times Ray work must
# set the malloc/hugetlb tuning BEFORE ray.init — glibc reads these only at
# process start, so re-exec once if unset (same mechanism as bench.py).
_MALLOC_TUNING = {
    "MALLOC_MMAP_THRESHOLD_": "1073741824",
    "MALLOC_TRIM_THRESHOLD_": "1073741824",
    "RAY_idle_worker_killing_time_threshold_ms": "600000",
    "GLIBC_TUNABLES": "glibc.malloc.hugetlb=1",
}
if os.environ.get("MALLOC_MMAP_THRESHOLD_") != "1073741824":
    os.environ.update(_MALLOC_TUNING)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import numpy as np
import pyarrow as pa

N_DOCS = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
DUP_EVERY = 50

_WORDS = np.array(
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango uniform victor "
    "whiskey xray yankee zulu".split())


def make_docs(batch: pa.Table) -> pa.Table:
    ids = batch["id"].to_numpy()
    out_id, out_txt = [], []
    for i in ids:
        rng = np.random.default_rng(int(i) // DUP_EVERY)  # pair shares a seed
        words = _WORDS[rng.integers(0, len(_WORDS), size=24)].tolist()
        if i % DUP_EVERY == 0 and i + 1 < N_DOCS:
            pass  # canonical copy
        elif i % DUP_EVERY == 1:
            words[5] = "edited"  # near dup of i-1's canonical text
        else:
            rng2 = np.random.default_rng(int(i) + 10_000_019)
            words = _WORDS[rng2.integers(0, len(_WORDS), size=24)].tolist()
        out_id.append(int(i))
        out_txt.append(" ".join(words))
    return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                     "text": pa.array(out_txt, pa.string())})


def main():
    import ray

    if not ray.is_initialized():
        # honor RAY_GRAFT_CPUS like bench.py so the recorded throughput is
        # comparable to bench numbers on the same box
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    from tsmp_ray.stages import dedup as dd

    ds = ray.data.range(N_DOCS).map_batches(
        make_docs, batch_format="pyarrow").materialize()

    # both verify plans at the many-doc shape: the default broadcast
    # (candidate texts are the near-dup subset — small) and the forced
    # sort-join (what the gate switches to past the 256 MB budget).
    # best-of-2 per plan, interleaved (single-shot timings are noise in this
    # sandbox — CLAUDE.md perf rule)
    walls: dict[str, list[float]] = {"broadcast": [], "join": []}
    counts: dict[str, int] = {}
    for _rep in range(2):
        for plan, kw in (("broadcast", {}), ("join", {"force_join": True})):
            t0 = time.time()
            pairs = dd.minhash_lsh_dedup(ds, threshold=0.5, **kw).materialize()
            walls[plan].append(time.time() - t0)
            counts[plan] = pairs.count()
    wall_bc, wall_join = min(walls["broadcast"]), min(walls["join"])
    n_pairs, n_pairs_j = counts["broadcast"], counts["join"]

    expect_planted = sum(1 for i in range(0, N_DOCS - 1, DUP_EVERY)
                         if (i + 1) % DUP_EVERY == 1)
    out = {
        "n_docs": N_DOCS,
        "wall_sec_broadcast": round(wall_bc, 1),
        "wall_sec_join": round(wall_join, 1),
        "docs_per_sec_broadcast": round(N_DOCS / wall_bc, 1),
        "pairs_found": n_pairs,
        "pairs_found_join": n_pairs_j,
        "planted_pairs": expect_planted,
        "broadcast_budget_mb": dd._BROADCAST_TEXT_BYTES // (1024 * 1024),
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
