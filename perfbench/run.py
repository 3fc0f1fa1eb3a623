"""Benchmark entry point.

    python3 perfbench/run.py --workload long-convs --seed 1 --seconds 12 --trace 0

Run from the repository root. Prints one JSON object as the last line of
standard output: ``correct``, ``attempted`` (timed passes), ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). A per-run record with the host probes goes to
``.pb/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The same allocator and worker environment bench.py uses, set identically on
# every run: a 1 GiB mmap threshold keeps large numpy buffers on the reused
# heap, THP-advised arenas make first touch cheap, and idle Ray workers are
# not culled mid-run. glibc reads these at process start, hence the re-exec;
# Ray workers inherit them.
ENV = {
    "MALLOC_MMAP_THRESHOLD_": "1073741824",
    "MALLOC_TRIM_THRESHOLD_": "1073741824",
    "RAY_idle_worker_killing_time_threshold_ms": "600000",
    "GLIBC_TUNABLES": "glibc.malloc.hugetlb=1",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["long-convs", "many-short", "retention-store"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "tsmp_ray", "__init__.py")):
        print("perfbench: the engine package tsmp_ray is not in this checkout",
              file=sys.stderr)
        return 2
    # temp files of the libraries the run loads stay inside the checkout
    tmp = os.path.join(ROOT, ".pb", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.environ.update(ENV)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    # Ray workers import the engine (and this package) from the checkout root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, ROOT)
    from perfbench.harness import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
