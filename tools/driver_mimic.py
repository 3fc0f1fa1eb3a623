"""Driver mimic: run every ``queries()`` entry of ``__ray_entry__`` in one
Ray session and record, per query, its row count, sorted columns and
dtypes, a sha256 of the canonicalized frame, and MATCH/MISMATCH against
``oracle_sql()`` (DuckDB over the scale directory's parquet tables).
``--compare`` diffs two such runs, e.g. a parent commit against a change.

    python tools/driver_mimic.py --sf <sf_dir> --out run.json
    python tools/driver_mimic.py --compare parent.json change.json

Exits non-zero on an oracle MISMATCH or query error (run mode) or on any
differing query (compare mode).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()
#: Ray session CPUs: the catalog runs in ≈70 s at 4 even on a 1-CPU host
CPUS = 4


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Column-sorted, row-sorted frame with floats as float64, ints as int64,
    datetimes as datetime64[us] and list/array cells as their value text
    (unhashable cells cannot be sorted) — the order-insensitive form both
    the oracle compare and the value hash read."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].map(lambda v: isinstance(v, (list, np.ndarray))).any():
            df[c] = df[c].map(lambda v: str(np.asarray(v).tolist()))
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype(np.float64)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, (ray.data.Dataset, pa.Table)):
        return res.to_pandas()
    return res


def frame_hash(df: pd.DataFrame) -> str:
    """sha256 of the canonical frame's CSV (floats at full precision)."""
    return hashlib.sha256(canon(df).to_csv(index=False).encode()).hexdigest()


def oracle_verdict(got: pd.DataFrame, want: pd.DataFrame) -> str:
    g, w = canon(got), canon(want)
    if list(g.columns) != list(w.columns):
        return f"MISMATCH columns {list(g.columns)} != {list(w.columns)}"
    if len(g) != len(w):
        return f"MISMATCH rows {len(g)} != {len(w)}"
    try:
        pd.testing.assert_frame_equal(g, w, check_dtype=False,
                                      check_exact=True)
    except AssertionError as e:
        return f"MISMATCH {str(e)[:300]}"
    return "MATCH"


def run(sf: str) -> dict:
    import duckdb
    import ray

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    import __ray_entry__ as entry

    qs, oracles = entry.queries(), entry.oracle_sql()
    out = {}
    try:
        for name, fn in qs.items():
            t0 = time.time()
            try:
                got = to_pandas(fn(sf))
                rec = {"rows": len(got),
                       "columns": sorted(got.columns),
                       "dtypes": {c: str(got[c].dtype)
                                  for c in sorted(got.columns)},
                       "sha256": frame_hash(got),
                       "seconds": round(time.time() - t0, 2)}
                if name in oracles:
                    rec["oracle"] = oracle_verdict(
                        got, con.sql(oracles[name]).df())
            except Exception as e:  # keep going: report every broken query
                out[name] = {"error": f"{type(e).__name__}: {e}"[:800]}
                print(f"{name:32s} ERROR {out[name]['error'][:120]}",
                      flush=True)
                continue
            out[name] = rec
            print(f"{name:32s} {rec['rows']:8d} rows {rec.get('oracle', '')}"
                  f"  {rec['seconds']}s", flush=True)
    finally:
        ray.shutdown()
    return out


def compare(a: dict, b: dict) -> list[str]:
    """Every query whose record differs between runs ``a`` and ``b`` (the
    timing aside), one line each."""
    diffs = []
    for name in sorted(set(a) | set(b)):
        ra, rb = a.get(name), b.get(name)
        if ra is None or rb is None:
            diffs.append(f"{name}: only in {'b' if ra is None else 'a'}")
            continue
        for key in sorted((set(ra) | set(rb)) - {"seconds"}):
            if ra.get(key) != rb.get(key):
                diffs.append(f"{name}: {key} {ra.get(key)!r} != "
                             f"{rb.get(key)!r}")
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sf", help="scale directory holding the parquet tables")
    ap.add_argument("--out", help="JSON file to write the run to")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        a, b = (json.load(open(p)) for p in args.compare)
        diffs = compare(a, b)
        print("\n".join(diffs) if diffs else
              f"{len(a)} queries: rows, columns, dtypes, hashes and oracle "
              f"verdicts equal")
        return 1 if diffs else 0
    if not (args.sf and args.out):
        ap.error("--sf and --out are required without --compare")
    sf, out_path = os.path.abspath(args.sf), os.path.abspath(args.out)
    # Ray workers resolve tsmp_ray from the driver's working directory
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    res = run(sf)
    with open(out_path, "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    n_oracle = sum("oracle" in r for r in res.values())
    n_match = sum(r.get("oracle") == "MATCH" for r in res.values())
    n_err = sum("error" in r for r in res.values())
    print(f"{len(res)} queries, {n_match}/{n_oracle} oracle rows MATCH, "
          f"{n_err} errors")
    return 0 if n_match == n_oracle and not n_err else 1


if __name__ == "__main__":
    sys.exit(main())
