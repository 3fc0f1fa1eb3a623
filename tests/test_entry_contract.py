"""Driver-contract mimic: run every queries() entry at sf0.001 and compare
the SQL-oracle subset against DuckDB with an order-insensitive, column-sorted
value comparison (the driver's check, approximated)."""

import duckdb
import pytest

from tools.driver_mimic import TABLES, oracle_verdict, to_pandas

SF = "/root/testdata/sf0.001"

#: no-oracle queries allowed to return zero rows at the tiny sf0.001 scale
#: (verified empirically); anything else returning 0 rows is a failure
MAY_BE_EMPTY_AT_SF0001: set[str] = set()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def test_all_queries_run_and_oracles_match(ray_session, con,
                                           schema_hash_failures):
    """Also: no query's shuffle input carries pandas schema metadata."""
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    assert set(oracles) <= set(qs)
    failures = []
    for name, fn in qs.items():
        try:
            got = to_pandas(fn(SF))
        except Exception as e:  # keep going: report ALL broken queries
            failures.append((name, f"EXECUTION ERROR: {e!r}"[:800]))
            continue
        assert got.shape[1] > 0  # a real schema came back
        if name not in oracles:
            # oracle rows get row-count checks below; no-oracle demos must
            # still produce rows (the old `len >= 0` could never fail) —
            # except the ones that are legitimately empty at sf0.001
            if len(got) == 0 and name not in MAY_BE_EMPTY_AT_SF0001:
                failures.append((name, "0 rows from a no-oracle query"))
            continue
        verdict = oracle_verdict(got, con.sql(oracles[name]).df())
        if verdict != "MATCH":
            failures.append((name, verdict))
    assert not failures, "\n\n".join(f"== {n}\n{m}" for n, m in failures)
    assert schema_hash_failures.n == 0


def test_entry_smoke(ray_session):
    import __ray_entry__ as entrymod

    res = to_pandas(entrymod.entry())
    assert len(res) > 0
    assert "bucket_ts" in res.columns


def test_trimmed_catalog_functions_still_run(ray_session):
    """The 50-row catalog hardening removed four redundant rows (their plans
    are fully gated by *_checked twins), but the functions stay public API —
    keep them runnable so they can't silently rot."""
    from tsmp_ray.pipelines.queries import (q_dist_profile, q_knn_ivf, q_pmp,
                                            q_valmod)

    for fn, col in ((q_knn_ivf, "query_id"), (q_pmp, "w"),
                    (q_valmod, "best_w"), (q_dist_profile, "window_idx")):
        got = to_pandas(fn(SF))
        assert len(got) > 0, fn.__name__
        assert col in got.columns, (fn.__name__, list(got.columns))


def test_engine_reads_no_environment_variables():
    """No hidden knobs: the engine's behaviour is set by its code and
    EngineConfig, never by the environment of the process that runs it."""
    import pathlib
    import re

    pkg = pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
    hits = [f"{path.relative_to(pkg.parent)}:{i}: {line.strip()}"
            for path in sorted(pkg.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"os\.environ|getenv", line)]
    assert not hits, "\n".join(hits)


def test_engine_makes_no_map_groups_call():
    """One keyed-shuffle plan: every keyed shuffle is ``sort(key)`` plus one
    block call, never ``groupby().map_groups`` (one Python call per
    group)."""
    import pathlib
    import re

    pkg = pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
    hits = [f"{path.relative_to(pkg.parent)}:{i}: {line.strip()}"
            for path in sorted(pkg.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\.map_groups\(", line)]
    assert not hits, "\n".join(hits)


def test_no_batch_udf_checks_for_an_empty_batch():
    """Ray passes every 0-row block around a pyarrow batch UDF (pinned by
    ``test_sort_map_never_calls_fn_on_an_empty_partition``), so no batch
    UDF under ``tsmp_ray/`` branches on an empty batch."""
    import pathlib
    import re

    pkg = pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
    hits = [f"{path.relative_to(pkg.parent)}:{i}: {line.strip()}"
            for path in sorted(pkg.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"batch\.num_rows\s*==\s*0|not batch\.num_rows\b"
                         r"|batch\.num_rows else\b", line)]
    assert not hits, "\n".join(hits)


def test_every_keyed_shuffle_is_sort_map():
    """One keyed-shuffle function: no Dataset ``.sort(`` under ``tsmp_ray/``
    outside ``signals.sort_map``, except ``conv_pair_stage``'s sort into
    ``profile_stage.per_block`` and the ``.sort(...).limit(...)`` top-n
    selections of ``queries.py`` (numpy and list sorts are not shuffles);
    and no pandas block format or pandas import under ``stages/``."""
    import ast
    import pathlib
    import re

    pkg = pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
    allowed = {("stages/signals.py", "sort_map"),
               ("stages/mining_stage.py", "conv_pair_stage")}
    hits = []
    for path in sorted(pkg.rglob("*.py")):
        rel = path.relative_to(pkg).as_posix()
        text = path.read_text()
        tree = ast.parse(text)
        top_n = {id(n.func.value) for n in ast.walk(tree)
                 if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute)
                 and n.func.attr == "limit"}
        for top in tree.body:
            for n in ast.walk(top):
                if not (isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "sort"):
                    continue
                if (isinstance(n.func.value, ast.Name)
                        and n.func.value.id == "np") \
                        or any(k.arg == "key" for k in n.keywords):
                    continue
                if (rel, getattr(top, "name", None)) in allowed or (
                        rel == "pipelines/queries.py" and id(n) in top_n):
                    continue
                hits.append(f"{rel}:{n.lineno}: .sort( outside sort_map")
        if rel.startswith("stages/"):
            hits += [f"{rel}:{i}: {line.strip()}"
                     for i, line in enumerate(text.splitlines(), 1)
                     if re.search(r"batch_format=[\"']pandas[\"']"
                                  r"|^\s*(import|from) pandas\b", line)]
    assert not hits, "\n".join(hits)



#: modules no entry point reaches, each kept for the tests that check it
TEST_ONLY_MODULES = {
    "tsmp_ray.pipelines.compute_api":
        "the reference's tsmp()/compute()/analyze() API, checked by the "
        "known-answer tests",
    "tsmp_ray.kernels.subset":
        "the reference's subset-window API, checked by its known answers",
    "tsmp_ray.state.serialize":
        "the reference's profile (de)serialization, round-trip tested",
    "tsmp_ray.kernels.floss_ref":
        "the reference-parity FLOSS loop the streaming FlossState is "
        "checked against",
    "tsmp_ray.sources.rdata":
        "the .rda reader that loads the reference's own datasets for the "
        "known-answer tests",
    "tsmp_ray.functions.registry":
        "the user extension surface; its built-ins are tested through "
        "kernel_stage",
    "tsmp_ray.functions": "the package holding only the registry",
}


def _imported_modules(path, module: str, modules: set[str]) -> set[str]:
    """The ``tsmp_ray`` modules (package ``__init__``s included) that the
    file ``path`` of ``module`` imports anywhere in its body."""
    import ast

    def with_parents(name: str) -> set[str]:
        parts = name.split(".")
        return {".".join(parts[:k]) for k in range(1, len(parts) + 1)} & modules

    is_pkg = path.name == "__init__.py"
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found |= with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # relative: drop ``level`` names; a package ``__init__`` is
                # its own first level
                parts = module.split(".")
                parts = parts[:len(parts) - node.level + is_pkg]
                base = ".".join(parts + ([base] if base else []))
            found |= with_parents(base)
            for alias in node.names:
                found |= with_parents(f"{base}.{alias.name}")
    return found


def test_every_engine_module_is_reached_from_an_entry_point():
    """No dead modules: every ``tsmp_ray`` module is imported, transitively
    and with package ``__init__``s counted, from ``__ray_entry__.py``,
    ``bench.py`` or ``perfbench/*.py`` — but for the named test-only
    modules, which must stay unreached (a reached one leaves the list)."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    files = {}
    for path in sorted((root / "tsmp_ray").rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    modules = set(files)
    todo = set()
    for path in [root / "__ray_entry__.py", root / "bench.py",
                 *sorted((root / "perfbench").glob("*.py"))]:
        todo |= _imported_modules(path, "", modules)
    reached: set[str] = set()
    while todo:
        mod = todo.pop()
        reached.add(mod)
        todo |= _imported_modules(files[mod], mod, modules) - reached
    assert set(TEST_ONLY_MODULES) <= modules
    assert sorted(modules - reached - set(TEST_ONLY_MODULES)) == []
    assert sorted(set(TEST_ONLY_MODULES) & reached) == []


def test_mining_ops_have_no_empty_schema_sentinel():
    """One op contract: every op declares its output schema once
    (``@emits``) and the stages type an empty block from it, so no op
    branches on a ``None`` conversation id and no stage calls an op with
    ``None`` arguments to get its schema."""
    import pathlib
    import re

    path = (pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
            / "stages" / "mining_stage.py")
    hits = [f"{path.name}:{i}: {line.strip()}"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\b(conv_id|id_a)\s+is\s+(not\s+)?None\b", line)
            or re.search(r"\bfn\(\s*None", line)]
    assert not hits, "\n".join(hits)

def test_checked_ops_build_pairwise_distances_in_one_core():
    """One oracle-order core: every ``*_checked`` op takes its pairwise
    z-distances from ``mining_stage._blocked_d2``; no other code in the
    module broadcasts z-windows against each other (``[:, None, :] -``),
    so the next checked op cannot regrow a private copy of the masking."""
    import ast
    import pathlib
    import re

    path = (pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
            / "stages" / "mining_stage.py")
    src = path.read_text()
    core = next(f for f in ast.parse(src).body
                if isinstance(f, ast.FunctionDef) and f.name == "_blocked_d2")
    hits = [f"{path.name}:{i}: {line.strip()}"
            for i, line in enumerate(src.splitlines(), 1)
            if re.search(r"None,\s*:\]\s*-", line)
            and not core.lineno <= i <= core.end_lineno]
    assert not hits, "\n".join(hits)


def test_engine_config_fields_are_read():
    """No dead knobs: every EngineConfig field is read (``.<field>``)
    somewhere in the engine outside config.py."""
    import dataclasses
    import pathlib
    import re

    from tsmp_ray.config import EngineConfig

    pkg = pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
    src = "\n".join(path.read_text() for path in sorted(pkg.rglob("*.py"))
                    if path.name != "config.py" or path.parent != pkg)
    unread = [f.name for f in dataclasses.fields(EngineConfig)
              if not re.search(rf"\.{f.name}\b", src)]
    assert not unread, f"EngineConfig fields nothing reads: {unread}"
