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


def test_engine_starts_no_actor_pool():
    """Every stage is a stateless task: no call in the package passes a
    ``concurrency`` keyword (Ray's actor-pool sizing) and no class under
    ``stages/`` is callable (``map_batches`` runs a callable class as an
    actor pool). An AST scan, so docstrings and comments do not count."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
    hits = []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text())
        where = path.relative_to(pkg.parent)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and any(
                    kw.arg == "concurrency" for kw in node.keywords):
                hits.append(f"{where}:{node.lineno}: concurrency=")
            if (path.parent.name == "stages"
                    and isinstance(node, ast.ClassDef)
                    and any(isinstance(f, ast.FunctionDef)
                            and f.name == "__call__" for f in node.body)):
                hits.append(f"{where}:{node.lineno}: class {node.name} "
                            "defines __call__")
    assert not hits, "\n".join(hits)


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



#: modules no entry point reaches, each kept for the tests that check it:
#: reference algorithms stay in ``kernels/`` even when only their
#: known-answer tests call them
TEST_ONLY_MODULES = {
    "tsmp_ray.kernels.floss_ref":
        "the reference-parity FLOSS loop the streaming FlossState is "
        "checked against",
    "tsmp_ray.sources.rdata":
        "the .rda reader that loads the reference's own datasets for the "
        "known-answer tests",
    "tsmp_ray.kernels.scrimp":
        "SCRIMP++/PRE-SCRIMP and STAMP, the reference's anytime kernels, "
        "checked against stomp and brute force",
    "tsmp_ray.kernels.simple":
        "SiMPle-Fast, the reference's non-normalized multidim kernel, "
        "checked against a naive oracle and its known answers",
    "tsmp_ray.kernels.stomp":
        "STOMP, the reference's exact self-join and AB join, the kernel the "
        "agreement, known-answer and golden-digest tests check the others "
        "against (every engine profile runs block_join.blocked_mp)",
}

#: public kernel and stage functions no engine or entry code references,
#: each kept for the tests that use it (reference operators stay in
#: ``kernels/`` when only their known-answer tests call them)
TEST_ONLY_FUNCTIONS = {
    "tsmp_ray.stages.compression.encode_timestamps":
        "the one-run timestamp codec call the byte-pin tests use",
    "tsmp_ray.stages.compression.encode_gorilla":
        "the one-run value codec call the byte-pin tests use",
    "tsmp_ray.kernels.mining.av_apply":
        "the reference's annotation re-rank, checked by the mining tests",
    "tsmp_ray.kernels.mining.av_zerocrossing":
        "a reference annotation vector, checked against its known answers",
    "tsmp_ray.kernels.mining.av_motion_artifact":
        "a reference annotation vector, checked against its known answers",
    "tsmp_ray.kernels.mining.av_stop_word":
        "a reference annotation vector, checked against its known answers",
    "tsmp_ray.kernels.mining.av_hardlimit_artifact":
        "a reference annotation vector, checked against its known answers",
    "tsmp_ray.kernels.mining.find_chains_multidim":
        "chains per mstomp dimension row, checked by the multidim tests",
    "tsmp_ray.kernels.mining.find_multidim_motifs":
        "the reference's multidim motif search, checked against its known "
        "answers",
    "tsmp_ray.kernels.mining.fluss_score":
        "the reference's segmentation score, used by the FLUSS tests",
    "tsmp_ray.kernels.mining.pmp_upper_bound":
        "the reference's pan-MP window bound, checked against its known "
        "answers",
    "tsmp_ray.kernels.movstats.corr_ed":
        "a reference math helper, checked against ed_corr",
    "tsmp_ray.kernels.movstats.ed_corr":
        "a reference math helper, checked against its known answers",
    "tsmp_ray.kernels.movstats.diff_lag":
        "a reference math helper, checked by the movstats tests",
    "tsmp_ray.kernels.movstats.ipaa":
        "the reference's inverse PAA, checked against its known answers",
    "tsmp_ray.kernels.movstats.mode":
        "a reference math helper, checked against its known answers",
    "tsmp_ray.kernels.movstats.mov_mean":
        "a moving statistic the movstats and property tests check "
        "mov_stats against",
    "tsmp_ray.kernels.movstats.mov_std":
        "a moving statistic the property tests check mov_stats against",
    "tsmp_ray.kernels.movstats.movmax":
        "the reference's moving max, checked by the movstats tests",
    "tsmp_ray.kernels.movstats.muinvn":
        "mpx's moving mean and inverse norm, checked by the movstats tests",
    "tsmp_ray.kernels.salient.salient_mds":
        "the reference's salient-window MDS plot data, checked by the "
        "salient tests",
    "tsmp_ray.kernels.salient.salient_score":
        "the reference's salient precision/recall score, checked by the "
        "salient tests",
}


def _engine_files(root) -> dict:
    """Every ``tsmp_ray`` module (package ``__init__``s included) -> path."""
    files = {}
    for path in sorted((root / "tsmp_ray").rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return files


def _entry_files(root) -> list:
    return [root / "__ray_entry__.py", root / "bench.py",
            *sorted((root / "perfbench").glob("*.py"))]


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
    files = _engine_files(root)
    modules = set(files)
    todo = set()
    for path in _entry_files(root):
        todo |= _imported_modules(path, "", modules)
    reached: set[str] = set()
    while todo:
        mod = todo.pop()
        reached.add(mod)
        todo |= _imported_modules(files[mod], mod, modules) - reached
    assert set(TEST_ONLY_MODULES) <= modules
    assert sorted(modules - reached - set(TEST_ONLY_MODULES)) == []
    assert sorted(set(TEST_ONLY_MODULES) & reached) == []


def test_every_public_stage_function_is_referenced():
    """No dead functions inside reached modules: every public top-level def
    or class of ``kernels/``, ``stages/``, ``state/``, ``sources/`` and
    ``pipelines/`` is referenced (an AST name, attribute or imported name) from engine or
    entry code outside its own body. References from the test-only modules
    do not count; the named test-only functions must stay unreferenced."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    files = _engine_files(root)
    refs: dict[str, list] = {}
    for path in [p for m, p in files.items() if m not in TEST_ONLY_MODULES
                 ] + _entry_files(root):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    unreferenced = []
    for mod, path in files.items():
        if mod in TEST_ONLY_MODULES or not mod.startswith(tuple(
                f"tsmp_ray.{d}." for d in ("kernels", "stages", "state",
                                           "sources", "pipelines"))):
            continue
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            if not any(p != path or not first <= line <= node.end_lineno
                       for p, line in refs.get(node.name, [])):
                unreferenced.append(f"{mod}.{node.name}")
    assert sorted(unreferenced) == sorted(TEST_ONLY_FUNCTIONS), \
        "\n".join(sorted(unreferenced))


def test_engine_runs_one_profile_kernel():
    """``block_join.blocked_mp`` is every engine profile: no ``tsmp_ray``
    module outside the test-only ones imports ``kernels.stomp`` or
    ``kernels.mpx``, and no engine code names the deleted kernel fork
    (``use_blocked``, ``auto_profile``). The module-reach guard cannot see
    this: perfbench's kernel-rate probe keeps ``kernels.mpx`` reached."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    files = _engine_files(root)
    banned = {"tsmp_ray.kernels.stomp", "tsmp_ray.kernels.mpx"}
    hits = []
    for mod, path in files.items():
        if mod in TEST_ONLY_MODULES or mod in banned:
            continue
        where = path.relative_to(root)
        hits += [f"{where}: imports {name}" for name in sorted(
            _imported_modules(path, mod, set(files)) & banned)]
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if isinstance(name, str) and name.rsplit(".", 1)[-1] in (
                    "use_blocked", "auto_profile"):
                hits.append(f"{where}:{node.lineno}: {name}")
    assert not hits, "\n".join(hits)


def test_subpackage_inits_import_nothing():
    """A package ``__init__`` that re-exports its modules makes each of them
    look reached from any import of the package, so no ``tsmp_ray``
    subpackage ``__init__.py`` imports anything."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"
    hits = [f"{path.relative_to(pkg.parent)}:{node.lineno}"
            for path in sorted(pkg.rglob("__init__.py")) if path.parent != pkg
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not hits, "\n".join(hits)


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


#: each checked op that a shipped op's row gates -> (that shipped op, the
#: kernels the shipped op wraps, which the checked op must not call again)
CHECKED_SHIPPED = {
    "stompi_checked_op": ("stompi_op", {"StreamingProfile"}),
    "abjoin_checked_pair_op": ("abjoin_pair_op", {"blocked_mp"}),
    "mpdist_checked_pair_op": ("mpdist_pair_op", {"mpdist"}),
    "mstomp_checked_op": ("mstomp_op", {"mstomp"}),
    "snippet_checked_op": ("snippet_op", {"find_snippet"}),
    "motifs_checked_op": ("mining_op", {"blocked_mp", "find_motifs",
                                        "find_discords"}),
}


def test_checked_rows_run_the_shipped_code():
    """The oracle rows gate the code that ships: ``q_profiles_checked``
    runs ``compute_profiles``; each checked op above calls its shipped op
    and none of the kernels that op wraps (a second, ungated copy of the
    job); and no mining-stage def takes an ``atol`` (the gates share one
    tolerance, ``mining_stage._ATOL``)."""
    import ast
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent / "tsmp_ray"

    def defs(path):
        return {f.name: f for f in ast.walk(ast.parse(path.read_text()))
                if isinstance(f, ast.FunctionDef)}

    def names(node):
        return {getattr(n, "id", None) or getattr(n, "attr", None)
                for n in ast.walk(node)}

    query = defs(pkg / "pipelines" / "queries.py")["q_profiles_checked"]
    calls = {getattr(c.func, "id", None) or getattr(c.func, "attr", None)
             for c in ast.walk(query) if isinstance(c, ast.Call)}
    bad = [] if "compute_profiles" in calls else [
        "q_profiles_checked does not call compute_profiles"]
    ops = defs(pkg / "stages" / "mining_stage.py")
    for op, (shipped, kernels) in CHECKED_SHIPPED.items():
        used = names(ops[op])
        if shipped not in used:
            bad.append(f"{op} does not call {shipped}")
        bad += [f"{op} calls {k} again" for k in sorted(kernels & used)]
    bad += [f"{name} takes atol" for name, f in ops.items()
            if "atol" in {a.arg for a in f.args.args + f.args.kwonlyargs}]
    assert not bad, "\n".join(bad)


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


def test_materialize_shared_ctes_rules():
    """The oracle-SQL rewriter: multiply-referenced CTEs get MATERIALIZED,
    single-reference and self-referencing (recursive) CTEs are left alone,
    and WINDOW clauses never match the definition pattern — the rules the
    whole ORACLES dict relies on (row-identity A/B'd per oracle; this pins
    the regex mechanics against future SQL edits)."""
    from tsmp_ray.pipelines.queries import ORACLES, _materialize_shared_ctes

    sql = (
        "WITH RECURSIVE head AS (SELECT 1 AS x)\n"
        ", shared AS (SELECT x FROM head)\n"
        ", single AS (SELECT x + 1 AS y FROM shared)\n"
        ", walk AS (SELECT x FROM shared UNION ALL"
        " SELECT x + 1 FROM walk WHERE x < 3)\n"
        "SELECT shared.x, w.x, s.y, avg(shared.x) OVER win\n"
        "FROM shared, walk w, single s\n"
        "WINDOW win AS (PARTITION BY shared.x)"
    )
    out = _materialize_shared_ctes(sql)
    # shared: 4 refs -> materialized; head: 1 ref (shared's body) ->
    # untouched; walk: self-referencing -> untouched; single: 1 ref ->
    # untouched; WINDOW untouched
    assert ", shared AS MATERIALIZED (" in out
    assert out.count("MATERIALIZED") == 1
    assert "walk AS (" in out and "single AS (" in out
    assert "head AS (" in out
    assert "WINDOW win AS (PARTITION" in out
    # a multiply-referenced WITH-head CTE is covered too, and a WITH-head
    # that is itself the recursive member stays untouched
    out2 = _materialize_shared_ctes(
        "WITH base AS (SELECT 1 AS x)\n, a AS (SELECT x FROM base)\n"
        "SELECT a.x FROM a, base")
    assert "WITH base AS MATERIALIZED (" in out2
    rec = ("WITH RECURSIVE r AS (SELECT 1 AS x UNION ALL"
           " SELECT x + 1 FROM r WHERE x < 3)\nSELECT * FROM r, r AS r2")
    assert _materialize_shared_ctes(rec) == rec
    # a comma-separated multi-entry WINDOW clause: the 2nd+ entries start
    # with ', ' (the definition alternative) but are masked out — neither
    # gets MATERIALIZED even when referenced by several OVER clauses
    multi_win = (
        "WITH shared AS (SELECT 1 AS x)\n"
        ", other AS (SELECT 2 AS y)\n"
        "SELECT avg(s2.x) OVER wa, sum(s2.x) OVER wb, min(s2.x) OVER wb,\n"
        "  max(shared.x) OVER wa FROM shared, shared AS s2, other\n"
        "WINDOW wa AS (PARTITION BY shared.x), wb AS (ORDER BY s2.x"
        " ROWS BETWEEN coalesce(1, 2) PRECEDING AND CURRENT ROW)"
    )
    out3 = _materialize_shared_ctes(multi_win)
    assert "WITH shared AS MATERIALIZED (" in out3
    assert "wa AS (PARTITION" in out3 and "wb AS (ORDER BY" in out3
    assert out3.count("MATERIALIZED") == 1
    import duckdb
    assert duckdb.sql(out3).fetchall() == duckdb.sql(multi_win).fetchall()
    # idempotent: marked CTEs no longer match the definition pattern
    assert _materialize_shared_ctes(out) == out
    assert _materialize_shared_ctes(out3) == out3
    # and the real dict went through it: the known-heavy oracles are marked
    for name in ("snippets_checked", "mstomp_checked", "chains_checked"):
        assert "MATERIALIZED" in ORACLES[name], name
