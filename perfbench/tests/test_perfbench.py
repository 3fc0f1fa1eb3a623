"""Tests of the benchmark itself, on tiny shapes.

    python3 -m pytest perfbench/tests -q

The Ray-backed tests run the real harness end to end (one set-up, a zero
second loop, so one to three passes) and take about a minute together.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from perfbench import checks, harness

ROOT = harness.ROOT
TINY = {
    # body pinned at 300 turns; conv 0 just past the 10k shard cut
    "long-convs": dict(n_convs=3, mean_turns=3000, long_conv_turns=10_200,
                       max_turns=300),
    "many-short": dict(n_convs=20, mean_turns=50, long_conv_turns=None,
                       max_turns=200),
    "retention-store": dict(n_convs=6, mean_turns=3000, long_conv_turns=None,
                            max_turns=300),
}
ENGINE_LAYERS = {"signals.pack", "rollup.tiers", "profile_stage.profiles",
                 "compression.pack", "compression.unpack"}
STORE_LAYERS = {"lineage.write", "lineage.resume", "lineage.read",
                "retention.compact"}


def _shrink(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(harness, "SHAPES", TINY)
    mp.setattr(harness, "SETUP_REPS", 1)


@pytest.fixture
def tiny(monkeypatch):
    _shrink(monkeypatch)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]}, spec)


def test_benchmark_json_mirrors_the_harness():
    e2e, layers, spec = _declared()
    assert e2e == {k: v[0] for k, v in harness.END_TO_END.items()}
    assert layers == harness.PER_LAYER
    for m in spec["end_to_end"]:
        assert (m["better"], m["bound"]) == harness.END_TO_END[m["name"]][1:]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


# ------------------------------------------------------------ checks, no Ray

def _engine_fixture():
    """A consistent (engine output, oracle) pair built from plain arrays."""
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.standard_normal(64))
    from tsmp_ray.kernels.brute import brute_mp

    mp = brute_mp(x, 8).mp
    tier = pa.table({
        "conv_id": ["c0", "c0", "c0"], "signal": ["text_len"] * 3,
        "bucket_ts": np.array([0, 60, 120]) * 1_000_000,
        **{c: np.array([1.0, 2.0, 3.0]) for c in
           ("sum_v", "min_v", "max_v", "first_v", "last_v", "mean_v")},
        "n": np.array([1, 1, 1]),
        "first_ts": np.array([0, 60, 120]), "last_ts": np.array([0, 60, 120]),
    })
    oracle = checks.EngineOracle(
        tiers={"1m": tier}, conv_turns={"c0": 64},
        expected_profile_rows=len(mp),
        profiles={("c0", "text_len"): (np.arange(len(mp)), mp)})
    engine_tier = tier.append_column("gap_filled", pa.array([False] * 3))
    profiles = pa.table({"conv_id": ["c0"] * len(mp),
                         "signal": ["text_len"] * len(mp),
                         "window_idx": np.arange(len(mp)), "mp": mp})
    unpacked = tier.select(["conv_id", "signal", "bucket_ts", "mean_v"])
    out = {"tiers": {"1m": engine_tier}, "profiles": profiles,
           "unpacked": unpacked}
    return out, oracle


def test_checks_accept_matching_output():
    out, oracle = _engine_fixture()
    assert checks.check_engine_pass(out, oracle) == []


@pytest.mark.parametrize("column,table", [("mp", "profiles"),
                                          ("mean_v", "unpacked")])
def test_checks_reject_corrupted_output(column, table):
    out, oracle = _engine_fixture()
    t = out[table]
    vals = t[column].to_numpy().copy()
    vals[5 % len(vals)] += 1e-3
    out[table] = t.set_column(t.schema.get_field_index(column), column,
                              pa.array(vals))
    assert checks.check_engine_pass(out, oracle)


def test_checks_reject_corrupted_tier():
    out, oracle = _engine_fixture()
    t = out["tiers"]["1m"]
    out["tiers"]["1m"] = t.set_column(t.schema.get_field_index("n"), "n",
                                      pa.array([1, 2, 1]))
    assert any("column n" in p for p in checks.check_engine_pass(out, oracle))


# ------------------------------------------------------------ Ray-backed

def _run(workload, trace, seed=5):
    res = harness.run(workload, seed, 0.0, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.fixture(scope="module")
def traced():
    """One traced run per workload, shared by the tests below."""
    with pytest.MonkeyPatch.context() as mp:
        _shrink(mp)
        yield {w: _run(w, True) for w in TINY}


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_run_emits_every_layer_metric_and_span(traced, workload):
    _, layers, _ = _declared()
    res = traced[workload]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    got = res["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == layers
    assert all(isinstance(v["value"], (int, float)) for v in got.values())
    spans_path = os.path.join(harness.WORK, "out", f"{workload}-seed5-trace1-spans.json")
    with open(spans_path) as f:
        names = {s["name"] for s in json.load(f)}
    want = STORE_LAYERS if workload == "retention-store" else ENGINE_LAYERS
    assert want | {"pass"} <= names
    for span in want:
        assert got[harness.LAYER_SPANS[span]]["value"] > 0
    if workload == "long-convs":
        assert got["profile_stage.sharded_convs"]["value"] == 1


def test_efficiency_higher_on_long_convs(traced):
    eff = {w: traced[w]["metrics"]["profile_stage.efficiency"]["value"]
           for w in ("long-convs", "many-short")}
    assert eff["long-convs"] > eff["many-short"] > 0


@pytest.mark.parametrize("workload", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric(tiny, workload):
    e2e, _, _ = _declared()
    res = _run(workload, False)
    assert res["correct"] and res["failed"] == 0
    got = res["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == e2e
    assert all(v["value"] > 0 for v in got.values())
    assert got["passed_frac"]["value"] == 1.0


def test_corrupted_pass_is_counted_as_failed(tiny, monkeypatch):
    real = harness.EngineWorkload.run_pass

    def corrupt(self):
        import ray.data

        out = real(self)
        bad = harness.to_table(out["profiles"])
        mp = bad["mp"].to_numpy().copy()
        mp[np.isfinite(mp)] += 1e-3
        bad = bad.set_column(bad.schema.get_field_index("mp"), "mp", pa.array(mp))
        out["profiles"] = ray.data.from_arrow(bad)
        return out

    monkeypatch.setattr(harness.EngineWorkload, "run_pass", corrupt)
    res = _run("many-short", False)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert res["metrics"]["passed_frac"]["value"] == 0.0
