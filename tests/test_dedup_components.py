"""Connected components over near-dup pairs: distributed min-label
propagation vs a local union-find, plus the driver-catalog entry."""

import numpy as np
import pyarrow as pa


def _uf_components(pairs):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def test_dup_components_matches_union_find(ray_session):
    import ray

    from tsmp_ray.stages.dedup import dup_components

    rng = np.random.default_rng(4)
    # chains + stars + isolated pairs, ids deliberately shuffled
    pairs = [(1, 2), (2, 3), (3, 4), (10, 11), (11, 12), (20, 21),
             (30, 40), (40, 50), (50, 60), (60, 70), (5, 99)]
    rng.shuffle(pairs)
    tbl = pa.table({
        "doc_id": pa.array([min(p) for p in pairs], pa.int64()),
        "dup_id": pa.array([max(p) for p in pairs], pa.int64()),
    })
    got = dup_components(ray.data.from_arrow(tbl)).to_pandas()
    want = _uf_components([tuple(p) for p in pairs])
    got_map = dict(zip(got["doc_id"], got["component"]))
    assert got_map == want
    # long chain 30-40-50-60-70 collapses to min 30 (multi-round propagation)
    assert got_map[70] == 30


def test_dup_components_long_path_graph(ray_session):
    """Adversarial: a 200-node path (diameter 199, shuffled edge order) must
    fully collapse to the minimum label — star contraction converges in
    O(log² n) rounds, far under max_rounds, with no driver label dict."""
    import ray

    from tsmp_ray.stages.dedup import dup_components

    rng = np.random.default_rng(7)
    ids = rng.permutation(10_000)[:200]  # non-contiguous shuffled ids
    pairs = list(zip(ids[:-1], ids[1:]))
    rng.shuffle(pairs)
    tbl = pa.table({
        "doc_id": pa.array([int(min(p)) for p in pairs], pa.int64()),
        "dup_id": pa.array([int(max(p)) for p in pairs], pa.int64()),
    })
    got = dup_components(ray.data.from_arrow(tbl)).to_pandas()
    lab = int(ids.min())
    assert set(got["doc_id"]) == set(int(i) for i in ids)
    assert (got["component"] == lab).all()
