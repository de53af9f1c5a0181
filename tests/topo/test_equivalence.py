"""Serial == sharded, byte for byte: the conservative-lookahead proof.

Every test compares the three artifact streams — delivery order,
merged metrics snapshot, merged spans — between the serial ground
truth and a sharded execution of the same spec.  Because artifacts are
collected per region in both modes, any divergence in event-execution
order shows up as a diff here.
"""

import json

import pytest

from repro.topo import make_spec, run_fleet, write_artifacts


def artifacts(result):
    return (
        result.deliveries,
        result.merged_snapshot(),
        [span for region in result.regions for span in region["spans"]],
    )


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_matches_serial_static(shards):
    spec = make_spec("grid", 16, shards=shards, seed=3)
    serial = run_fleet(spec, mode="serial", routing="static", flows=6, packets=5)
    sharded = run_fleet(spec, mode="sharded", routing="static", flows=6, packets=5)
    assert len(serial.deliveries) == 30
    assert artifacts(serial) == artifacts(sharded)


def test_shard_count_does_not_change_behavior():
    # 1, 2, and 4-way partitions of the same graph simulate the same
    # physics: identical metrics and identical timestamped deliveries.
    # (The *order witness* is region-major, so it is only comparable
    # between runs of the same partition — that's the test above.)
    results = [
        run_fleet(
            make_spec("grid", 16, shards=shards, seed=3),
            mode="sharded",
            routing="static",
            flows=6,
            packets=5,
        )
        for shards in (1, 2, 4)
    ]
    base = results[0]
    key = lambda d: (d["t"], d["src"], d["dst"], d["ident"])  # noqa: E731
    for other in results[1:]:
        assert other.merged_snapshot() == base.merged_snapshot()
        assert sorted(other.deliveries, key=key) == sorted(
            base.deliveries, key=key
        )


def test_sharded_matches_serial_protocol():
    spec = make_spec("ring", 8, shards=2, seed=1)
    kwargs = dict(routing="protocol", flows=4, packets=3, duration=40.0)
    serial = run_fleet(spec, mode="serial", **kwargs)
    sharded = run_fleet(spec, mode="sharded", **kwargs)
    assert serial.converged and sharded.converged
    assert serial.deliveries  # traffic actually flowed post-warmup
    assert artifacts(serial) == artifacts(sharded)


def test_ignored_jobs_keyword_matches_serial():
    spec = make_spec("grid", 16, shards=2, seed=3)
    serial = run_fleet(spec, mode="serial", routing="static", flows=6, packets=5)
    sharded = run_fleet(
        spec, mode="sharded", routing="static", flows=6, packets=5, jobs=2
    )
    assert artifacts(serial) == artifacts(sharded)
    assert "workers" not in sharded.extras


def test_link_cut_applies_identically(tmp_path):
    spec = make_spec("grid", 16, shards=2, seed=3)
    # (7, 8) is a cross-region edge this plan actually routes over.
    cut = (7, 8)
    assert cut in spec.cross_edges()
    changes = [(0.05, cut[0], cut[1], False)]
    kwargs = dict(routing="static", flows=6, packets=5, link_changes=changes)
    serial = run_fleet(spec, mode="serial", **kwargs)
    sharded = run_fleet(spec, mode="sharded", **kwargs)
    assert artifacts(serial) == artifacts(sharded)
    counters = serial.merged_snapshot()["counters"]
    a, b = cut
    assert (
        counters.get(f"fleetlink/{a}->{b}/dropped_cut", 0)
        + counters.get(f"fleetlink/{b}->{a}/dropped_cut", 0)
        > 0
    )


def test_written_artifacts_are_byte_identical(tmp_path):
    spec = make_spec("grid", 16, shards=2, seed=3)
    kwargs = dict(routing="static", flows=6, packets=5)
    serial_dir = tmp_path / "serial"
    sharded_dir = tmp_path / "sharded"
    write_artifacts(run_fleet(spec, mode="serial", **kwargs), serial_dir)
    write_artifacts(run_fleet(spec, mode="sharded", **kwargs), sharded_dir)
    for name in ("deliveries.jsonl", "metrics.json", "spans.jsonl"):
        assert (serial_dir / name).read_bytes() == (sharded_dir / name).read_bytes()
    # summary.json legitimately differs (the mode field) — nothing else.
    serial_summary = json.loads((serial_dir / "summary.json").read_text())
    sharded_summary = json.loads((sharded_dir / "summary.json").read_text())
    serial_summary.pop("mode"), sharded_summary.pop("mode")
    assert serial_summary == sharded_summary


def test_merged_spans_pass_trace_invariants(tmp_path):
    from repro.obs.export import load_jsonl

    spec = make_spec("grid", 16, shards=2, seed=3)
    result = run_fleet(spec, mode="sharded", routing="static", flows=6, packets=5)
    paths = write_artifacts(result, tmp_path)
    spans = load_jsonl(paths["spans"])
    assert len(spans) == len(result.deliveries)
    sids = [span["sid"] for span in spans]
    assert len(set(sids)) == len(sids)  # merge_jsonl rebased them
