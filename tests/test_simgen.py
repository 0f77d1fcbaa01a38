from __future__ import annotations

import dataclasses
import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from iorisk.attribute import attribute_usage, fs_bin_totals
from iorisk.ingest import read_counter_file, read_job_file

from conftest import binned, blocks_of
from iorisk.ops import MDS_SLICE, N_COUNTERS, OSS_SLICE
from iorisk.simgen import (PATTERNS, PEAK_COUNT, ContentionEpisode,
                           JobTemplate, ScenarioError, ScenarioSpec,
                           _pattern_deltas, generate, preset_scenario,
                           spec_from_json, spec_to_json)

W = 360


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(
        seed=42, duration_s=40 * W, node_count=8,
        filesystems=("fs2", "fs3"),
        templates=(
            JobTemplate("wr", "writer.exe", "climate", "streaming-write",
                        count=4, nodes=(1, 2), runtime_bins=(3, 8)),
            JobTemplate("md", "mdburst.sh", "materials", "metadata-storm",
                        count=3, nodes=1, runtime_bins=(2, 5)),
        ))
    base.update(overrides)
    return ScenarioSpec(**base)


def pipeline_recover(out_dir):
    feed = read_counter_file(out_dir / "counters.csv")
    jobs = read_job_file(out_dir / "jobs.csv")
    usage = binned(feed, W)
    return feed, jobs, usage, attribute_usage(blocks_of(usage), jobs)


def test_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(tiny_spec(), a)
    generate(tiny_spec(), b)
    for name in ("counters.csv", "jobs.csv", "ledger.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_different_seed_differs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(tiny_spec(), a)
    generate(tiny_spec(seed=43), b)
    assert (a / "counters.csv").read_bytes() != \
        (b / "counters.csv").read_bytes()


def test_feeds_conform_to_ingest_schemas(tmp_path):
    ledger = generate(tiny_spec(), tmp_path)
    feed, jobs, usage, _ = pipeline_recover(tmp_path)
    assert len(feed) == 8 * 2 * 41  # nodes x fs x snapshots
    assert len(jobs) == 7
    assert len(set(jobs.job_ids)) == 7
    counts: dict[str, int] = {}
    for project in jobs.projects:
        counts[project] = counts.get(project, 0) + 1
    assert counts == ledger.project_job_counts


def test_idle_job_contributes_nothing(tmp_path):
    spec = tiny_spec(templates=(
        JobTemplate("quiet", "sleep.sh", "support", "idle", count=1,
                    nodes=1, runtime_bins=4),))
    ledger = generate(spec, tmp_path)
    assert list(ledger.job_totals.values()) == [[0] * N_COUNTERS]
    feed, jobs, usage, _ = pipeline_recover(tmp_path)
    assert len(usage) == 0


def test_metadata_storm_dominates_oss(tmp_path):
    spec = tiny_spec(templates=(
        JobTemplate("md", "storm.sh", "materials", "metadata-storm",
                    count=3, nodes=1, runtime_bins=4),))
    ledger = generate(spec, tmp_path)
    for totals in ledger.job_totals.values():
        arr = np.asarray(totals)
        assert arr[MDS_SLICE].sum() > arr[OSS_SLICE].sum()


def test_ledger_matches_recovered_pipeline_exactly(tmp_path):
    # DERIVED: end-to-end conservation of the whole chain
    spec = tiny_spec(episodes=(
        ContentionEpisode(start_s=10 * W, end_s=20 * W,
                          load_multiplier=3.0),))
    ledger = generate(spec, tmp_path)
    feed, jobs, usage, attribution = pipeline_recover(tmp_path)

    # feed totals per fs
    totals = fs_bin_totals(attribution)
    for fs_i, fs in enumerate(totals.names["fs"]):
        mask = totals.codes["fs"] == fs_i
        got = totals.deltas[mask].sum(axis=0)
        np.testing.assert_array_equal(got, ledger.feed_totals[fs])

    # per-fs-bin totals
    for fs_i, fs in enumerate(totals.names["fs"]):
        mask = totals.codes["fs"] == fs_i
        got_bins = {int(b): d.tolist() for b, d in
                    zip(totals.bin_start[mask], totals.deltas[mask])}
        want_bins = {b: v for b, v in ledger.fs_bin_totals[fs].items()
                     if any(v)}
        assert got_bins == want_bins

    # per-job totals, exactly
    ju = attribution.job_usage
    job_ids = ju.names["job_id"]
    per_job = {j: np.zeros(N_COUNTERS, dtype=np.int64) for j in job_ids}
    for i in range(len(ju)):
        per_job[job_ids[ju.codes["job_id"][i]]] += ju.deltas[i]
    for job_id, want in ledger.job_totals.items():
        np.testing.assert_array_equal(per_job[job_id], want, err_msg=job_id)

    # nothing unattributed in an exclusively scheduled scenario
    assert attribution.unattributed.deltas.sum() == 0


def test_more_concurrent_jobs_than_nodes_errors(tmp_path):
    spec = tiny_spec(node_count=1, templates=(
        JobTemplate("wide", "big.exe", "cfd", "streaming-write", count=2,
                    nodes=1, runtime_bins=40),))
    with pytest.raises(ScenarioError, match="more concurrent jobs"):
        generate(spec, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ScenarioError, match="runs want up to 4 nodes"):
        tiny_spec(node_count=2, templates=(
            JobTemplate("wide", "big.exe", "cfd", "streaming-write",
                        count=1, nodes=4, runtime_bins=2),))


def test_scripted_resets_recover_exactly(tmp_path):
    spec = preset_scenario("resets")
    ledger = generate(spec, tmp_path)
    assert ledger.resets_applied or ledger.resets_skipped
    feed, jobs, usage, attribution = pipeline_recover(tmp_path)
    ju = attribution.job_usage
    job_ids = ju.names["job_id"]
    per_job = {j: np.zeros(N_COUNTERS, dtype=np.int64) for j in job_ids}
    for i in range(len(ju)):
        per_job[job_ids[ju.codes["job_id"][i]]] += ju.deltas[i]
    for job_id, want in ledger.job_totals.items():
        np.testing.assert_array_equal(per_job.get(
            job_id, np.zeros(N_COUNTERS, dtype=np.int64)), want,
            err_msg=job_id)


def test_monotone_except_scripted_resets(tmp_path):
    spec = preset_scenario("resets")
    ledger = generate(spec, tmp_path)
    feed = read_counter_file(tmp_path / "counters.csv")
    drops = set()
    order = np.lexsort((feed.ts, feed.fs_idx, feed.node_idx))
    ts = feed.ts[order]
    vals = feed.values[order]
    node_idx = feed.node_idx[order]
    fs_idx = feed.fs_idx[order]
    for i in range(1, len(feed)):
        if (node_idx[i], fs_idx[i]) != (node_idx[i - 1], fs_idx[i - 1]):
            continue
        if (vals[i] < vals[i - 1]).any():
            drops.add((feed.nodes[node_idx[i]],
                       feed.filesystems[fs_idx[i]],
                       int(ts[i]) - spec.start_ts))
    # a reset right after the snapshot at offset o shows as a decrease at
    # the next snapshot, o + bin_width
    want = {(n, f, o + W) for n, f, o in map(tuple, ledger.resets_applied)}
    assert drops == want


def test_ledger_json_round_trip(tmp_path):
    ledger = generate(tiny_spec(), tmp_path)
    doc = json.loads((tmp_path / "ledger.json").read_text())
    assert doc["job_totals"] == ledger.job_totals
    assert doc["fs_bin_totals"] == {
        fs: {str(b): v for b, v in bins.items()}
        for fs, bins in ledger.fs_bin_totals.items()}
    assert doc["project_job_counts"] == ledger.project_job_counts


def test_project_counts_and_heatmap_cells(tmp_path):
    ledger = generate(tiny_spec(), tmp_path)
    assert ledger.project_job_counts == {"climate": 4, "materials": 3}
    for job_id, cells in ledger.heatmap_cells.items():
        assert set(cells) == {"nodes", "read_gib", "write_gib"}


def test_probe_emitted_when_requested(tmp_path):
    spec = tiny_spec(emit_probe=True)
    generate(spec, tmp_path)
    text = (tmp_path / "probe.csv").read_text()
    assert text.startswith("ts,latency_ms\n")
    assert len(text.splitlines()) == 1 + spec.duration_s // 60


def test_a_rerun_that_emits_no_probe_removes_the_old_one(tmp_path):
    # --probe would correlate a stale probe with the new feed
    generate(tiny_spec(emit_probe=True), tmp_path)
    generate(tiny_spec(), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["counters.csv", "jobs.csv", "ledger.json"]


def test_scenario_spec_validation():
    with pytest.raises(ScenarioError):
        tiny_spec(duration_s=100)  # not a bin multiple
    with pytest.raises(ScenarioError):
        tiny_spec(node_count=0)
    with pytest.raises(ScenarioError):
        tiny_spec(filesystems=())
    with pytest.raises(ScenarioError):
        JobTemplate("x", "c", "p", "bogus-pattern", count=1)
    with pytest.raises(ScenarioError):
        JobTemplate("x", "c", "p", "idle", count=0)
    with pytest.raises(ScenarioError):
        ContentionEpisode(start_s=100, end_s=100)


def test_spec_json_round_trip(tmp_path):
    for name in ("demo", "metric", "slowdown", "contention", "perf",
                 "resets"):
        spec = preset_scenario(name)
        path = tmp_path / f"{name}.json"
        spec_to_json(spec, path)
        assert spec_from_json(path) == spec


def _with_template(doc, template):
    return {**doc, "templates": [template]}


# each a scenario document's bytes made from a valid one, and a text the
# error holds
BAD_SCENARIOS = {
    "not JSON": (lambda doc: b"{", "Expecting property name"),
    "not UTF-8": (lambda doc: json.dumps(doc).encode().replace(
        b'"wr"', b'"w\xffr"'), "can't decode byte 0xff"),
    "an array": (lambda doc: json.dumps([doc]).encode(),
                 "a ScenarioSpec must be a JSON object"),
    "an unknown key": (lambda doc: json.dumps(
        {**doc, "emit_prob": True}).encode(), "'emit_prob'"),
    "an unknown template key": (lambda doc: json.dumps(_with_template(
        doc, {**doc["templates"][0], "nodez": 2})).encode(), "'nodez'"),
    "a template as a string": (lambda doc: json.dumps(_with_template(
        doc, "wr")).encode(), "a JobTemplate must be a JSON object"),
    "no seed": (lambda doc: json.dumps(
        {k: v for k, v in doc.items() if k != "seed"}).encode(), "'seed'"),
    "node_count a string": (lambda doc: json.dumps(
        {**doc, "node_count": "4"}).encode(), "node_count must be int"),
    "seed a string": (lambda doc: json.dumps(
        {**doc, "seed": "x"}).encode(), "seed must be int, got 'x'"),
    "seed a bool": (lambda doc: json.dumps(
        {**doc, "seed": True}).encode(), "seed must be int, got True"),
    "a template count a float": (lambda doc: json.dumps(_with_template(
        doc, {**doc["templates"][0], "count": 2.5})).encode(),
        "template wr: count must be int, got 2.5"),
    "a template's nodes a triple": (lambda doc: json.dumps(_with_template(
        doc, {**doc["templates"][0], "nodes": [1, 2, 3]})).encode(),
        "nodes must be int | tuple[int, int], got (1, 2, 3)"),
    "filesystems a string": (lambda doc: json.dumps(
        {**doc, "filesystems": "fs2"}).encode(),
        "filesystems must be tuple[str, ...], got 'fs2'"),
    # values of the right kind out of their bounds
    "an intensity NaN": (lambda doc: json.dumps(_with_template(
        doc, {**doc["templates"][0], "intensity": float("nan")})).encode(),
        "template wr: intensity must be finite, got nan"),
    "an episode's load_multiplier Infinity": (lambda doc: json.dumps(
        {**doc, "episodes": [{"start_s": 0, "end_s": W,
                              "load_multiplier": float("inf")}]}).encode(),
        "episode: load_multiplier must be finite, got inf"),
    "probe_cadence_s 0": (lambda doc: json.dumps(
        {**doc, "emit_probe": True, "probe_cadence_s": 0}).encode(),
        "probe_cadence_s must be > 0"),
    "a template's nodes 0": (lambda doc: json.dumps(_with_template(
        doc, {**doc["templates"][0], "nodes": 0})).encode(),
        "template wr: nodes must be >= 1"),
    "a template's runtime_bins low above high": (
        lambda doc: json.dumps(_with_template(
            doc, {**doc["templates"][0], "runtime_bins": [5, 2]})).encode(),
        "runtime_bins must be >= 1, a range's low at most its high, "
        "got (5, 2)"),
    "a template's cores_per_node 0": (lambda doc: json.dumps(_with_template(
        doc, {**doc["templates"][0], "cores_per_node": 0})).encode(),
        "template wr: cores_per_node must be > 0"),
    "a template's slow_factor 0": (lambda doc: json.dumps(_with_template(
        doc, {**doc["templates"][0], "slow_factor": 0})).encode(),
        "template wr: slow_factor must be > 0"),
    "seed -1": (lambda doc: json.dumps({**doc, "seed": -1}).encode(),
                "seed must be >= 0"),
    "start_ts negative": (lambda doc: json.dumps(
        {**doc, "start_ts": -100000}).encode(), "start_ts must be > 0"),
    "a filesystem twice": (lambda doc: json.dumps(
        {**doc, "filesystems": ["fs2", "fs2"]}).encode(),
        "filesystems must be unique"),
    "a template wanting more nodes than node_count": (
        lambda doc: json.dumps(_with_template(
            doc, {**doc["templates"][0], "nodes": [1, 9]})).encode(),
        "template wr: runs want up to 9 nodes, scenario has 8"),
    "an episode on no filesystem": (lambda doc: json.dumps(
        {**doc, "episodes": [{"start_s": 0, "end_s": W,
                              "fs_id": "fs9"}]}).encode(),
        "episode: fs_id 'fs9' is not one of filesystems"),
    "a reset on no node": (lambda doc: json.dumps(
        {**doc, "resets": [["n9", "fs2", W]]}).encode(),
        "reset ('n9', 'fs2', 360) names no stream"),
    "a reset on no filesystem": (lambda doc: json.dumps(
        {**doc, "resets": [["n0000", "fs9", W]]}).encode(),
        "reset ('n0000', 'fs9', 360) names no stream"),
    "a reset off the grid": (lambda doc: json.dumps(
        {**doc, "resets": [["n0000", "fs2", W + 1]]}).encode(),
        "reset offset 361 must be a bin-aligned snapshot"),
    # counts past int64: wrapped, or cast from a float past it
    "an intensity of 1e17": (lambda doc: json.dumps(_with_template(
        doc, {**doc["templates"][0], "intensity": 1e17})).encode(),
        "intensity and load multipliers too large"),
    "an intensity of 3e13": (lambda doc: json.dumps(_with_template(
        doc, {**doc["templates"][0], "intensity": 3e13})).encode(),
        "intensity and load multipliers too large"),
    "an episode's load_multiplier 1e15": (lambda doc: json.dumps(
        {**doc, "episodes": [{"start_s": 0, "end_s": W,
                              "load_multiplier": 1e15}]}).encode(),
        "intensity and load multipliers too large"),
}


@pytest.mark.parametrize("case", BAD_SCENARIOS)
def test_a_bad_scenario_file_raises_naming_the_file(tmp_path, case):
    make, message = BAD_SCENARIOS[case]
    valid = tmp_path / "valid.json"
    spec_to_json(tiny_spec(), valid)
    path = tmp_path / "scenario.json"
    path.write_bytes(make(json.loads(valid.read_text())))
    with pytest.raises(ScenarioError) as exc:
        spec_from_json(path)
    assert str(exc.value).startswith(f"scenario {path}: "), exc.value
    assert message in str(exc.value), exc.value


def test_no_pattern_books_more_than_the_peak_count():
    rng = np.random.default_rng(5)
    for pattern in PATTERNS:
        for nodes in (1, 3, 8):
            for intensity in (1e-3, 1.0, 7.5, 1e6):
                deltas = _pattern_deltas(rng, pattern, 300, nodes, intensity)
                # the most a node's share takes: the first take remainders
                assert (-(-deltas // nodes)).max() \
                    <= PEAK_COUNT * max(1.0, intensity), (pattern, nodes)


def test_a_scenario_just_under_the_count_bound_is_exact(tmp_path):
    # tiny_spec's 8 nodes x 40 bins, an episode doubling every bin
    bound = 2 ** 63 / (8 * 40 * PEAK_COUNT * 2)
    episodes = (ContentionEpisode(0, 40 * W, load_multiplier=2.0),)
    templates = tiny_spec().templates

    def spec(intensity):
        return tiny_spec(episodes=episodes, templates=(dataclasses.replace(
            templates[0], intensity=intensity), *templates[1:]))

    with pytest.raises(ScenarioError, match="too large"):
        spec(1.01 * bound)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ledger = generate(spec(0.99 * bound), tmp_path)
    feed, _, _, attribution = pipeline_recover(tmp_path)
    assert feed.values.min() >= 0
    # far past float64's exact integers: every sum below is int64's
    assert max(max(v) for v in ledger.feed_totals.values()) > 2 ** 57
    totals = fs_bin_totals(attribution)
    for fs_i, fs in enumerate(totals.names["fs"]):
        got = totals.deltas[totals.codes["fs"] == fs_i].sum(axis=0)
        assert got.tolist() == ledger.feed_totals[fs]
        assert ledger.feed_totals[fs] == [
            sum(ledger.job_totals[j][c] for j in ledger.job_fs
                if ledger.job_fs[j] == fs) for c in range(N_COUNTERS)]


def test_a_scenario_file_takes_the_defaults_for_absent_keys(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "seed": 1, "duration_s": 3600, "node_count": 2,
        "filesystems": ["fs2"],
        "templates": [{"name": "a", "command": "a.exe", "project": "p",
                       "pattern": "idle", "count": 1}]}))
    assert spec_from_json(path) == ScenarioSpec(
        seed=1, duration_s=3600, node_count=2, filesystems=("fs2",),
        templates=(JobTemplate("a", "a.exe", "p", "idle", count=1),))


def test_presets_all_build():
    for name in ("demo", "metric", "slowdown", "contention", "resets"):
        spec = preset_scenario(name)
        assert spec.n_bins > 0
    with pytest.raises(ScenarioError):
        preset_scenario("nope")

# sha256 of each preset's feeds and ledger (and probe, where it emits one):
# a change to the RNG draw order, the placement or the ledger's format
# shows here
GOLDEN_DIGESTS = {
    "demo": {
        "counters.csv":
            "d25bedd5278bd76eae5695d4bfe147620620485f1c3b66d8d3e38c90bfc0ce6a",
        "jobs.csv":
            "fe06353f1266ff309e5a7e139447c301e572154ebe043d331e80f821815b779f",
        "ledger.json":
            "0d11dd49728f6a3bfc82c6a7b4c0a58a4c8a5df79c81532da2c52e8aac6c4861",
        "probe.csv":
            "05c6ddfeb8fe17169a64571e31edd5d64038c629018dca282e3ae4f9a62ad979",
    },
    "metric": {
        "counters.csv":
            "0ae473918300bc03ee5b3428580925699490ad4a14b2c056f7f1feed91740e95",
        "jobs.csv":
            "610a1c43a2af86e1a9b4950618b451be871ea8850f9de697b85d839bb819c4e5",
        "ledger.json":
            "686d8667cf807ab3e87828c72407a03819e7525d566363399283fe41ab79ba04",
    },
    "slowdown": {
        "counters.csv":
            "40c59dc4078a5725aab8bb54e15898d73b932b369311d5621a759733da66bb8a",
        "jobs.csv":
            "df59d9388a691ef1a4e2a53aedb132e80259caab6b01b55510578ddea5dff6eb",
        "ledger.json":
            "bb8e46ba56a44cf680b201f37b1f1a1e3f9c5ceefdd9a342225add8ab1685755",
    },
    "contention": {
        "counters.csv":
            "37b8fbcdf6561482b444a1ac6d47c641db4d0dae0d44e543fc4391311b9bf9c9",
        "jobs.csv":
            "1cc0635dba49448ac8999118b72b2e6a62e69d67d44d2e05e099193414f3d968",
        "ledger.json":
            "c7937fd83b36ac406bbc40844975c9a10d5e500cc09a19f759a48eefc91e19d7",
        "probe.csv":
            "8f158455b3af487d21421ba44d41877a7969c7e0547576e6441c8c446495741b",
    },
    "perf": {
        "counters.csv":
            "1e6ef5e0f0463d5b3a0fc58a9bfd89d0404253ffee908b3bfdf23ef2030890e7",
        "jobs.csv":
            "a5738e067a8b82699213f525b2aead6a1deb139dcf8eb57a0a16efc1d6594cbe",
        "ledger.json":
            "58082cfe6fef3ad62b7721abd45991a5183fdef5d3410bfe209b780ea19847f0",
    },
    "resets": {
        "counters.csv":
            "5a4613037f459ca62e4a8c0b60187f57e01b65bb6713b9470df69e9475517e26",
        "jobs.csv":
            "8e5939e28f6a508a16f90e678b78b74e214385b18fa46e82293f78ba869443ec",
        "ledger.json":
            "7ef68c046e751c633c4e2c3be42b1c567d2de442c16109fa2c48a4426397c746",
    },
}


def _digests(out_dir) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out_dir.iterdir()}


@pytest.mark.parametrize("preset", sorted(GOLDEN_DIGESTS))
def test_preset_outputs_keep_their_digests(tmp_path, preset):
    generate(preset_scenario(preset), tmp_path)
    assert _digests(tmp_path) == GOLDEN_DIGESTS[preset]


def test_awkward_resets_keep_their_digests(tmp_path):
    # the resets preset has one reset per stream; here one stream takes
    # two resets, another the same reset twice, a stream with no history
    # yet takes one that is skipped, and the resets span two filesystems
    spec = ScenarioSpec(
        seed=31, duration_s=100 * W, node_count=4,
        filesystems=("fs2", "fs3"),
        templates=(JobTemplate("wr", "writer.exe", "climate",
                               "streaming-write", count=4, nodes=1,
                               runtime_bins=(60, 90)),),
        resets=(("n0000", "fs2", 60 * W), ("n0003", "fs3", 40 * W),
                ("n0001", "fs2", 10 * W), ("n0000", "fs2", 30 * W),
                ("n0003", "fs3", 40 * W)))
    ledger = generate(spec, tmp_path)
    assert ledger.resets_applied == [
        ["n0000", "fs2", 30 * W], ["n0003", "fs3", 40 * W],
        ["n0003", "fs3", 40 * W], ["n0000", "fs2", 60 * W]]
    assert ledger.resets_skipped == [["n0001", "fs2", 10 * W]]
    assert _digests(tmp_path) == {
        "counters.csv":
            "32b93dc57a12731a4ee8e07ce0af07fd7338cf67bf953fc6ce41b038f6cc0bc5",
        "jobs.csv":
            "932219647afbeb25c70e678248895115cb0cf629d0de217ac26fe855c80e976e",
        "ledger.json":
            "6f95a1ba3de16ccab85f940968310a49b5db0b1e714ca250fb789dcc4e39e5aa",
    }


@pytest.mark.parametrize("resets", [
    (), (("n0061", "fs2", 400 * W), ("n0061", "fs2", 500 * W))],
    ids=["no resets", "two resets on one stream"])
def test_generate_peaks_below_two_snapshot_arrays(tmp_path, resets):
    # numpy reports its array allocations to tracemalloc. generate books
    # the feed on one array of snapshots and sums and rebases it in place;
    # beyond it the peak holds the CSV writer's key columns and one chunk
    # of text, about 0.4 of it here. A second node x bin array, such as
    # per-node deltas or cumulative sums kept apart from the snapshots,
    # takes the peak past 2.
    spec = ScenarioSpec(
        seed=3, duration_s=3 * 86400, node_count=200, filesystems=("fs2",),
        templates=(JobTemplate("wr", "writer.exe", "climate",
                               "streaming-write", count=20, nodes=(1, 8),
                               runtime_bins=(100, 400)),),
        resets=resets)
    snapshots = (spec.n_bins + 1) * spec.node_count * N_COUNTERS * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ledger = generate(spec, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert ledger.resets_applied == list(map(list, resets))
    assert peak < 2 * snapshots, peak / snapshots
