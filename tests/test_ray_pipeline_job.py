"""Resumable sharded job driver: manifests, atomic rename, resume-skip."""

import json
import os
import shutil

import pytest

from xtract.config import DEFAULT_CONFIG
from xtract.pipeline import (
    read_extracted,
    run_extraction_job,
    shard_is_done,
    validate_pages,
)
from xtract.synth import synth_pages_dataset


@pytest.fixture(scope="module")
def job(ray_session, sf_dir, tmp_path_factory):
    base = tmp_path_factory.mktemp("job")
    in_dir, out_dir = str(base / "in"), str(base / "out")
    synth_pages_dataset(sf_dir).repartition(4).write_parquet(in_dir)
    files = sorted(os.path.join(in_dir, f) for f in os.listdir(in_dir)
                   if f.endswith(".parquet"))
    manifests = run_extraction_job(files, out_dir, DEFAULT_CONFIG, shard_size=2)
    return files, out_dir, manifests


def test_manifests_written(job):
    files, out_dir, manifests = job
    assert len(manifests) == 2
    for m in manifests:
        assert m["complete"] and m["n_rows"] > 0
        assert m["config_hash"] == DEFAULT_CONFIG.config_hash()
        p = os.path.join(out_dir, f"shard={m['shard_id']}", "manifest.json")
        assert json.load(open(p))["checksum"] == m["checksum"]


def test_output_readable(job):
    _, out_dir, manifests = job
    ds = read_extracted(out_dir, columns=["url", "status"])
    assert ds.count() == sum(m["n_rows"] for m in manifests)


def test_resume_skips_done_and_recomputes_missing(job):
    files, out_dir, manifests = job
    shutil.rmtree(os.path.join(out_dir, "shard=00001"))
    assert shard_is_done(out_dir, "00000")
    assert not shard_is_done(out_dir, "00001")
    again = run_extraction_job(files, out_dir, DEFAULT_CONFIG, shard_size=2)
    assert [m["checksum"] for m in again] == [m["checksum"] for m in manifests]


def test_noop_rerun(job):
    files, out_dir, manifests = job
    again = run_extraction_job(files, out_dir, DEFAULT_CONFIG, shard_size=2)
    assert [m["checksum"] for m in again] == [m["checksum"] for m in manifests]


def test_validate_adds_size_buckets(ray_session, sf_dir):
    import pyarrow as pa

    t = pa.table({"url": ["a", "b"], "html": [b"x" * 1024, None]})
    out = validate_pages(t)
    assert out["html_len"].to_pylist() == [1024, 0]
    assert out["size_bucket"].to_pylist() == [10, 0]


def test_job_retry_shard(ray_session, sf_dir, tmp_path):
    from xtract.pipeline import read_extracted, run_extraction_job
    from xtract.synth import synth_pages_dataset

    in_dir = str(tmp_path / "in")
    synth_pages_dataset(sf_dir).repartition(2).write_parquet(in_dir)
    files = sorted(os.path.join(in_dir, f) for f in os.listdir(in_dir)
                   if f.endswith(".parquet"))
    out_dir = str(tmp_path / "out")
    mans = run_extraction_job(files, out_dir, DEFAULT_CONFIG, shard_size=2,
                              retry_failed=True)
    retry = [m for m in mans if m["shard_id"] == "retry"]
    assert retry and retry[0]["n_rows"] > 0 and retry[0]["lenient"]
    rows = read_extracted(out_dir, columns=["url", "status"]).to_pandas()
    recovered = rows[rows.status == "ok_lenient"]
    assert len(recovered) == retry[0]["n_rows"]
    # every failed url has a recovered counterpart
    failed = set(rows[rows.status == "bad_encoding"].url)
    assert failed <= set(recovered.url)


def test_manifest_carries_extraction_metrics(ray_session, tmp_path):
    import glob
    import json

    from xtract.config import DEFAULT_CONFIG
    from xtract.pipeline import run_extraction_job
    from xtract.synth import synth_pages_dataset

    pages = synth_pages_dataset("/root/testdata/sf0.001").limit(40)
    src = str(tmp_path / "src")
    pages.repartition(2).write_parquet(src)
    files = sorted(glob.glob(src + "/*.parquet"))
    ms = run_extraction_job(files, str(tmp_path / "out"), DEFAULT_CONFIG,
                            shard_size=4)
    m = ms[0]["metrics"]
    assert m["html_bytes"] > 0
    assert m["blocks_kept"] > 0
    assert isinstance(m["status_counts"], dict) and m["status_counts"]
    assert m["parse_failures"] >= 0
    assert m["docs_per_s"] and m["docs_per_s"] > 0


@pytest.fixture(scope="module")
def totals_job(ray_session, sf_dir, tmp_path_factory):
    """Three shards of synth pages (bad_encoding, PDF and empty rows among
    them); the second shard holds an input file with 0 rows."""
    import pyarrow.parquet as pq

    base = tmp_path_factory.mktemp("totals")
    in_dir, out_dir = str(base / "in"), str(base / "out")
    synth_pages_dataset(sf_dir).repartition(5).write_parquet(in_dir)
    files = sorted(os.path.join(in_dir, f) for f in os.listdir(in_dir)
                   if f.endswith(".parquet"))
    empty = os.path.join(in_dir, "empty.parquet")
    pq.write_table(pq.read_schema(files[0]).empty_table(), empty)
    files = files[:2] + [empty] + files[2:]
    manifests = run_extraction_job(files, out_dir, DEFAULT_CONFIG, shard_size=2)
    return files, out_dir, manifests


def test_manifests_sum_to_independent_totals(totals_job):
    from collections import Counter

    from xtract.metrics import corpus_checksum, corpus_metrics
    from xtract.pipeline import merge_checksum_partials

    _, out_dir, manifests = totals_job
    assert len(manifests) == 3 and all(m["n_rows"] > 0 for m in manifests)
    tot = corpus_metrics(read_extracted(out_dir))
    assert sum(m["n_rows"] for m in manifests) == tot["n_docs"]
    for k in ("html_bytes", "blocks_kept", "blocks_dropped"):
        assert sum(m["metrics"][k] for m in manifests) == tot[k], k
    statuses = Counter()
    for m in manifests:
        statuses.update(m["metrics"]["status_counts"])
    assert dict(statuses) == tot["status_counts"]
    assert {"bad_encoding", "empty"} <= set(statuses)
    assert sum(m["metrics"]["parse_failures"] for m in manifests) >= statuses["bad_encoding"]
    parts = [tuple(reversed(m["checksum"].split(":"))) for m in manifests]
    assert merge_checksum_partials(parts) == corpus_checksum(
        read_extracted(out_dir), dedup=False)


def test_shard_of_empty_files_has_an_empty_manifest(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pa.schema([
        ("url", pa.string()), ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string()),
    ]).empty_table(), empty)
    for sidecar in (False, True):
        (m,) = run_extraction_job([empty], str(tmp_path / f"out{sidecar}"),
                                  DEFAULT_CONFIG, write_sidecar=sidecar)
        assert m["complete"] and m["n_rows"] == 0
        assert m["checksum"] == f"0:{0:064x}"
        assert m["metrics"]["status_counts"] == {}


def test_job_reads_and_shuffles_nothing_of_its_own(ray_session, sf_dir,
                                                  tmp_path, monkeypatch):
    """One Ray execution per shard: the manifest comes from the write
    tasks, so the job never reads back its output (unless the sidecar
    asks for it) and runs no groupby or aggregate."""
    import ray.data as rd

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    synth_pages_dataset(sf_dir).limit(60).repartition(2).write_parquet(in_dir)
    files = sorted(os.path.join(in_dir, f) for f in os.listdir(in_dir)
                   if f.endswith(".parquet"))
    reads, exchanges = [], []
    read_parquet = rd.read_parquet

    def counting_read(paths, *a, **k):
        reads.extend([paths] if isinstance(paths, str) else paths)
        return read_parquet(paths, *a, **k)

    def counting(name):
        real = getattr(rd.Dataset, name)

        def f(self, *a, **k):
            exchanges.append(name)
            return real(self, *a, **k)
        return f

    def reads_under(d):
        return [p for p in reads if str(p).startswith(d + os.sep)]

    monkeypatch.setattr(rd, "read_parquet", counting_read)
    for name in ("groupby", "aggregate"):
        monkeypatch.setattr(rd.Dataset, name, counting(name))
    ms = run_extraction_job(files, out_dir, DEFAULT_CONFIG, shard_size=1,
                            write_sidecar=False)
    assert len(ms) == 2 and sum(m["n_rows"] for m in ms) == 60
    assert reads and reads_under(out_dir) == [] and exchanges == []
    # the spy does see a re-read of the output when the sidecar asks
    side_dir = str(tmp_path / "side")
    run_extraction_job(files, side_dir, DEFAULT_CONFIG, shard_size=1,
                       write_sidecar=True)
    assert reads_under(side_dir)
