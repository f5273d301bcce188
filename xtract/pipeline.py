"""Dataset pipelines: source → validate → skew-split → extract → sinks.

The job-driver analogue of ``process_pages`` (``src/api.rs:844-875``,
SURVEY §3.3), expressed Ray-Data-first: a lazy streaming pipeline of
``map_batches`` stages with explicit skew handling (html byte-size
buckets — SURVEY §4.3) and manifest-per-shard resumable output (the
"skip if already downloaded" pattern of ``build.rs:492-513``).

Scale notes (100 TB design): the read prunes to the five input columns;
the size split routes multi-MB documents to a small-batch actor pool so
one task never holds many huge pages; shards map to input-file groups
so a restarted job skips finished shards by manifest; nothing
materializes the full dataset — every sink is a Parquet write or a tiny
aggregated result.  A job shard is one streaming execution: its write
tasks (``shard_sink.ShardSink``) also compute the manifest figures —
rows, checksum partial, bytes, blocks kept/dropped, status histogram —
so the driver merges a few partials instead of re-reading the output.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc

from . import __version__
from .actors import BlocksExploder, Extractor
from .config import DEFAULT_CONFIG, ExtractionConfig

#: html byte-size above which a row is routed to the huge-document pool
HUGE_THRESHOLD = 1 << 18  # 256 KiB

#: max retryable-failure rows whose urls may be collected + broadcast for
#: the lenient second pass.  The retry set is failure-proportional, not
#: corpus-proportional, so on a healthy crawl it is tiny — but a
#: systematically broken input could make it corpus-sized, and the gate
#: fails loudly instead of OOMing the driver (same pattern as
#: ``ops.cc.DRIVER_CC_LIMIT``).  Override via env for odd corpora.
RETRY_BROADCAST_LIMIT = int(os.environ.get("XTRACT_RETRY_LIMIT", 5_000_000))

PAGE_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]


def validate_pages(batch: pa.Table) -> pa.Table:
    """Vectorized validation stage (set_image validation analogue,
    ``src/api.rs:1204-1221``): html byte length + log2 size bucket
    columns; no Python row loop."""
    if "html" in batch.column_names:
        lens = pc.coalesce(pc.binary_length(batch["html"]), pa.scalar(0, pa.int32()))
        lens = pc.cast(lens, pa.int64())
    else:
        lens = pa.array([0] * len(batch), pa.int64())
    import numpy as np

    ln = lens.to_numpy(zero_copy_only=False)
    bucket = np.zeros(len(ln), dtype=np.int8)
    nz = ln > 0
    bucket[nz] = np.floor(np.log2(ln[nz])).astype(np.int8)
    out = batch
    for name in ("html_len", "size_bucket"):
        if name in out.column_names:
            out = out.drop_columns([name])
    return out.append_column("html_len", lens).append_column(
        "size_bucket", pa.array(bucket, pa.int8()))


def read_pages(paths, columns: Optional[Sequence[str]] = None, **kw):
    """Column-pruned Parquet source for the pages table."""
    import ray.data as rd

    return rd.read_parquet(paths, columns=list(columns or PAGE_COLUMNS), **kw)


def extract_pages(
    ds,
    cfg: ExtractionConfig = DEFAULT_CONFIG,
    batch_size: int = 64,
    concurrency=(2, 8),
    huge_threshold: int = HUGE_THRESHOLD,
    huge_batch_size: int = 4,
    use_actors: bool = False,
    skew_split: bool = False,
):
    """pages Dataset → extracted Dataset (lazy).

    Two execution shapes, identical per-row output (same frozen config,
    same shared spec function):

    - **normal bucket** (default ``use_actors=False``): stateless
      ``map_batches`` tasks calling ``extract_batch_task`` — warm state
      lives in a per-worker-process cache (built once per worker, reused
      across every batch), giving actor-pool warmth WITH task
      elasticity: no pool ramp, no reserved CPUs, the scheduler packs
      blocks onto every free core.  Measured ~1.5× the actor-pool
      throughput at 32 CPUs on this box.
    - **huge bucket**: an autoscaling actor pool with tiny batches —
      the pool dispatches ``huge_batch_size``-row batches to actors
      individually, so multi-MB pages spread across workers instead of
      being stuck together inside one block-sized task (SURVEY §4.3
      skew rule).  ``use_actors=True`` runs the normal bucket through
      the pool too (the right shape when per-worker state becomes
      heavyweight, e.g. real models).
    """
    from .actors import extract_batch_task

    ds = ds.map_batches(validate_pages, batch_format="pyarrow")
    cfg_json = cfg.to_json()
    if not skew_split:
        # Single streaming pass (fastest measured shape): the input is
        # read once; tasks inherit the read's block granularity and the
        # scheduler packs them onto every free CPU.  Moderate skew (a few
        # multi-MB pages per block) amortizes inside the block.
        if use_actors:
            return ds.map_batches(
                Extractor, fn_constructor_args=(cfg_json,),
                batch_format="pyarrow", batch_size=batch_size,
                concurrency=concurrency, num_cpus=1)
        return ds.map_batches(
            extract_batch_task, fn_kwargs={"cfg_json": cfg_json},
            batch_format="pyarrow", batch_size=batch_size)
    # Explicit skew split (north-rule mechanism; costs a second pass over
    # the input): oversized documents route to their own stage — an actor
    # pool dispatching tiny batches (use_actors) or tiny repartitioned
    # blocks — so one task never holds many huge pages.  Use when the top
    # size bucket dominates bytes (e.g. > ~1 MB pages are common).
    normal = ds.map_batches(
        lambda t: t.filter(pc.less(t["html_len"], huge_threshold)),
        batch_format="pyarrow")
    huge = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["html_len"], huge_threshold)),
        batch_format="pyarrow")
    if use_actors:
        ex_normal = normal.map_batches(
            Extractor, fn_constructor_args=(cfg_json,), batch_format="pyarrow",
            batch_size=batch_size, concurrency=concurrency, num_cpus=1)
        huge_conc = ((1, concurrency[1]) if isinstance(concurrency, tuple)
                     else concurrency)
        ex_huge = huge.map_batches(
            Extractor, fn_constructor_args=(cfg_json,), batch_format="pyarrow",
            batch_size=huge_batch_size, concurrency=huge_conc, num_cpus=1)
    else:
        ex_normal = normal.map_batches(
            extract_batch_task, fn_kwargs={"cfg_json": cfg_json},
            batch_format="pyarrow", batch_size=batch_size)
        ex_huge = huge.repartition(
            target_num_rows_per_block=huge_batch_size).map_batches(
            extract_batch_task, fn_kwargs={"cfg_json": cfg_json},
            batch_format="pyarrow", batch_size=huge_batch_size)
    return ex_normal.union(ex_huge)


def extract_pages_with_retry(
    ds,
    cfg: ExtractionConfig = DEFAULT_CONFIG,
    retry_statuses: tuple[str, ...] = ("bad_encoding", "parse_error"),
    retry_cfg: "ExtractionConfig | None" = None,
    **kw,
):
    """Two-phase routing (C2, the ``process_pages(retry_config)``
    analogue, reference ``src/api.rs:844-875``): strict pass first; rows
    that failed with a retryable status re-enter a lenient pass
    (replacement decode) and replace the failed rows in the output.

    ``retry_cfg`` is the caller-supplied ALTERNATE engine config for the
    second pass (the reference's ``process_pages`` takes a full
    ``RetryConfig``, ``src/api.rs:847-854``) — e.g. a different seg
    mode, relaxed densities, or extra languages.  Default ``None``
    keeps the strict config and only switches on lenient decode.

    The retry subset is tiny (bad bytes are rare), so the second pass is
    a small actor-pool stage; union keeps everything streaming.

    The strict output is extracted ONCE and pinned (``materialize`` —
    the object store holds what is anyway the job's output, spilling if
    needed); both the ok rows and the retry url set derive from that
    single execution.  Without the pin, each consumer branch would
    re-run the whole read+extract (Ray re-executes an unmaterialized
    pipeline per consumer) — the round-1 version extracted the corpus
    twice plus a third source scan.  At job scale the equivalent
    single-pass shape is write-then-scan (``_run_retry_shard``)."""
    from .actors import Extractor

    strict = extract_pages(ds, cfg, **kw).materialize()
    ok = strict.map_batches(
        lambda t: t.filter(pc.invert(pc.is_in(
            t["status"], value_set=pa.array(list(retry_statuses))))),
        batch_format="pyarrow")
    # lenient pass re-extracts the failed urls from the source rows
    failed_val = ds.map_batches(validate_pages, batch_format="pyarrow")
    retry_urls = strict.select_columns(["url", "status"]).map_batches(
        lambda t: t.filter(pc.is_in(t["status"],
                                    value_set=pa.array(list(retry_statuses)))),
        batch_format="pyarrow").select_columns(["url"])
    import ray

    # exact-count gate (fail loudly, never OOM silently): the retry set
    # is failure-proportional — tiny on a healthy crawl, but a
    # systematically broken corpus could make it corpus-proportional
    retry_urls = retry_urls.materialize()
    n_retry = retry_urls.count()
    if n_retry > RETRY_BROADCAST_LIMIT:
        raise RuntimeError(
            f"{n_retry} rows failed with retryable statuses (> "
            f"{RETRY_BROADCAST_LIMIT}): the failure set is too large to "
            "broadcast — the input is systematically broken; fix the "
            "config (e.g. pass retry_cfg for the whole corpus) instead "
            "of retrying row-by-row")
    urls = {r["url"] for r in retry_urls.take_all()}
    if not urls:
        return ok
    urls_ref = ray.put(pa.array(sorted(urls), pa.string()))

    def keep_failed(t: pa.Table) -> pa.Table:
        # one vectorized membership kernel over the batch — no Python
        # row loop on the (full-corpus-sized) source scan
        return t.filter(pc.is_in(t["url"], value_set=ray.get(urls_ref)))

    lenient = failed_val.map_batches(keep_failed, batch_format="pyarrow").map_batches(
        Extractor, fn_constructor_args=((retry_cfg or cfg).to_json(), True),
        batch_format="pyarrow", batch_size=16, concurrency=(1, 4), num_cpus=1)
    return ok.union(lenient)


def explode_pages(
    ds,
    cfg: ExtractionConfig = DEFAULT_CONFIG,
    levels: tuple[str, ...] = ("block",),
    batch_size: int = 32,
    concurrency=(2, 8),
    use_actors: bool = False,
):
    """pages Dataset → blocks hierarchy Dataset (H1-H17).

    Default: stateless tasks with a warm per-worker exploder cache (no
    actor-pool ramp — the ramp dominated short jobs); ``use_actors``
    keeps the pool shape for heavyweight per-worker state."""
    if use_actors:
        return ds.map_batches(
            BlocksExploder, fn_constructor_args=(cfg.to_json(), levels),
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=concurrency, num_cpus=1)
    from .actors import explode_batch_task

    return ds.map_batches(
        explode_batch_task,
        fn_kwargs={"cfg_json": cfg.to_json(), "levels": tuple(levels)},
        batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------
# Resumable sharded job driver (manifest per shard, atomic rename)
# ---------------------------------------------------------------------------

def merge_checksum_partials(partials: list[tuple[str, int]]) -> str:
    total = 0
    n = 0
    for p, c in partials:
        total = (total + int(p, 16)) % (1 << 256)
        n += int(c)
    return f"{n}:{total:064x}"


def read_extracted(out_dir: str, columns: Optional[Sequence[str]] = None):
    """Read a job's output across all completed shards (read_parquet takes
    a list of files, not of directories)."""
    import glob

    import ray.data as rd

    files = sorted(glob.glob(os.path.join(out_dir, "shard=*", "data", "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no shard data under {out_dir}")
    return rd.read_parquet(files, columns=list(columns) if columns else None)


def get_input_bytes(extracted_ds):
    """``get_input_image`` analogue (reference src/api.rs:684-697):
    return the raw input payload the engine was given, per url, from an
    extracted Dataset produced under ``ExtractionConfig(keep_input=
    True)``.  Raises if no input was kept — the engine-level
    NullPointerError of the reference (a per-ROW missing input is a
    null cell instead: the row-level error surface)."""
    schema = extracted_ds.schema()
    if "input_bytes" not in schema.names:
        raise ValueError(
            "get_input_bytes: no input kept — extract with "
            "ExtractionConfig(keep_input=True) (set_input_image "
            "analogue) first")
    return extracted_ds.select_columns(["url", "input_bytes"])


def manifest_path(out_dir: str, shard_id: str) -> str:
    return os.path.join(out_dir, f"shard={shard_id}", "manifest.json")


def shard_is_done(out_dir: str, shard_id: str) -> bool:
    p = manifest_path(out_dir, shard_id)
    if not os.path.exists(p):
        return False
    try:
        with open(p) as f:
            m = json.load(f)
        return bool(m.get("complete"))
    except (json.JSONDecodeError, OSError):
        return False


def _sweep_orphan_tmp(out_dir: str) -> None:
    """Remove half-written ``.shard-*`` / ``.clean-*`` temp dirs a dead
    run left behind (they hold full shard payloads — real storage at
    crawl scale).  Safe because a tmp dir only belongs to the RUNNING
    process between mkdtemp and its atomic rename, and concurrent jobs
    over one out_dir are unsupported (documented)."""
    import shutil

    for name in os.listdir(out_dir):
        if name.startswith((".shard-", ".clean-")):
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)


def run_extraction_job(
    input_files: Sequence[str],
    out_dir: str,
    cfg: ExtractionConfig = DEFAULT_CONFIG,
    shard_size: int = 8,
    write_blocks: bool = False,
    write_sidecar: bool = False,
    **extract_kw,
):
    """Resumable extraction job: input parquet files grouped into shards
    of ``shard_size`` files; each shard is ONE streaming Ray execution,
    read → validate → extract → write, into ``out/shard=<id>/data/``.

    The write tasks (``shard_sink.ShardSink``) compute the manifest
    figures from the rows they already hold: the checksum partial, row
    count, html bytes, blocks kept/dropped and the status histogram.
    The driver merges those few partials, so a shard never re-reads its
    own output and never shuffles (only ``write_sidecar`` re-reads, to
    write its JSON).  The data dir and ``manifest.json`` (lineage: input
    files, rows, checksum, metrics, config hash, engine version — the
    renderer-metadata analogue S8) appear by one atomic rename.  A rerun
    skips shards whose manifest says complete.  Returns the list of
    shard manifests.
    """
    from .shard_sink import ShardSink, merge_shard_partials

    os.makedirs(out_dir, exist_ok=True)
    _sweep_orphan_tmp(out_dir)
    retry_failed = extract_kw.pop("retry_failed", False)
    retry_cfg = extract_kw.pop("retry_cfg", None)
    manifests = []
    groups = [list(input_files[i:i + shard_size])
              for i in range(0, len(input_files), shard_size)]
    for gi, files in enumerate(groups):
        sid = f"{gi:05d}"
        if shard_is_done(out_dir, sid):
            with open(manifest_path(out_dir, sid)) as f:
                manifests.append(json.load(f))
            continue
        shard_dir = os.path.join(out_dir, f"shard={sid}")
        tmp_dir = tempfile.mkdtemp(prefix=f".shard-{sid}-", dir=out_dir)
        t0 = time.monotonic()
        sink = ShardSink(os.path.join(tmp_dir, "data"))
        extract_pages(read_pages(files), cfg, **extract_kw).write_datasink(sink)
        if write_blocks:
            explode_pages(read_pages(files), cfg).write_parquet(
                os.path.join(tmp_dir, "blocks"))
        if write_sidecar:
            _write_sidecar(tmp_dir)
        shard = merge_shard_partials(sink.partials)
        n_rows, metrics = shard["n_rows"], shard["metrics"]
        wall = round(time.monotonic() - t0, 3)
        metrics["docs_per_s"] = round(n_rows / wall, 1) if wall else None
        metrics["html_bytes_per_s"] = (
            round(metrics["html_bytes"] / wall, 1) if wall else None)
        manifest = {
            "shard_id": sid,
            "input_files": files,
            "n_rows": n_rows,
            "checksum": shard["checksum"],
            # north-rule extraction metrics: blocks kept/dropped, parse
            # failures, bytes and rates — per shard, in the lineage
            "metrics": metrics,
            "config_hash": cfg.config_hash(),
            "config": json.loads(cfg.to_json()),
            "engine_version": __version__,
            "wall_s": wall,
            "complete": True,
        }
        with open(os.path.join(tmp_dir, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=1)
        if os.path.exists(shard_dir):  # stale partial output from a dead run
            import shutil

            shutil.rmtree(shard_dir)
        os.rename(tmp_dir, shard_dir)
        manifests.append(manifest)
    if retry_failed:
        m = _run_retry_shard(input_files, out_dir, cfg,
                             write_sidecar=write_sidecar,
                             retry_cfg=retry_cfg)
        if m is not None:
            manifests.append(m)
    return manifests


def _run_retry_shard(input_files, out_dir: str, cfg: ExtractionConfig,
                     write_sidecar: bool = False,
                     retry_cfg: "ExtractionConfig | None" = None):
    """Job-level retry pass (C2 at the job driver, the efficient shape):
    scan the ALREADY-WRITTEN shard outputs for retryable statuses (a
    cheap 2-column read — no re-extraction), broadcast the failed url
    set, lenient-extract only those source rows into ``shard=retry/``.
    Consumers read the retry shard's rows as replacements for the same
    urls in the base shards (latest-status-wins by shard name)."""
    import ray

    from .actors import Extractor
    from .shard_sink import ShardSink, merge_shard_partials

    sid = "retry"
    if shard_is_done(out_dir, sid):
        with open(manifest_path(out_dir, sid)) as f:
            return json.load(f)
    failed_ds = read_extracted(out_dir, columns=["url", "status"]).map_batches(
        lambda t: t.filter(pc.is_in(
            t["status"], value_set=pa.array(["bad_encoding", "parse_error"]))),
        batch_format="pyarrow").select_columns(["url"]).materialize()
    n_retry = failed_ds.count()
    if n_retry > RETRY_BROADCAST_LIMIT:
        raise RuntimeError(
            f"{n_retry} rows failed with retryable statuses (> "
            f"{RETRY_BROADCAST_LIMIT}): fix the config and rerun the job "
            "rather than retrying a corpus-sized failure set")
    urls = {r["url"] for r in failed_ds.take_all()}
    if not urls:
        return None
    urls_ref = ray.put(pa.array(sorted(urls), pa.string()))

    def keep_failed(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["url"], value_set=ray.get(urls_ref)))

    tmp_dir = tempfile.mkdtemp(prefix=".shard-retry-", dir=out_dir)
    t0 = time.monotonic()
    lenient = read_pages(input_files).map_batches(
        keep_failed, batch_format="pyarrow").map_batches(
        Extractor, fn_constructor_args=((retry_cfg or cfg).to_json(), True),
        batch_format="pyarrow", batch_size=16, concurrency=(1, 4), num_cpus=1)
    sink = ShardSink(os.path.join(tmp_dir, "data"))
    lenient.write_datasink(sink)
    if write_sidecar:
        _write_sidecar(tmp_dir)
    shard = merge_shard_partials(sink.partials)
    manifest = {
        "shard_id": sid, "input_files": list(input_files),
        "n_rows": shard["n_rows"], "checksum": shard["checksum"],
        "config_hash": (retry_cfg or cfg).config_hash(), "lenient": True,
        "engine_version": __version__,
        "wall_s": round(time.monotonic() - t0, 3), "complete": True,
    }
    with open(os.path.join(tmp_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    shard_dir = os.path.join(out_dir, f"shard={sid}")
    if os.path.exists(shard_dir):
        import shutil

        shutil.rmtree(shard_dir)
    os.rename(tmp_dir, shard_dir)
    return manifest


def _write_sidecar(shard_tmp_dir: str) -> None:
    """S7 sidecar sink (text+spans JSON next to the data, the
    searchable-PDF text/pdf renderer-pair analogue,
    src/result_renderer.rs:69-82): a slim column re-read of the written
    data, one JSON file per output block."""
    import glob

    import ray.data as rd

    files = sorted(glob.glob(os.path.join(shard_tmp_dir, "data", "*.parquet")))
    if not files:  # a shard of 0 rows: its write tasks wrote no file
        return
    rd.read_parquet(files, columns=["url", "content_text", "content_spans"]
                    ).write_json(os.path.join(shard_tmp_dir, "sidecar"))
