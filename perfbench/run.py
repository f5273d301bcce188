#!/usr/bin/env python3
"""xtract benchmark: one workload, one seed, on a fresh local Ray.

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones (docs_per_s,
result_s, seq_docs_per_s, setup_s, peak_rss_mb); with ``--trace 1``
they are the per-layer ones.  Progress and the CPU count go to
standard error.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_trace")
RAY_TMP = os.path.join(ROOT, ".pb_ray")
#: AF_UNIX socket paths are limited to 107 bytes; Ray puts its longest one at
#: <temp dir>/session_YYYY-MM-DD_hh-mm-ss_uuuuuu_<pid>/sockets/plasma_store
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")

LEVELS = ("block", "para", "line", "word")
#: rows per Arrow batch, as extract_pages, explode_pages and render_pages
#: batch them by default
EXTRACT_BATCH, LAYOUT_BATCH = 64, 32
#: statuses by which the program reports that extraction itself broke.  The
#: program's manifests also count bad_encoding and unsupported_binary as
#: parse failures; here those are verdicts on input planted on purpose (the
#: invalid-UTF-8 pages), which the row checks expect, so they are not failures.
FAILURE_STATUSES = ("parse_error", "timeout", "invalid")
#: repetitions of each Ray pass in the traced run; its figures are medians
TRACE_REPS = 3
FORMATS = ("hocr", "alto", "tsv")
LAYOUT_COLUMNS = ["url", "block_id", "level", "text", "span_start", "span_end",
                  "line_id", "word_id"]


def _process_start_boottime() -> float:
    """Seconds since boot at which this process started (from /proc)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _import_program():
    """Import xtract from this checkout; anything else is not the program
    under test."""
    sys.path.insert(0, ROOT)
    import xtract

    if os.path.dirname(os.path.dirname(os.path.realpath(xtract.__file__))) != os.path.realpath(ROOT):
        raise SystemExit(f"xtract imported from {xtract.__file__}, not from {ROOT}")


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------

def _stat(pid: int):
    """(state, parent pid) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            rest = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return rest[0], int(rest[1])


def _descendants(pid: int) -> list:
    kids: dict = {}
    for d in os.listdir("/proc"):
        st = _stat(int(d)) if d.isdigit() else None
        if st and st[0] != "Z":
            kids.setdefault(st[1], []).append(int(d))
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pids) -> list:
    for p in pids:  # reap our own exited children
        try:
            os.waitpid(p, os.WNOHANG)
        except ChildProcessError:
            pass
    return [p for p in pids if (_stat(p) or ("Z",))[0] != "Z"]


def _vm_hwm_mb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


class RaySession:
    def __init__(self, n_cpus: int) -> None:
        import ray

        os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
        kw = {}
        if len(RAY_TMP) + RAY_SOCKET_SUFFIX <= 107:
            kw["_temp_dir"] = RAY_TMP
        else:
            _log("checkout path too long for Ray's sockets; Ray uses its default temp dir")
        ray.init(num_cpus=n_cpus, include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=768 << 20, **kw)
        import logging

        from ray.data import DataContext

        logging.getLogger("ray.data").setLevel(logging.ERROR)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()

    def peak_rss_mb(self) -> float:
        workers = [p for p in _descendants(os.getpid()) if _is_worker(p)]
        own, most = _vm_hwm_mb("self"), max([0.0] + [_vm_hwm_mb(p) for p in workers])
        _log(f"VmHWM: benchmark process {own:.0f} MB, largest of {len(workers)} "
             f"Ray workers {most:.0f} MB")
        return max(own, most)

    def close(self) -> None:
        """Shut Ray down and wait until every process it started is gone.
        Ray's processes (GCS, raylet, workers) all descend from this one;
        workers may outlive the raylet, so their pids are taken first."""
        import ray

        pids = _descendants(os.getpid())
        ray.shutdown()
        deadline = time.monotonic() + 30
        while _alive(pids) and time.monotonic() < deadline:
            time.sleep(0.2)
        for pid in _alive(pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        deadline = time.monotonic() + 10
        while _alive(pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        if _alive(pids):
            raise RuntimeError(f"Ray processes still alive: {_alive(pids)}")
        if self.session_dir.startswith(RAY_TMP + os.sep):
            shutil.rmtree(self.session_dir, ignore_errors=True)
            latest = os.path.join(RAY_TMP, "session_latest")
            if os.path.islink(latest) and os.readlink(latest) == self.session_dir:
                os.unlink(latest)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Pass definitions for one workload.  ``warm`` runs the untimed first
    passes, which end ``setup_s``; ``wants`` pulls their output into this
    process and takes from it the values the timed passes are checked
    against; every timed round runs the main, result and in-process passes
    once each; ``verify`` checks the warm-up output in full.  It runs after
    the timed rounds, so that the checks' own memory stays out of
    ``peak_rss_mb``."""

    def __init__(self, pages, files, work: str) -> None:
        self.pages, self.files, self.work = pages, files, work
        self.n = len(pages)
        # the same Arrow batches the Ray stage gets
        self.batches = _batches(files, EXTRACT_BATCH)
        self.errors: list = []
        self.docs = 0
        self.bad = 0  # documents that failed in the fully checked pass
        self.compared = False  # Ray output compared with an in-process pass

    def seq_pass(self):
        """The per-document work in this process, no Ray → (seconds, output)."""
        import pyarrow as pa
        from xtract.actors import Extractor

        st = Extractor()
        t0 = time.perf_counter()
        out = run_batches(st, self.batches)
        dt = time.perf_counter() - t0
        self.docs += self.n
        return dt, pa.concat_tables(out)

    def check(self, what: str, errs: list) -> None:
        self.errors += [f"{what}: {e}" for e in errs[:10]]

    def timed_round(self, res: dict) -> None:
        res["main"].append(self.n / self.main_pass())
        res["result"].append(self.result_pass())
        dt, out = self.seq_pass()
        res["seq"].append(self.n / dt)
        self.check_seq(out)

    def wants(self) -> None:
        import checks

        self.rows = self.warm_rows()
        self.want_sum = checks.table_checksum(self.rows)

    def check_seq(self, out) -> None:
        import checks

        if not self.compared:
            self.check("parallelism", checks.check_same(self.rows, out))
            self.compared = True
        elif checks.table_checksum(out) != self.want_sum:
            self.check("in-process", ["in-process output differs from the Ray output"])

    def verify(self) -> None:
        import checks

        self.check("rows", checks.check_extracted(self.pages, self.rows))
        self.bad = sum(1 for s in self.rows.column("status").to_pylist()
                       if s in FAILURE_STATUSES)
        if self.program_sum != self.want_sum:
            self.check("checksum", [f"corpus_checksum {self.program_sum} != {self.want_sum}"])


class CrawlMix(Workload):
    def warm(self) -> None:
        from xtract.metrics import corpus_checksum
        from xtract.pipeline import extract_pages, read_pages

        self.warm_ds = extract_pages(read_pages(self.files)).materialize()
        self.program_sum = corpus_checksum(self.warm_ds)
        self.docs += self.n

    def warm_rows(self):
        rows, self.warm_ds = _to_table(self.warm_ds), None
        return rows

    def main_pass(self) -> float:
        from xtract.pipeline import extract_pages, read_pages

        t0 = time.perf_counter()
        n = extract_pages(read_pages(self.files)).count()
        dt = time.perf_counter() - t0
        self.docs += self.n
        if n != self.n:
            self.check("count", [f"{n} rows from {self.n} pages"])
        return dt

    def result_pass(self) -> float:
        from xtract.metrics import corpus_checksum
        from xtract.pipeline import extract_pages, read_pages

        t0 = time.perf_counter()
        got = corpus_checksum(extract_pages(read_pages(self.files)))
        dt = time.perf_counter() - t0
        self.docs += self.n
        if got != self.want_sum:
            self.check("checksum", [f"corpus_checksum {got} != {self.want_sum}"])
        return dt


class RecrawlJob(Workload):
    def _job(self, out: str):
        """→ (job seconds, job + checksum seconds, manifests, checksum)."""
        from xtract.metrics import corpus_checksum
        from xtract.pipeline import read_extracted, run_extraction_job

        t0 = time.perf_counter()
        manifests = run_extraction_job(self.files, out)
        t1 = time.perf_counter()
        got = corpus_checksum(read_extracted(out))
        t2 = time.perf_counter()
        self.docs += self.n
        return t1 - t0, t2 - t0, manifests, got

    def warm(self) -> None:
        import checks

        self.warm_out = os.path.join(self.work, "out-warm")
        _, _, self.manifests, self.program_sum = self._job(self.warm_out)
        self.check("manifests", checks.check_manifests(self.manifests, self.n))

    def warm_rows(self):
        from xtract.pipeline import read_extracted

        return _to_table(read_extracted(self.warm_out))

    def verify(self) -> None:
        from xtract.pipeline import run_extraction_job

        super().verify()
        before = _snapshot(self.warm_out)
        again = run_extraction_job(self.files, self.warm_out)
        if _snapshot(self.warm_out) != before or again != self.manifests:
            self.check("resume", ["re-running the finished job rewrote its output"])
        shutil.rmtree(self.warm_out)

    def timed_round(self, res: dict) -> None:
        import checks

        out = os.path.join(self.work, "out")
        job_s, result_s, manifests, got = self._job(out)
        shutil.rmtree(out)
        res["main"].append(self.n / job_s)
        res["result"].append(result_s)
        if got != self.want_sum:
            self.check("checksum", [f"corpus_checksum {got} != {self.want_sum}"])
        self.check("manifests", checks.check_manifests(manifests, self.n))
        dt, out_rows = self.seq_pass()
        res["seq"].append(self.n / dt)
        self.check_seq(out_rows)


def _snapshot(d: str) -> dict:
    out = {}
    for base, _, files in os.walk(d):
        for f in files:
            st = os.stat(os.path.join(base, f))
            out[os.path.join(base, f)] = (st.st_mtime_ns, st.st_size, st.st_ino)
    return out


WORKLOADS = {"crawl_mix": CrawlMix, "recrawl_job": RecrawlJob}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced_run(wl: Workload, seconds: float, spans_path: str) -> dict:
    """Per-layer metrics: Ray operators from warm passes of each pipeline,
    per-document layers from the traced in-process loops."""
    import checks
    import gen
    import pyarrow as pa
    import ray.data
    import spans
    from xtract.actors import BlocksExploder, Extractor
    from xtract.metrics import corpus_checksum
    from xtract.pipeline import (explode_pages, extract_pages, read_pages,
                                 run_extraction_job, validate_pages)
    from xtract.render import RenderStage, render_pages

    files = wl.files
    m: dict = {}
    errs: list = []
    tasks = spilled = 0

    def op_s(make, stage: str, fused: dict):
        """Median over TRACE_REPS warm passes of the summed task wall time
        of the operator that runs ``stage``, less the time, measured on its
        own, of each stage in ``fused`` that Ray fused into that operator
        → (seconds, dataset of the last pass)."""
        nonlocal tasks, spilled
        vals = []
        for i in range(TRACE_REPS):
            ds = make().materialize()
            st = spans.op_stats(ds)
            if i == 0:
                tasks += sum(v[1] for k, v in st.items() if k != "spilled")
                spilled += st["spilled"]
            vals.append(sum(wall - sum(t for f, t in fused.items() if f in name)
                            for name, (wall, _) in spans.ops(st, stage)))
        return max(0.0, statistics.median(vals)), ds

    # Every stage but the read runs over a materialized read, so that only
    # the fusions the program's own pipelines make (validate->extract) remain.
    m["pipeline.read_s"], read_ds = op_s(lambda: read_pages(files), "ReadParquet", {})
    known = {"ReadParquet": m["pipeline.read_s"]}
    m["pipeline.validate_s"] = op_s(
        lambda: read_ds.map_batches(validate_pages, batch_format="pyarrow"),
        "validate_pages", known)[0]
    known["validate_pages"] = m["pipeline.validate_s"]
    m["pipeline.extract_s"], ex_ds = op_s(lambda: extract_pages(read_ds),
                                          "extract_batch_task", known)
    m["pipeline.explode_s"], exp_ds = op_s(lambda: explode_pages(read_ds, levels=LEVELS),
                                           "explode_batch_task", known)
    ray_layout = _layout_sorted(_to_table(exp_ds.select_columns(LAYOUT_COLUMNS)))
    m["pipeline.render_s"], ren_ds = op_s(lambda: render_pages(read_ds, formats=FORMATS),
                                          "render_batch_task", known)
    ray_rendered = _rendered_sorted(_to_table(ren_ds))
    del exp_ds, ren_ds, read_ds

    # the checksum's url dedup: corpus_checksum with and without it,
    # alternated, over the materialized extract output
    ex_rows = _to_table(ex_ds)
    ray_sum = checks.table_checksum(ex_rows)
    all_sum = checks.table_checksum(ex_rows, dedup=False)
    plain, dedup = [], []
    for i in range(TRACE_REPS):
        for d in (False, True) if i % 2 == 0 else (True, False):
            t0 = time.perf_counter()
            got = corpus_checksum(ex_ds, dedup=d)
            (dedup if d else plain).append(time.perf_counter() - t0)
            if got != (ray_sum if d else all_sum):
                errs.append(f"corpus_checksum(dedup={d}) {got} != {ray_sum if d else all_sum}")
    m["metrics.digest_s"] = statistics.median(plain)
    m["metrics.shuffle_s"] = max(0.0, statistics.median(dedup) - m["metrics.digest_s"])
    m["metrics.shuffle_rows"] = ex_rows.num_rows
    m["metrics.winners"] = int(ray_sum.split(":")[0]) / max(1, ex_rows.num_rows)
    del ex_ds, ex_rows

    # the job: write_parquet time against the job's wall time
    write_s = 0.0
    orig_write = ray.data.Dataset.write_parquet

    def timed_write(self, *a, **k):
        nonlocal write_s
        t = time.perf_counter()
        try:
            return orig_write(self, *a, **k)
        finally:
            write_s += time.perf_counter() - t

    ray.data.Dataset.write_parquet = timed_write
    try:
        out = os.path.join(wl.work, "trace-out")
        t0 = time.perf_counter()
        run_extraction_job(files, out)
        job_s = time.perf_counter() - t0
        shutil.rmtree(out)
    finally:
        ray.data.Dataset.write_parquet = orig_write
    m["pipeline.write_s"] = write_s
    m["pipeline.job_tail_s"] = job_s - write_s
    m["pipeline.tasks"] = tasks
    m["pipeline.spilled_mb"] = spilled / 2**20

    # per-document layers: one traced loop of every stage over the same batches
    tr = spans.Tracer()
    tr.install()
    stages = (("extract", lambda: Extractor(), EXTRACT_BATCH),
              ("explode", lambda: BlocksExploder(levels=LEVELS), LAYOUT_BATCH),
              ("render", lambda: RenderStage(formats=FORMATS), LAYOUT_BATCH))
    html_bytes = gen.html_bytes(wl.pages)
    want_status = gen.expected_statuses(wl.pages)
    try:
        totals: dict = {}
        outs: dict = {}
        for name, make, bs in stages:
            st = make()
            tr.reset()
            tr.on = True
            outs[name] = run_batches(st, _batches(files, bs))
            tr.on = False
            got = tr.layer_metrics()
            for k, v in got.items():
                totals[k] = totals.get(k, 0) + v
            if got["segment.bytes"] != html_bytes:
                errs.append(f"{name}: segment.bytes {got['segment.bytes']} != generator's "
                            f"{html_bytes}")
            if dict(tr.statuses) != want_status:
                errs.append(f"{name}: statuses {dict(tr.statuses)} != {want_status}")
            if name == "extract":
                if checks.table_checksum(pa.concat_tables(outs.pop(name))) != ray_sum:
                    errs.append("traced in-process output differs from the Ray output")
                tr.dump(spans_path)
            elif name == "explode":
                outs[name] = [t.select(LAYOUT_COLUMNS) for t in outs[name]]
                if got["hierarchy.rows"] != ray_layout.num_rows:
                    errs.append(f"hierarchy.rows {got['hierarchy.rows']} != Ray explode rows "
                                f"{ray_layout.num_rows}")
                if not _layout_sorted(pa.concat_tables(outs[name])).equals(ray_layout):
                    errs.append("Ray hierarchy rows differ from the in-process rows")
            elif not _rendered_sorted(pa.concat_tables(outs[name])).equals(ray_rendered):
                errs.append("Ray render payloads differ from the in-process payloads")
        del ray_layout, ray_rendered
        totals["classify.kept"] = totals["classify.kept"] / len(stages)
        m.update(totals)
        errs += _check_layout(wl.pages, _batches(files, LAYOUT_BATCH), outs["explode"],
                              outs["render"])
        del outs
        # tracing overhead: the extract loop, traced and untraced, alternated
        batches = _batches(files, EXTRACT_BATCH)
        st = Extractor()
        ratios = []
        t_end = time.monotonic() + seconds
        while not ratios or time.monotonic() < t_end:
            pair = []
            for on in (False, True) if len(ratios) % 2 == 0 else (True, False):
                tr.reset()
                tr.on = on
                t0 = time.perf_counter()
                run_batches(st, batches)
                pair.append((on, time.perf_counter() - t0))
                tr.on = False
            d = dict(pair)
            ratios.append(d[True] / d[False])
            wl.docs += 2 * wl.n
        m["trace.overhead"] = statistics.median(ratios)
    finally:
        tr.on = False
        tr.uninstall()
    wl.check("trace", errs)
    # documents through the Ray read, validate, extract, explode and render
    # passes, the checksum calls, the job and the three traced loops
    wl.docs += (5 * TRACE_REPS + 2 * TRACE_REPS + 1 + 3) * wl.n
    return m


def _layout_sorted(t):
    return t.sort_by([(c, "ascending") for c in LAYOUT_COLUMNS])


def _rendered_sorted(t):
    return t.select(["url", "format", "payload"]).sort_by(
        [(c, "ascending") for c in ("url", "format", "payload")])


def _check_layout(pages, batches, exploded, rendered) -> list:
    """Layout checks on the in-process explode and render outputs, batch by
    batch.  Hierarchy and render rows carry the url but no capture time,
    so a page is checked when its url occurs once in its batch."""
    import checks
    from collections import Counter

    by_key = {checks._key(p.url, p.warc_ts): p for p in pages}
    errs, checked = [], 0
    for b, rows, payloads in zip(batches, exploded, rendered):
        urls = b["url"].to_pylist()
        once = {u for u, n in Counter(urls).items() if n == 1}
        ps = [by_key[checks._key(u, ts)] for u, ts in zip(urls, b["warc_ts"].to_pylist())
              if u in once]
        errs += checks.check_layout(ps, [r for r in rows.to_pylist() if r["url"] in once],
                                    [r for r in payloads.to_pylist() if r["url"] in once])
        checked += len(ps)
        if len(errs) > 20:
            break
    _log(f"layout checks: {checked} of {len(pages)} pages (urls unique in their batch)")
    return [f"layout: {e}" for e in errs[:20]]


def _to_table(ds):
    import pyarrow as pa
    import ray

    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])


def run_batches(stage, batches) -> list:
    """Call ``stage`` on each batch in this thread, moving the thread to
    the next CPU of the affinity mask before each batch.  On a shared host
    the cores run at different speeds from second to second; visiting
    them in turn averages that out, as the parallel Ray passes do."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        out = []
        for i, b in enumerate(batches):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            out.append(stage(b))
        return out
    finally:
        os.sched_setaffinity(0, cpus)


def _batches(files, bs: int) -> list:
    import pyarrow.parquet as pq

    out = []
    for f in files:
        t = pq.read_table(f)
        out += [t.slice(i, bs) for i in range(0, t.num_rows, bs)]
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = _process_start_boottime()
    _import_program()
    import ray  # noqa: F401  (import time counts toward setup_s)
    from xtract import actors, metrics, pipeline, render  # noqa: F401

    sys.path.insert(0, HERE)
    import gen
    import spans

    def since_start() -> float:
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start

    imports_s = since_start()
    n_cpus = len(os.sched_getaffinity(0))
    _log(f"workload={args.workload} seed={args.seed} cpus={n_cpus} "
         "(os.sched_getaffinity; nproc follows OMP_NUM_THREADS)")
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    t_gen = time.perf_counter()
    pages = gen.generate(args.workload, args.seed)
    files = gen.write_parquet(pages, os.path.join(work, "in"), gen.N_FILES[args.workload])
    wl = WORKLOADS[args.workload](pages, files, work)
    gen_s = time.perf_counter() - t_gen

    session = RaySession(n_cpus)
    ray_s = since_start() - gen_s
    try:
        wl.warm()
        setup_s = since_start() - gen_s
        _log(f"setup {setup_s:.2f} s: imports {imports_s:.2f} s, Ray start "
             f"{ray_s - imports_s:.2f} s, warm-up {setup_s - ray_s:.2f} s")
        wl.wants()
        if args.trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            metrics_out = traced_run(wl, args.seconds, os.path.join(
                TRACE_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
            units = {k: spans.unit(k) for k in metrics_out}
        else:
            res = {"main": [], "result": [], "seq": []}
            t_end = time.monotonic() + args.seconds
            while not res["main"] or time.monotonic() < t_end:
                wl.timed_round(res)
            _log(f"{len(res['main'])} rounds; docs/s {[round(x) for x in res['main']]}; "
                 f"result s {[round(x, 2) for x in res['result']]}; "
                 f"seq docs/s {[round(x) for x in res['seq']]}")
            metrics_out = {
                "docs_per_s": statistics.median(res["main"]),
                "result_s": statistics.median(res["result"]),
                "seq_docs_per_s": statistics.median(res["seq"]),
                "setup_s": setup_s,
                "peak_rss_mb": session.peak_rss_mb(),
            }
            units = {"docs_per_s": "docs/s", "result_s": "s", "seq_docs_per_s": "docs/s",
                     "setup_s": "s", "peak_rss_mb": "MB"}
        wl.verify()
    finally:
        session.close()
        shutil.rmtree(work, ignore_errors=True)
    for e in wl.errors:
        _log(f"CHECK FAILED {e}")
    print(json.dumps({
        "correct": not wl.errors,
        "attempted": wl.docs,
        # the share of failed documents is the same in every pass
        "failed": wl.bad * (wl.docs // wl.n),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics_out.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
