"""Per-layer tracing for the xtract benchmark, from benchmark files only.

``Tracer.install`` replaces each layer's public function, at the name
through which its caller looks it up (``xtract.extract.segment``,
``xtract.actors.extract_document`` ...), with a wrapper that records a
span (name, parent, start, end) and the layer's counts.  Spans stay in
memory; ``dump`` writes them out at the end.  A layer's self time is
its spans' time minus the time of the spans nested inside them.

``op_stats`` reads the Ray layer from the ``Dataset`` stats of an
executed pipeline.
"""

from __future__ import annotations

import json
import time
from collections import Counter

LAYERS = ("actors", "extract", "segment", "classify", "assemble", "langdetect",
          "pdf_fallback", "hierarchy", "render")
RATIOS = ("classify.kept", "metrics.winners", "trace.overhead")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("bytes"):
        return "bytes"
    return "ratio" if metric in RATIOS else "count"


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.statuses: Counter = Counter()
        self.spans: list = []  # (id, parent id, layer, start ns, end ns)
        self._stack: list = []  # [span id, child ns]

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, layer: str, fn, post=None, pre=None):
        tracer = self

        def traced(*args, **kw):
            if not tracer.on:
                return fn(*args, **kw)
            stack = tracer._stack
            sid = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            frame = [sid, 0]
            stack.append(frame)
            before = pre(args) if pre else None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans[sid] = (sid, parent, layer, t0, t1)
                tracer.self_ns[layer] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if post:
                post(tracer, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name: str, layer: str, post=None, pre=None) -> None:
        fn = owner[name] if isinstance(owner, dict) else getattr(owner, name)
        self._saved.append((owner, name, fn))
        w = self._wrap(layer, fn, post, pre)
        if isinstance(owner, dict):
            owner[name] = w
        else:
            setattr(owner, name, w)

    def install(self) -> None:
        from xtract import actors, extract, hierarchy, langdetect, render

        self._patch(actors.Extractor, "__call__", "actors")
        self._patch(actors.BlocksExploder, "__call__", "actors")
        self._patch(render.RenderStage, "__call__", "actors")
        self._patch(actors, "extract_document", "extract", _count_extract)
        self._patch(extract, "extract_document", "extract", _count_extract)
        self._patch(extract, "segment", "segment", _count_segment)
        self._patch(extract, "classify_blocks", "classify", _count_classify)
        self._patch(extract, "assemble", "assemble")
        self._patch(extract, "extract_pdf_text", "pdf_fallback", _count_pdf)
        for name in ("detect_full", "detect", "word_lang"):
            self._patch(langdetect.LangDetector, name, "langdetect", _count_lang)
        self._patch(extract, "detect_script", "langdetect", _count_lang)
        self._patch(extract, "text_direction", "langdetect", _count_lang)
        self._patch(hierarchy, "text_direction", "langdetect", _count_lang)
        self._patch(actors, "explode_blocks_into", "hierarchy", _count_rows,
                    pre=lambda args: len(args[3]["url"]))
        for fmt in ("hocr", "alto", "tsv"):
            self._patch(render.RENDERERS, fmt, "render", _count_render)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            if isinstance(owner, dict):
                owner[name] = fn
            else:
                setattr(owner, name, fn)
        self._saved.clear()

    # -- results -------------------------------------------------------------
    def layer_metrics(self) -> dict:
        c = self.counts
        out = {f"{layer}.busy_s": self.self_ns[layer] / 1e9 for layer in LAYERS}
        out.update({
            "segment.docs": c["segment.docs"], "segment.bytes": c["segment.bytes"],
            "segment.blocks": c["segment.blocks"],
            "classify.kept": c["classify.kept"] / c["segment.blocks"] if c["segment.blocks"] else 0.0,
            "langdetect.calls": c["langdetect.calls"],
            "pdf_fallback.docs": c["pdf_fallback.docs"],
            "hierarchy.rows": c["hierarchy.rows"], "render.bytes": c["render.bytes"],
        })
        return out

    def dump(self, path: str) -> None:
        names = ("id", "parent", "layer", "start_ns", "end_ns")
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(names, s))) + "\n")


def _count_extract(t: Tracer, args, result, before) -> None:
    t.statuses[result["status"]] += 1


def _count_segment(t: Tracer, args, result, before) -> None:
    t.counts["segment.docs"] += 1
    t.counts["segment.bytes"] += len(args[0])
    t.counts["segment.blocks"] += len(result)


def _count_classify(t: Tracer, args, result, before) -> None:
    t.counts["classify.kept"] += sum(1 for b in args[0] if b.is_content)


def _count_lang(t: Tracer, args, result, before) -> None:
    t.counts["langdetect.calls"] += 1


def _count_pdf(t: Tracer, args, result, before) -> None:
    t.counts["pdf_fallback.docs"] += 1


def _count_rows(t: Tracer, args, result, before) -> None:
    t.counts["hierarchy.rows"] += len(args[3]["url"]) - before


def _count_render(t: Tracer, args, result, before) -> None:
    t.counts["render.bytes"] += len(result.encode("utf-8"))


# ---------------------------------------------------------------------------
# Ray layer
# ---------------------------------------------------------------------------

def _operators(summary) -> list:
    out = []
    for p in summary.parents:
        out += _operators(p)
    return out + list(summary.operators_stats)


def op_stats(ds) -> dict:
    """{operator name: (task wall seconds summed, tasks)} of an executed
    Dataset, plus the bytes it spilled under the key ``"spilled"``."""
    import re

    summary = ds._get_stats_summary()
    out: dict = {}
    for op in _operators(summary):
        wall = (op.wall_time or {}).get("sum", 0.0)
        m = re.search(r"(\d+) tasks executed", op.block_execution_summary_str or "")
        tasks = int(m.group(1)) if m else 0
        prev = out.get(op.operator_name, (0.0, 0))
        out[op.operator_name] = (prev[0] + wall, prev[1] + tasks)
    out["spilled"] = summary.dataset_bytes_spilled
    return out


def ops(stats: dict, stage: str) -> list:
    """[(operator name, (wall seconds, tasks))] of the operators that run
    ``stage``; a name such as ``A->B`` is one operator into which Ray
    fused stages A and B."""
    return [(name, v) for name, v in stats.items() if name != "spilled" and stage in name]
