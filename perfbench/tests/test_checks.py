"""Tests of the benchmark's own checks and generator.

Every output check must pass on the program's real output and fail on
a deliberately corrupted copy of it.  Run from the checkout root:

    python3 -m pytest perfbench/tests -q -p no:cacheprovider
"""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(os.path.dirname(HERE)))

import checks  # noqa: E402
import gen  # noqa: E402

SCHEMA = pa.schema([("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                    ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string())])


def _table(pages) -> pa.Table:
    return pa.table({"url": [p.url for p in pages], "warc_ts": [p.warc_ts for p in pages],
                     "html": [p.html for p in pages], "text": [p.text for p in pages],
                     "lang": [p.lang for p in pages]}, schema=SCHEMA)


def _sample(pages, per_family: int):
    seen: dict = {}
    out = []
    for p in pages:
        if seen.get(p.family, 0) < per_family and p.family != "huge":
            seen[p.family] = seen.get(p.family, 0) + 1
            out.append(p)
    return out


@pytest.fixture(scope="module")
def crawl():
    from xtract.actors import Extractor

    pages = _sample(gen.generate("crawl_mix", 11), 3)
    return pages, Extractor()(_table(pages))


@pytest.fixture(scope="module")
def recrawl():
    from xtract.actors import Extractor

    pages = gen.generate("recrawl_job", 11)[:120]
    return pages, Extractor()(_table(pages))


@pytest.fixture(scope="module")
def layout():
    from xtract.actors import BlocksExploder
    from xtract.render import RenderStage

    pages = _sample(gen.generate("crawl_mix", 11), 2)
    rows = BlocksExploder(levels=("block", "para", "line", "word"))(_table(pages)).to_pylist()
    rendered = RenderStage(formats=("hocr", "alto", "tsv"))(_table(pages)).to_pylist()
    return pages, rows, rendered


def _edit(table: pa.Table, i: int, **cols) -> pa.Table:
    rows = table.to_pylist()
    rows[i].update(cols)
    return pa.Table.from_pylist(rows, schema=table.schema)


def _first(pages, family: str) -> int:
    return next(i for i, p in enumerate(pages) if p.family == family)


def test_real_output_passes(crawl, recrawl, layout):
    for pages, out in (crawl, recrawl):
        assert checks.check_extracted(pages, out) == []
        assert checks.check_same(out, out) == []
    assert checks.check_layout(*layout) == []
    assert {p.family for p in crawl[0]} >= {"article", "table", "lists", "malformed",
                                            "legacy", "badutf8", "pdf", "text", "empty"}


def test_dropped_planted_unit_fails(crawl):
    pages, out = crawl
    i = _first(pages, "table")
    text = out["content_text"][i].as_py().replace(pages[i].units[2], "")
    assert checks.check_extracted(pages, _edit(out, i, content_text=text))


def test_units_out_of_order_fail(crawl):
    pages, out = crawl
    i = _first(pages, "article")
    parts = out["content_text"][i].as_py().split("\n\n")
    parts[1], parts[2] = parts[2], parts[1]
    assert checks.check_extracted(pages, _edit(out, i, content_text="\n\n".join(parts)))


def test_leaked_boilerplate_fails(crawl):
    pages, out = crawl
    i = _first(pages, "malformed")
    text = out["content_text"][i].as_py() + "\n\n" + pages[i].boiler[-1]
    assert checks.check_extracted(pages, _edit(out, i, content_text=text))


def test_wrong_exact_text_and_status_fail(crawl):
    pages, out = crawl
    for fam in ("pdf", "text"):
        i = _first(pages, fam)
        text = out["content_text"][i].as_py().replace("\n", " ", 1)
        assert checks.check_extracted(pages, _edit(out, i, content_text=text))
    i = _first(pages, "badutf8")
    assert checks.check_extracted(pages, _edit(out, i, status="ok"))


def test_swapped_capture_text_fails(recrawl):
    pages, out = recrawl
    urls = out["url"].to_pylist()
    i = next(k for k, p in enumerate(pages) if p.family == "article" and urls.count(p.url) > 1)
    j = next(k for k in range(len(pages)) if k != i and urls[k] == urls[i])
    a, b = out["content_text"][i].as_py(), out["content_text"][j].as_py()
    assert a != b
    swapped = _edit(_edit(out, i, content_text=b), j, content_text=a)
    assert checks.check_extracted(pages, swapped)


def test_bad_spans_fail(crawl):
    pages, out = crawl
    i = _first(pages, "article")
    spans = out["content_spans"][i].as_py()
    assert len(spans) > 2
    assert checks.check_extracted(pages, _edit(out, i, content_spans=spans[::-1]))
    overlap = [dict(spans[0]), dict(spans[1])]
    overlap[1]["start"] = overlap[0]["start"]
    assert checks.check_extracted(pages, _edit(out, i, content_spans=overlap + spans[2:]))
    past = spans[:-1] + [{"start": spans[-1]["start"], "end": pages[i].doc_len + 1}]
    assert checks.check_extracted(pages, _edit(out, i, content_spans=past))


def test_missing_or_extra_row_fails(crawl):
    pages, out = crawl
    assert checks.check_extracted(pages, out.slice(1))
    assert checks.check_extracted(pages, pa.concat_tables([out, out.slice(0, 1)]))


def test_checksum_follows_definition(recrawl):
    import hashlib

    rows = [("u1", 5, "late"), ("u1", 2, "early"), ("u2", 1, "x")]
    total = sum(int.from_bytes(hashlib.sha256(u.encode() + b"\0" + t.encode()).digest(), "big")
                for u, t in (("u1", "early"), ("u2", "x"))) % (1 << 256)
    assert checks.checksum(rows) == f"2:{total:064x}"
    # a later capture does not count, the earliest does
    assert checks.checksum([("u1", 5, "other")] + rows[1:]) == checks.checksum(rows)
    assert checks.checksum([rows[0], ("u1", 2, "other"), rows[2]]) != checks.checksum(rows)
    # without the dedup every row counts
    every = sum(int.from_bytes(hashlib.sha256(u.encode() + b"\0" + t.encode()).digest(), "big")
                for u, _, t in rows) % (1 << 256)
    assert checks.checksum(rows, dedup=False) == f"3:{every:064x}"


def test_checksum_matches_program_spec_and_catches_a_wrong_one(recrawl):
    from xtract.oracle import corpus_checksum

    pages, out = recrawl
    earliest: dict = {}
    for r in out.to_pylist():
        if r["url"] not in earliest or r["warc_ts"] < earliest[r["url"]]["warc_ts"]:
            earliest[r["url"]] = r
    want = checks.table_checksum(out)
    assert corpus_checksum(earliest.values()) == want
    first = {}
    for k, p in enumerate(pages):
        if p.family == "article" and (p.url not in first or p.warc_ts < pages[first[p.url]].warc_ts):
            first[p.url] = k
    i = next(iter(first.values()))
    wrong = checks.table_checksum(_edit(out, i, content_text=out["content_text"][i].as_py() + "!"))
    assert wrong != want


def test_ray_vs_in_process_difference_fails(crawl):
    pages, out = crawl
    i = _first(pages, "article")
    assert checks.check_same(out, _edit(out, i, content_text="x"))


def test_manifest_check():
    ms = [{"n_rows": 3, "complete": True}, {"n_rows": 4, "complete": True}]
    assert checks.check_manifests(ms, 7) == []
    assert checks.check_manifests(ms, 8)
    assert checks.check_manifests(ms[:1] + [{"n_rows": 4, "complete": False}], 7)


def test_malformed_alto_fails(layout):
    pages, rows, rendered = layout
    bad = [dict(r) for r in rendered]
    k = next(i for i, r in enumerate(bad) if r["format"] == "alto")
    bad[k]["payload"] = bad[k]["payload"].replace("</TextBlock>", "", 1)
    assert checks.check_layout(pages, rows, bad)


def test_render_word_mismatch_fails(layout):
    pages, rows, rendered = layout
    page = pages[_first(pages, "article")]
    for fmt in ("alto", "hocr", "tsv"):
        bad = [dict(r) for r in rendered]
        k = next(i for i, r in enumerate(bad) if r["format"] == fmt and r["url"] == page.url)
        word = page.units[1].split()[0]
        assert word in bad[k]["payload"]
        bad[k]["payload"] = bad[k]["payload"].replace(word, "zzz", 1)
        assert checks.check_layout(pages, rows, bad), fmt
    k = next(i for i, r in enumerate(rendered) if r["format"] == "tsv")
    assert checks.check_layout(pages, rows, rendered[:k] + rendered[k + 1:])


def test_bad_word_offsets_and_missing_para_fail(layout):
    pages, rows, rendered = layout
    bad = [dict(r) for r in rows]
    k = next(i for i, r in enumerate(bad) if r["level"] == "word" and r["span_start"] > 0)
    bad[k]["span_start"] -= 1
    assert checks.check_layout(pages, bad, rendered)
    k = next(i for i, r in enumerate(rows) if r["level"] == "para")
    assert checks.check_layout(pages, rows[:k] + rows[k + 1:], rendered)
    bad = [dict(r) for r in rows]
    k = next(i for i, r in enumerate(bad) if r["level"] == "line")
    bad[k]["text"] = bad[k]["text"] + " extra"
    bad[k]["span_end"] += 6
    assert checks.check_layout(pages, bad, rendered)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload):
    a, b = gen.generate(workload, 5), gen.generate(workload, 5)
    assert a == b
    assert a != gen.generate(workload, 6)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_every_seed_gives_equal_work(workload):
    def shape(pages):
        fams: dict = {}
        for p in pages:
            fams[p.family] = fams.get(p.family, 0) + 1
        return fams, gen.expected_statuses(pages)

    runs = [gen.generate(workload, s) for s in (1, 2, 3, 17, 1000)]
    assert all(shape(r) == shape(runs[0]) for r in runs)
    for measure in (lambda ps: sum(len(p.html or b"") + len((p.text or "").encode()) for p in ps),
                    gen.html_bytes):
        sizes = [measure(r) for r in runs]
        assert max(sizes) <= 1.01 * min(sizes), sizes
