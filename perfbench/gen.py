"""Seeded input generator for the xtract benchmark.

Imports nothing from ``xtract``: every expectation the checks use
(status, planted main-text units, boilerplate strings, exact text for
crawl-text and PDF rows, the bytes that reach the HTML parser) is
written down here while the page is built, not derived from the
program.

Every seed gives the same page count per family; page bodies are
filled to a fixed byte target, so byte totals agree within well under
1% across seeds.  The seed only picks words, orderings and which
markup variant a page uses.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Optional

EPOCH_US = 1_790_000_000_000_000  # 2026-09-21, fixed so timestamps are seed-independent

# Main-text vocabulary: lowercase, no word shared with BOILER_WORDS.
WORDS = (
    "river market garden winter station window harbor bridge engine "
    "valley mountain forest village council library museum school "
    "teacher student farmer doctor painter writer captain pilot sailor "
    "report letter journal record chapter volume measure pattern "
    "signal method system process product quality season harvest "
    "morning evening weather climate ocean island desert canyon "
    "railway highway tunnel factory workshop kitchen bakery theatre "
    "concert festival history science physics biology chemistry "
    "economy budget revenue policy treaty election parliament "
    "citizen neighbour traveller visitor stranger partner colleague "
    "silver copper granite marble timber cotton linen leather "
    "lantern compass anchor ladder basket barrel bottle candle "
    "orchard meadow prairie glacier volcano lagoon estuary plateau "
    "careful quiet bright narrow ancient modern gentle sudden steady "
    "builds carries collects describes explains follows gathers holds "
    "improves keeps measures opens prepares reaches shows studies "
    "travels visits watches writes repairs plants sells counts"
).split()
STOP = "the and of to a in is it that was for on are with as at from by this".split()

# Boilerplate vocabulary: capitalised words that never occur in WORDS.
BOILER_WORDS = (
    "Home Sitemap Privacy Policy Terms Careers Advertise Newsletter "
    "Subscribe Login Register Contact Imprint Cookies Settings Archive "
    "Trending Sponsored Partners Affiliates Feedback Accessibility"
).split()

LEGACY_WORDS = ("café", "naïve", "résumé", "façade", "jalapeño", "Zürich", "Ærø")


@dataclass
class Page:
    """One input row plus what the checks expect of its output."""

    url: str
    warc_ts: int  # microseconds since the Unix epoch
    html: Optional[bytes]
    text: Optional[str]
    lang: Optional[str]
    family: str
    status: str
    units: list = field(default_factory=list)   # planted main text, in order
    boiler: list = field(default_factory=list)  # strings that must not survive
    exact: Optional[str] = None                 # full expected content_text
    doc_len: int = 0                            # bytes the spans index into
    seg_bytes: int = 0                          # bytes handed to the HTML parser


class _Words:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def sentence(self, n: int) -> str:
        r = self.rng
        out = []
        for i in range(n):
            out.append(r.choice(STOP) if i % 4 == 2 else r.choice(WORDS))
        return " ".join(out)

    def boiler(self, n: int) -> str:
        return " ".join(self.rng.choice(BOILER_WORDS) for _ in range(n))


def _page(w: _Words, tag: str, main: str, charset: str = "utf-8",
          close: bool = True) -> tuple[str, list]:
    """Wrap main-content markup in a head and navigation, aside and
    footer chrome → (page, boilerplate strings).  Boilerplate strings
    are built from BOILER_WORDS only, so none can occur in main text."""
    title = w.boiler(3)
    links = [w.boiler(2) for _ in range(6)]
    aside = [w.boiler(3) for _ in range(3)]
    foot = [w.boiler(4), w.boiler(2)]
    page = (
        f"<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"{charset}\">"
        f"<title>{title}</title><style>body{{margin:0}} p{{color:#222}}</style>"
        f"<script>var x = \"<p>{links[0]}</p>\";</script></head><body>"
        f"<header><div class=\"logo\">{links[0]}</div><nav><ul>"
        + "".join(f"<li><a href=\"/{i}\">{t}</a></li>" for i, t in enumerate(links[1:]))
        + "</ul></nav></header>" + main + "<aside><ul>"
        + "".join(f"<li><a href=\"/r{i}\">{t}</a></li>" for i, t in enumerate(aside))
        + f"</ul></aside><footer><p>{foot[0]}</p><a href=\"/p\">{foot[1]}</a> "
        f"<span>{tag}</span></footer>" + ("</body></html>" if close else ""))
    return page, [title, tag] + links + aside + foot


#: bytes of chrome around the main content, used to size the main part
_CHROME = 900


def _para_html(w: _Words, r: random.Random) -> tuple[str, str]:
    """One <p> with optional inline markup → (html, unit text)."""
    a, b, c = w.sentence(r.randint(6, 14)), w.sentence(r.randint(3, 6)), w.sentence(r.randint(8, 20))
    v = r.randrange(4)
    if v == 2 and 5 * len(b) > len(a) + len(c):
        v = 1  # a paragraph that is mostly link text is navigation, not content
    if v == 0:
        return f"<p>{a} {b} {c}.</p>", f"{a} {b} {c}."
    if v == 1:
        return f"<p>{a} <b>{b}</b> {c}.</p>", f"{a} {b} {c}."
    if v == 2:
        return (f"<p>{a} <a href=\"/k\">{b}</a> &amp; {c}.</p>", f"{a} {b} & {c}.")
    return f"<p class=\"x\">{a} <em>{b}</em><br>{c}.</p>", f"{a} {b}\n{c}."


def _article(w: _Words, r: random.Random, target: int) -> tuple[str, list]:
    title = w.sentence(5)
    units = [title]
    body = [f"<main><article><h1>{title}</h1>"]
    size = _CHROME
    while size < target:
        h, u = _para_html(w, r)
        body.append(h + "\n")
        units.append(u)
        size += len(h) + 1
    body.append("</article></main>")
    return "".join(body), units


def _table(w: _Words, r: random.Random, target: int) -> tuple[str, list]:
    title = w.sentence(5)
    heads = [w.sentence(3) for _ in range(3)]
    units = [title] + heads
    parts = [f"<main><h2>{title}</h2><table><thead><tr>"
             + "".join(f"<th>{h}</th>" for h in heads) + "</tr></thead><tbody>"]
    size = _CHROME + 300
    while size < target:
        cells = [w.sentence(r.randint(3, 8)) for _ in range(3)]
        row = "<tr>" + "".join(f"<td>{c}</td>" for c in cells) + "</tr>\n"
        parts.append(row)
        units += cells
        size += len(row)
    tail, u = _para_html(w, r)
    parts.append("</tbody></table>" + tail + "</main>")
    units.append(u)
    return "".join(parts), units


def _lists(w: _Words, r: random.Random, target: int) -> tuple[str, list]:
    title = w.sentence(5)
    units = [title]
    parts = [f"<main><h1>{title}</h1>"]
    size = _CHROME
    while size < target:
        kind = r.randrange(3)
        items = [w.sentence(r.randint(3, 10)) for _ in range(r.randint(3, 6))]
        if kind == 0:
            s = "<ul>" + "".join(f"<li>{i}</li>" for i in items) + "</ul>\n"
        elif kind == 1:  # unclosed <li>: closed by the next <li> and </ol>
            s = "<ol>" + "".join(f"<li>{i}" for i in items) + "</ol>\n"
        else:  # unclosed <dt>/<dd>
            s = "<dl>" + "".join(f"<{'dd' if k % 2 else 'dt'}>{i}"
                                 for k, i in enumerate(items)) + "</dl>\n"
        parts.append(s)
        units += items
        size += len(s)
    parts.append("</main>")
    return "".join(parts), units


def _malformed(w: _Words, r: random.Random, target: int) -> tuple[str, list]:
    """Markup a browser recovers from: unclosed <p>, stray end tags,
    upper-case tags and unquoted attributes, an unclosed inline tag and
    a bare '<' in text (the page also omits </body></html>)."""
    title = w.sentence(5)
    units = [title]
    parts = [f"<MAIN><H1>{title}</H1>"]
    size = _CHROME
    k = 0
    while size < target:
        a, b = w.sentence(r.randint(6, 14)), w.sentence(r.randint(4, 10))
        v = k % 4
        if v == 0:
            s, u = f"<p>{a} {b}\n", f"{a} {b}"
        elif v == 1:
            s, u = f"<P CLASS=lead>{a} </span>{b}</P>\n", f"{a} {b}"
        elif v == 2:
            s, u = f"<div><p>{a} < {b}</div>\n", f"{a} < {b}"
        else:
            s, u = f"<p>{a} <i>{b}</p>\n", f"{a} {b}"
        parts.append(s)
        units.append(u)
        size += len(s)
        k += 1
    parts.append("</MAIN>")
    return "".join(parts), units


def _legacy(w: _Words, r: random.Random, target: int) -> tuple[str, list]:
    title = w.sentence(5)
    units = [title]
    parts = [f"<main><h1>{title}</h1>"]
    size = _CHROME
    while size < target:
        u = (f"{w.sentence(r.randint(6, 12))} {r.choice(LEGACY_WORDS)} "
             f"{w.sentence(r.randint(4, 10))}.")
        parts.append(f"<p>{u}</p>\n")
        units.append(u)
        size += len(u) + 8
    parts.append("</main>")
    return "".join(parts), units


def _pdf(lines: list[str], compress: bool) -> bytes:
    ops = ["BT /F1 11 Tf 72 720 Td"]
    for i, ln in enumerate(lines):
        esc = ln.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)")
        if i:
            ops.append("T*" if i % 2 else "0 -14 Td")
        if i % 3 == 2:  # split a line across a TJ array
            cut = len(esc) // 2
            while esc[cut - 1] == "\\":
                cut += 1
            ops.append(f"[({esc[:cut]}) -20 ({esc[cut:]})] TJ")
        else:
            ops.append(f"({esc}) Tj")
    ops.append("ET")
    body = "\n".join(ops).encode("latin-1")
    hdr = b"<< /Length %d >>" % len(body)
    if compress:
        body = zlib.compress(body)
        hdr = b"<< /Length %d /Filter /FlateDecode >>" % len(body)
    return (b"%PDF-1.4\n1 0 obj\n<< /Type /Catalog >>\nendobj\n4 0 obj\n" + hdr
            + b"\nstream\n" + body + b"\nendstream\nendobj\ntrailer\n<< >>\n%%EOF\n")


def _pdf_lines(w: _Words, r: random.Random, n: int) -> list[str]:
    return [w.sentence(r.randint(5, 12)) + (" (see note)" if i % 4 == 1 else "")
            for i in range(n)]


def _crawl_text(w: _Words, r: random.Random, n: int) -> tuple[str, str]:
    """Crawl-provided plain text with messy whitespace → (text, expected)."""
    lines = [w.sentence(r.randint(4, 12)) for _ in range(n)]
    raw, want = [], []
    for i, ln in enumerate(lines):
        words = ln.split(" ")
        sep = ("  ", "\t", " \xa0 ", " ")[i % 4]
        raw.append(("  " if i % 3 == 0 else "") + sep.join(words) + (" \t" if i % 2 else ""))
        want.append(ln)
        if i % 5 == 4:
            raw.append("   ")  # whitespace-only line: dropped
    return "\n".join(raw), "\n".join(want)


def _html(url, ts, family, page: str, units, boiler, raw: Optional[bytes] = None) -> Page:
    seg = len(page.encode("utf-8"))
    return Page(url, ts, raw if raw is not None else page.encode("utf-8"), None, None,
                family, "ok", units, boiler, doc_len=seg, seg_bytes=seg)


_MAINS = {"article": _article, "table": _table, "lists": _lists,
          "malformed": _malformed}


def _crawl_page(w: _Words, r: random.Random, family: str, url: str, ts: int,
                target: int) -> Page:
    tag = w.boiler(2)
    if family in _MAINS or family == "huge":
        main, units = _MAINS.get(family, _article)(
            w, r, 200_000 if family == "huge" else target)
        page, boiler = _page(w, tag, main, close=family != "malformed")
        return _html(url, ts, family, page, units, boiler)
    if family == "legacy":
        charset = ("windows-1252", "iso-8859-1")[r.randrange(2)]
        main, units = _legacy(w, r, target)
        page, boiler = _page(w, tag, main, charset)
        raw = page.encode("cp1252" if charset == "windows-1252" else "latin-1")
        return _html(url, ts, family, page, units, boiler, raw=raw)
    if family == "badutf8":
        main, _ = _article(w, r, target)
        page, _ = _page(w, tag, main)
        cut = page.index("</h1>")
        raw = page[:cut].encode() + b"\xff\xfe bad \xc3\x28" + page[cut:].encode()
        return Page(url, ts, raw, None, None, family, "bad_encoding", exact="",
                    doc_len=len(raw))
    if family == "pdf":
        lines = _pdf_lines(w, r, r.randint(6, 14))
        data = _pdf(lines, compress=r.random() < 0.5)
        return Page(url, ts, data, None, None, family, "ok", exact="\n".join(lines),
                    doc_len=len(data))
    if family == "text":
        text, want = _crawl_text(w, r, r.randint(4, 10))
        return Page(url, ts, None, text, "en", family, "ok", exact=want,
                    doc_len=len(want.encode()))
    if family == "empty":
        return Page(url, ts, b"", None, None, family, "empty", exact="")
    raise ValueError(family)


#: pages per family in crawl_mix (fixed for every seed)
CRAWL_MIX = (("article", 420), ("table", 30), ("lists", 30), ("malformed", 24),
             ("legacy", 18), ("badutf8", 9), ("pdf", 24), ("text", 24),
             ("empty", 9), ("huge", 2))


def crawl_mix(seed: int) -> list[Page]:
    r = random.Random(f"crawl_mix:{seed}")
    w = _Words(r)
    fams = [f for f, n in CRAWL_MIX for _ in range(n)]
    r.shuffle(fams)
    pages = []
    for i, fam in enumerate(fams):
        url = f"https://site{r.randrange(40):02d}.example/{fam}/{i:05d}-{r.randrange(10**6):06d}"
        pages.append(_crawl_page(w, r, fam, url, EPOCH_US + i * 1_000_000, 8_000))
    return pages


#: recrawl_job: urls × captures, families of the short pages
RECRAWL_URLS = 300
RECRAWL_CAPTURES = 4
RECRAWL_FAMILIES = (("article", 6), ("text", 2), ("pdf", 2))


def recrawl_job(seed: int) -> list[Page]:
    r = random.Random(f"recrawl_job:{seed}")
    w = _Words(r)
    fams = [f for f, n in RECRAWL_FAMILIES for _ in range(n)]
    fams = fams * (RECRAWL_URLS // len(fams))
    r.shuffle(fams)
    pages = []
    for u, fam in enumerate(fams):
        url = f"https://news{r.randrange(20):02d}.example/{fam}/{u:05d}"
        # distinct capture times, in a seed-dependent order
        offs = r.sample(range(1, 1000), RECRAWL_CAPTURES)
        for c, off in enumerate(offs):
            pages.append(_crawl_page(w, r, fam, url, EPOCH_US + off * 3_600_000_000
                                     + u * 1_000, 1_500))
    r.shuffle(pages)
    return pages


WORKLOADS = {"crawl_mix": crawl_mix, "recrawl_job": recrawl_job}

#: input files per workload (recrawl_job: many small files)
N_FILES = {"crawl_mix": 16, "recrawl_job": 40}


def generate(workload: str, seed: int) -> list[Page]:
    return WORKLOADS[workload](seed)


def write_parquet(pages: list[Page], out_dir: str, n_files: int) -> list[str]:
    """Write the input rows round-robin into ``n_files`` Parquet files."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    schema = pa.schema([("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                        ("html", pa.binary()), ("text", pa.string()),
                        ("lang", pa.string())])
    paths = []
    for k in range(n_files):
        rows = pages[k::n_files]
        t = pa.table({
            "url": [p.url for p in rows], "warc_ts": [p.warc_ts for p in rows],
            "html": [p.html for p in rows], "text": [p.text for p in rows],
            "lang": [p.lang for p in rows]}, schema=schema)
        path = os.path.join(out_dir, f"part-{k:03d}.parquet")
        pq.write_table(t, path)
        paths.append(path)
    return paths


def html_bytes(pages: list[Page]) -> int:
    """Bytes handed to the HTML parser: UTF-8 HTML as is, legacy-charset
    HTML after transcoding to UTF-8."""
    return sum(p.seg_bytes for p in pages)


def expected_statuses(pages: list[Page]) -> dict:
    out: dict = {}
    for p in pages:
        out[p.status] = out.get(p.status, 0) + 1
    return out
