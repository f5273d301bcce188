"""Single-pass block segmentation over the token stream.

One HTML document → an ordered list of :class:`Block` records — the
relational form of the reference's block→para→line→word layout
hierarchy (``PageIterator``/``ResultIterator``,
``src/page_iterator.rs:52-58``, ``src/result_iterator.rs:214-220``).
Byte spans into the source play the role of bounding boxes
(``src/page_iterator.rs:110-134``); tag paths play the role of layout
position.  No tree is materialized: a stack machine walks the tokens
once, flushing a block whenever a block-level boundary is crossed.

Everything here is deterministic pure Python over one document —
shared verbatim by the sequential oracle and the Ray actor stage.
"""

from __future__ import annotations

import html as _htmlmod
import re
from typing import Optional

from .dom import (
    BLOCK_ELEMENTS,
    BOILER_TAGS,
    BOLD_TAGS,
    CAPTION_TAGS,
    CELL_TAGS,
    CLOSES_P,
    HEADING_TAGS,
    IMPLIED_CLOSE,
    ITALIC_TAGS,
    LIST_ITEM_TAGS,
    MONO_TAGS,
    SCOPE_BARRIERS,
    SUB_TAGS,
    SUP_TAGS,
    TABLE_TAGS,
    VOID_ELEMENTS,
)
from .html_tokenizer import RAW_TEXT_ELEMENTS as _RAW_TEXT
from .html_tokenizer import parse_attrs, scan

_WS_RE = re.compile(r"[\s\xa0]+")
_SPACES_RE = re.compile(r" {2,}")
_NL_SPACE_RE = re.compile(r" *\n+ *")
unescape = _htmlmod.unescape


class Block:
    """One segmented text block (pre-classification)."""

    __slots__ = (
        "block_id", "tag", "parent_path", "depth", "text", "spans",
        "span_start", "span_end", "n_chars", "n_link_chars", "n_words",
        "n_link_words", "heading_level", "is_list_item", "in_table",
        "is_caption", "in_boiler", "is_title", "in_blockquote", "is_bold",
        "is_italic", "is_mono", "has_sup", "has_sub", "justification",
        "block_type", "is_content", "confidence", "lang",
    )

    def __init__(self) -> None:
        self.block_id = -1
        self.tag = ""
        self.parent_path = ""
        self.depth = 0
        self.text = ""
        self.spans: list[tuple[int, int]] = []
        self.span_start = -1
        self.span_end = -1
        self.n_chars = 0
        self.n_link_chars = 0
        self.n_words = 0
        self.n_link_words = 0
        self.heading_level = 0
        self.is_list_item = False
        self.in_table = False
        self.is_caption = False
        self.in_boiler = False
        self.is_title = False
        self.in_blockquote = False
        self.is_bold = False
        self.is_italic = False
        self.is_mono = False
        self.has_sup = False
        self.has_sub = False
        self.justification = "UNKNOWN"
        self.block_type = "UNKNOWN"
        self.is_content = False
        self.confidence = 0
        self.lang = ""


#: subtrees that never contribute rendered text: ruby annotation text
#: (rt) and its fallback parentheses (rp), and the option lists of
#: form widgets (select, datalist) — extraction keeps the page's
#: prose, not UI chrome (trafilatura/readability behavior)
_INERT_TAGS = frozenset({"rt", "rp", "select", "datalist"})

_ALIGN_RE = re.compile(rb"align", re.I)
_TEXT_ALIGN_RE = re.compile(r"text-align\s*:\s*(left|right|center|justify)", re.I)


class _Open:
    __slots__ = ("tag", "path", "child_counts", "justification", "hidden")

    def __init__(self, tag: str, path: str) -> None:
        self.tag = tag
        self.path = path
        self.child_counts: dict[str, int] = {}
        self.justification: Optional[str] = None
        self.hidden = False


class Segmenter:
    """Stack machine: ``scan`` callbacks in, finished Blocks out."""

    def __init__(self, html: bytes) -> None:
        self.html = html
        self.blocks: list[Block] = []
        self.stack: list[_Open] = [_Open("#root", "")]
        # inherited style/context depth counters
        self.link_d = 0
        self.boiler_d = 0
        self.bold_d = 0
        self.italic_d = 0
        self.mono_d = 0
        self.sup_d = 0
        self.sub_d = 0
        self.li_d = 0
        self.cell_d = 0
        self.caption_d = 0
        self.bq_d = 0
        self.title_d = 0
        # <template> content is INERT per the HTML spec (parsed, never
        # rendered) — depth-tracked so nested markup inside it emits no
        # text and no line breaks (trafilatura/readability behavior)
        self.template_d = 0
        # elements carrying the boolean `hidden` attribute or
        # aria-hidden="true" never render either — per-entry flag so
        # the depth counter decrements exactly when that entry pops
        self.hidden_d = 0
        self.p_open = 0   # open <p> count (fast CLOSES_P check)
        self.heading = 0  # innermost heading level
        self._cur: Optional[Block] = None
        self._parts: list[str] = []
        self._link_flags: list[bool] = []
        # incremental nearest-ancestor state (O(1) at _open_block
        # instead of two stack scans per block): block-level anchors
        # and explicit-justification holders currently open
        self._banchors: list[_Open] = []
        self._justs: list[_Open] = []

    # -- depth-counter bookkeeping -------------------------------------------
    def _enter(self, tag: str) -> None:
        if tag == "a":
            self.link_d += 1
        elif tag in BOILER_TAGS:
            self.boiler_d += 1
        elif tag in BOLD_TAGS:
            self.bold_d += 1
        elif tag in ITALIC_TAGS:
            self.italic_d += 1
        elif tag in MONO_TAGS:
            self.mono_d += 1
        elif tag in SUP_TAGS:
            self.sup_d += 1
        elif tag in SUB_TAGS:
            self.sub_d += 1
        elif tag in LIST_ITEM_TAGS:
            self.li_d += 1
        elif tag in CELL_TAGS:
            self.cell_d += 1
        elif tag in CAPTION_TAGS:
            self.caption_d += 1
        elif tag == "blockquote":
            self.bq_d += 1
        elif tag == "title":
            self.title_d += 1
        elif tag == "template":
            self.template_d += 1
        if tag in HEADING_TAGS:
            self.heading = HEADING_TAGS[tag]

    def _leave(self, tag: str) -> None:
        if tag == "a":
            self.link_d = max(0, self.link_d - 1)
        elif tag in BOILER_TAGS:
            self.boiler_d = max(0, self.boiler_d - 1)
        elif tag in BOLD_TAGS:
            self.bold_d = max(0, self.bold_d - 1)
        elif tag in ITALIC_TAGS:
            self.italic_d = max(0, self.italic_d - 1)
        elif tag in MONO_TAGS:
            self.mono_d = max(0, self.mono_d - 1)
        elif tag in SUP_TAGS:
            self.sup_d = max(0, self.sup_d - 1)
        elif tag in SUB_TAGS:
            self.sub_d = max(0, self.sub_d - 1)
        elif tag in LIST_ITEM_TAGS:
            self.li_d = max(0, self.li_d - 1)
        elif tag in CELL_TAGS:
            self.cell_d = max(0, self.cell_d - 1)
        elif tag in CAPTION_TAGS:
            self.caption_d = max(0, self.caption_d - 1)
        elif tag == "blockquote":
            self.bq_d = max(0, self.bq_d - 1)
        elif tag == "title":
            self.title_d = max(0, self.title_d - 1)
        elif tag == "template":
            self.template_d = max(0, self.template_d - 1)
        if tag in HEADING_TAGS:
            # recompute innermost heading from remaining stack
            self.heading = 0
            for o in self.stack:
                if o.tag in HEADING_TAGS:
                    self.heading = HEADING_TAGS[o.tag]

    # -- block accumulation ---------------------------------------------------
    def _open_block(self) -> None:
        b = Block()
        # anchor the block at the nearest block-level container (inline
        # wrappers like <a>/<b> are not layout parents) — maintained
        # incrementally by _push/_pop, O(1) here
        top = self._banchors[-1] if self._banchors else self.stack[0]
        b.tag = top.tag
        b.parent_path = top.path
        b.depth = len(self.stack) - 1
        b.heading_level = self.heading
        b.is_list_item = self.li_d > 0
        b.in_table = self.cell_d > 0
        b.is_caption = self.caption_d > 0
        b.in_boiler = self.boiler_d > 0
        b.is_title = self.title_d > 0
        b.in_blockquote = self.bq_d > 0
        b.is_bold = self.bold_d > 0
        b.is_italic = self.italic_d > 0
        b.is_mono = self.mono_d > 0
        # justification: nearest explicit align on the open ancestry
        if self._justs:
            b.justification = self._justs[-1].justification
        self._cur = b
        self._parts = []
        self._link_flags = []

    def text_run(self, start: int, end: int) -> None:
        if self.template_d or self.hidden_d:   # never-rendered content
            return
        # fastest path: the single space/newline between adjacent tags
        # (the most common text run in rendered HTML) — no slice at all
        if end - start == 1 and self.html[start] in _WS_BYTES:
            parts = self._parts
            if self._cur is not None and parts and \
                    parts[-1] not in (" ", "\n"):
                parts.append(" ")
                self._link_flags.append(False)
            return
        raw = self.html[start:end]
        # fast path: pure-ASCII-whitespace run (the inter-tag newlines that
        # dominate rendered HTML) — no decode, no unescape, no regex
        if raw.isspace():
            if self._cur is not None and self._parts and                     self._parts[-1] not in (" ", "\n"):
                self._parts.append(" ")
                self._link_flags.append(False)
            return
        try:
            s = raw.decode("utf-8")
        except UnicodeDecodeError:
            # doc-level strict validation happens upstream; per-run we replace
            s = raw.decode("utf-8", "replace")
        if "&" in s:
            s = unescape(s)
        # fast path (measured 99.7% of non-whitespace runs on the bench
        # corpus): ASCII text whose only whitespace is isolated single
        # spaces is ALREADY collapsed — the regex would be an identity,
        # so six C-speed scans replace 1M re.sub calls per ~2.6k docs.
        # Non-ASCII goes through the regex (unicode \s is wider).
        if (s.isascii() and "\t" not in s and "\n" not in s
                and "\r" not in s and "\x0c" not in s
                and "\x0b" not in s and "  " not in s):
            collapsed = s
        else:
            collapsed = _WS_RE.sub(" ", s)
        if collapsed == " " or collapsed == "":
            if self._cur is not None and self._parts and self._parts[-1] not in (" ", "\n"):
                self._parts.append(" ")
                self._link_flags.append(False)
            return
        if self._cur is None:
            self._open_block()
        b = self._cur
        if self.sup_d > 0:
            b.has_sup = True
        if self.sub_d > 0:
            b.has_sub = True
        if self.bold_d > 0:
            b.is_bold = True
        if self.italic_d > 0:
            b.is_italic = True
        if self.mono_d > 0:
            b.is_mono = True
        self._parts.append(collapsed)
        self._link_flags.append(self.link_d > 0)
        stripped = collapsed.strip()
        b.n_chars += len(stripped)
        nw = len(stripped.split())
        b.n_words += nw
        if self.link_d > 0:
            b.n_link_chars += len(stripped)
            b.n_link_words += nw
        b.spans.append((start, end))

    def line_break(self) -> None:
        if self.template_d or self.hidden_d:   # never-rendered content
            return
        if self._cur is not None:
            self._parts.append("\n")
            self._link_flags.append(False)

    def flush(self) -> None:
        b = self._cur
        self._cur = None
        if b is None:
            return
        text = "".join(self._parts)
        if "  " in text:                     # no-op guard (C scan)
            text = _SPACES_RE.sub(" ", text)
        if "\n" in text:                     # no-op guard (C scan)
            text = _NL_SPACE_RE.sub("\n", text)
        text = text.strip(" \n")
        if not text:
            return
        b.text = text
        b.span_start = b.spans[0][0]
        b.span_end = b.spans[-1][1]
        b.block_id = len(self.blocks)
        self.blocks.append(b)

    # -- stack operations -----------------------------------------------------
    def _push(self, tag: str, attrs_b: bytes) -> None:
        top = self.stack[-1]
        idx = top.child_counts.get(tag, 0) + 1
        top.child_counts[tag] = idx
        path = f"{top.path}/{tag}[{idx}]" if top.path else f"{tag}[{idx}]"
        o = _Open(tag, path)
        if tag == "p":
            self.p_open += 1
        if attrs_b and b"hidden" in attrs_b:
            # cheap substring pre-filter; parse_attrs confirms a real
            # attribute (not class="hidden-x")
            a = parse_attrs(attrs_b)
            if "hidden" in a or a.get("aria-hidden", "").lower() == "true":
                o.hidden = True
                self.hidden_d += 1
        if tag == "dialog" and not o.hidden:
            # a <dialog> renders only when the open attribute is present
            if not (attrs_b and b"open" in attrs_b
                    and "open" in parse_attrs(attrs_b)):
                o.hidden = True
                self.hidden_d += 1
        if tag in _INERT_TAGS and not o.hidden:
            # ruby annotations (rt/rp) and form-widget option lists
            # (select/datalist) are never part of the rendered text
            # flow — same never-renders mechanism as hidden/dialog
            o.hidden = True
            self.hidden_d += 1
        if attrs_b and _ALIGN_RE.search(attrs_b):
            attrs = parse_attrs(attrs_b)
            just = attrs.get("align", "")
            if not just:
                m = _TEXT_ALIGN_RE.search(attrs.get("style", ""))
                just = m.group(1) if m else ""
            if just:
                o.justification = {"left": "LEFT", "right": "RIGHT", "center": "CENTER",
                                   "justify": "JUSTIFY"}.get(just.lower())
        self.stack.append(o)
        if tag in BLOCK_ELEMENTS:
            self._banchors.append(o)
        if o.justification:
            self._justs.append(o)
        self._enter(tag)

    def _pop(self) -> None:
        if len(self.stack) > 1:
            o = self.stack.pop()
            if o.tag == "p":
                self.p_open -= 1
            if o.tag in BLOCK_ELEMENTS:
                self._banchors.pop()
            if o.justification:
                self._justs.pop()
            if o.hidden:
                self.hidden_d -= 1
            self._leave(o.tag)

    def start_tag(self, tag: str, attrs_b: bytes, selfclose: bool, start: int,
                  end: int) -> None:
        is_block = tag in BLOCK_ELEMENTS or tag == "hr"
        if is_block and self._cur is not None:   # inline no-op guard
            self.flush()
        # implied end tags
        if self.p_open and tag in CLOSES_P:
            # only close a p that is "near" — no block barrier between
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t == "p":
                    while len(self.stack) > i:
                        self._pop()
                    break
                if t in BLOCK_ELEMENTS:
                    break
        closes = IMPLIED_CLOSE.get(tag)
        if closes:
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t in closes:
                    while len(self.stack) > i:
                        self._pop()
                    break
                if t in BLOCK_ELEMENTS and t not in closes:
                    break
        if tag == "br":
            self.line_break()
            return
        if tag in VOID_ELEMENTS:
            return
        # HTML5: the self-closing slash is IGNORED on normal elements
        # (<div/> stays open like in browsers); we honor it only for
        # raw-text elements, matching the tokenizer (which does not
        # raw-capture after a self-closed <script/>)
        if selfclose and tag in _RAW_TEXT:
            return
        self._push(tag, attrs_b)

    def end_tag(self, tag: str, start: int, end: int) -> None:
        if tag == "br" or tag in VOID_ELEMENTS:
            return
        # find nearest matching open tag; a stray end tag (not open) is
        # ignored entirely — no flush, no pop (HTML5-ish recovery rule).
        # The search never crosses a SCOPE_BARRIERS element (table
        # scope, dom.py): a stray </div> inside a table cell must not
        # close an ancestor div outside the table.  Table-family end
        # tags may cross cells (</table> closes through an unclosed
        # <td>) but never html/body.
        table_family = tag in TABLE_TAGS
        for i in range(len(self.stack) - 1, 0, -1):
            t = self.stack[i].tag
            if t == tag:
                if tag in BLOCK_ELEMENTS and self._cur is not None:
                    self.flush()
                while len(self.stack) > i:
                    self._pop()
                return
            if table_family:
                if t in ("html", "body"):
                    return
            elif t in SCOPE_BARRIERS:
                return

    def finish(self) -> list[Block]:
        self.flush()
        while len(self.stack) > 1:
            self._pop()
        return self.blocks


#: the byte values bytes.isspace() treats as whitespace
_WS_BYTES = frozenset(b" \t\n\r\x0b\x0c")


def segment(html: bytes, monitor=None) -> list[Block]:
    """Tokenize + segment one HTML document into ordered blocks.

    ``html_tokenizer.scan`` drives the :class:`Segmenter`'s callbacks
    directly, so the hot path allocates no token tuples.  ``monitor``
    (xtract.monitor.Monitor) is checked by the scan: deadline expiry
    aborts the parse mid-document via ``ExtractionCancelled``."""
    seg = Segmenter(html)
    scan(html, seg.text_run, seg.start_tag, seg.end_tag, monitor=monitor)
    return seg.finish()
