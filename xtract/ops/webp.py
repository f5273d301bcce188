"""Lossless WebP (VP8L) codec, pure stdlib + numpy — WebP is the
modern web's third image format after JPEG/PNG; the lossless coding
(VP8L) half is fully spec-public (RFC 9649 §3, the WebP lossless
bitstream specification).  Lossy VP8 frames are honestly rejected
(``NotImplementedError`` → ``unsupported_codec``), as is animation
(ANIM/ANMF containers).

Decoder: RIFF walk → VP8L bitstream: LSB-first reading, canonical
prefix codes built DEFLATE-style from code lengths (themselves coded
via the 19-symbol code-length code with 16/17/18 repeats and the
max-symbol early-out), simple 1/2-symbol codes, optional color cache
(multiplicative 0x1e35a7bd hash), optional meta-prefix grouping
(entropy sub-image), LZ77 backward references with the 120-entry 2D
distance neighborhood map, and all four inverse transforms —
predictor (14 modes with the black/left/top edge rules), cross-color
(signed 3.5 fixed-point deltas), subtract-green, and color-indexing
(palette with delta-coded entries and sub-byte pixel bundling).
Output is (h, w, 3) uint8 RGB with alpha composited over white (the
`ops/png` convention); corrupt streams raise ``ValueError``.

Encoder: real VP8L writer used to synthesize fixtures that exercise
every decoder path — per-channel optimal prefix codes (reusing the
K.2 builder idiom), greedy LZ77 with distance-1 runs, color cache,
and any combination of the four transforms (constant predictor mode,
constant cross-color elements, palette incl. bundling).  Lossless by
construction: every encode→decode round-trip is pixel-exact.

Reference parity anchor: tesseract-rs ingests pre-decoded pixel
buffers (src/api.rs:1196-1239); leptonica builds read WebP when the
system library exists — here the lossless half is an explicit,
dependency-free, tested stage like its JPEG/PNG/GIF/TIFF siblings.
"""

from __future__ import annotations

import struct

import numpy as np

# code-length-code symbol order (RFC 9649 §3.7.2.2)
_CLC_ORDER = (17, 18, 0, 1, 2, 3, 4, 5, 16, 6, 7, 8, 9, 10, 11, 12,
              13, 14, 15)

# 2D distance neighborhood map: 120 (dx, dy) pairs (RFC 9649 §3.6.3)
_DIST_MAP = [
    (0, 1), (1, 0), (1, 1), (-1, 1), (0, 2), (2, 0), (1, 2), (-1, 2),
    (2, 1), (-2, 1), (2, 2), (-2, 2), (0, 3), (3, 0), (1, 3), (-1, 3),
    (3, 1), (-3, 1), (2, 3), (-2, 3), (3, 2), (-3, 2), (0, 4), (4, 0),
    (1, 4), (-1, 4), (4, 1), (-4, 1), (3, 3), (-3, 3), (2, 4), (-2, 4),
    (4, 2), (-4, 2), (0, 5), (3, 4), (-3, 4), (4, 3), (-4, 3), (5, 0),
    (1, 5), (-1, 5), (5, 1), (-5, 1), (2, 5), (-2, 5), (5, 2), (-5, 2),
    (4, 4), (-4, 4), (3, 5), (-3, 5), (5, 3), (-5, 3), (0, 6), (6, 0),
    (1, 6), (-1, 6), (6, 1), (-6, 1), (2, 6), (-2, 6), (6, 2), (-6, 2),
    (4, 5), (-4, 5), (5, 4), (-5, 4), (3, 6), (-3, 6), (6, 3), (-6, 3),
    (0, 7), (7, 0), (1, 7), (-1, 7), (5, 5), (-5, 5), (7, 1), (-7, 1),
    (4, 6), (-4, 6), (6, 4), (-6, 4), (2, 7), (-2, 7), (7, 2), (-7, 2),
    (3, 7), (-3, 7), (7, 3), (-7, 3), (5, 6), (-5, 6), (6, 5), (-6, 5),
    (8, 0), (4, 7), (-4, 7), (7, 4), (-7, 4), (8, 1), (8, 2), (6, 6),
    (-6, 6), (8, 3), (5, 7), (-5, 7), (7, 5), (-7, 5), (8, 4), (6, 7),
    (-6, 7), (7, 6), (-7, 6), (8, 5), (7, 7), (-7, 7), (8, 6), (8, 7),
]


class _Reader:
    """LSB-first bit reader (VP8L stream order)."""

    __slots__ = ("data", "bitpos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.bitpos = 0

    def bits(self, n: int) -> int:
        v = 0
        for i in range(n):
            byte = self.bitpos >> 3
            if byte >= len(self.data):
                raise ValueError("webp: truncated bitstream")
            v |= ((self.data[byte] >> (self.bitpos & 7)) & 1) << i
            self.bitpos += 1
        return v

    def bit(self) -> int:
        return self.bits(1)


def _canonical(lengths: list[int]) -> dict[tuple[int, int], int]:
    """DEFLATE canonical code: {(length, code): symbol}.  Codes are
    walked MSB-first bit by bit from the LSB-first stream."""
    out: dict[tuple[int, int], int] = {}
    code = 0
    maxlen = max(lengths) if lengths else 0
    for ln in range(1, maxlen + 1):
        for sym, sl in enumerate(lengths):
            if sl == ln:
                out[(ln, code)] = sym
                code += 1
        code <<= 1
    return out


def _decode_sym(rdr: _Reader, table) -> int:
    if isinstance(table, int):  # 0-bit code: single-symbol alphabet
        return table
    length = 0
    code = 0
    while length < 16:
        code = (code << 1) | rdr.bit()
        length += 1
        sym = table.get((length, code))
        if sym is not None:
            return sym
    raise ValueError("webp: bad prefix code")


def _read_prefix_code(rdr: _Reader, alphabet: int):
    """One prefix code (RFC 9649 §3.7.2): simple (1–2 symbols) or
    normal (code-length-coded).  → decode table or int (0-bit)."""
    if rdr.bit():  # simple
        n = rdr.bit() + 1
        first_8 = rdr.bit()
        s0 = rdr.bits(8 if first_8 else 1)
        if n == 1:
            return s0
        s1 = rdr.bits(8)
        return {(1, 0): s0, (1, 1): s1}
    num_cl = 4 + rdr.bits(4)
    cl_lengths = [0] * 19
    for i in range(num_cl):
        cl_lengths[_CLC_ORDER[i]] = rdr.bits(3)
    cl_table = _canonical(cl_lengths)
    if rdr.bit():  # use max_symbol
        nb = 2 + 2 * rdr.bits(3)
        max_symbol = 2 + rdr.bits(nb)
    else:
        max_symbol = alphabet
    lengths = [0] * alphabet
    prev_nz = 8
    i = 0
    while i < alphabet:
        if max_symbol <= 0:
            break
        max_symbol -= 1
        s = _decode_sym(rdr, cl_table)
        if s < 16:
            lengths[i] = s
            i += 1
            if s:
                prev_nz = s
        elif s == 16:
            rep = 3 + rdr.bits(2)
            for _ in range(rep):
                if i < alphabet:
                    lengths[i] = prev_nz
                    i += 1
        elif s == 17:
            i += 3 + rdr.bits(3)
        else:  # 18
            i += 11 + rdr.bits(7)
    nz = [ln for ln in lengths if ln]
    if len(nz) == 1:
        return lengths.index(nz[0])  # 0-bit code
    return _canonical(lengths)


def _prefix_value(rdr: _Reader, code: int) -> int:
    """Length/distance prefix symbol → value (RFC 9649 §3.6.2)."""
    if code < 4:
        return code + 1
    extra = (code - 2) >> 1
    offset = (2 + (code & 1)) << extra
    return offset + rdr.bits(extra) + 1


def _decode_entropy_image(rdr: _Reader, w: int, h: int,
                          allow_meta: bool) -> np.ndarray:
    """Entropy-coded ARGB image → (h, w, 4) uint8 [A,R,G,B].  Used
    for the main image (after transforms are read by the caller) and
    for transform/meta sub-images."""
    cache_bits = 0
    if rdr.bit():
        cache_bits = rdr.bits(4)
        if not 1 <= cache_bits <= 11:
            raise ValueError("webp: bad color cache size")
    meta = None
    meta_bits = 0
    n_groups = 1
    if allow_meta and rdr.bit():
        meta_bits = rdr.bits(3) + 2
        mw = -(-w // (1 << meta_bits))
        mh = -(-h // (1 << meta_bits))
        meta_img = _decode_entropy_image(rdr, mw, mh, False)
        meta = (meta_img[:, :, 1].astype(np.int32) << 8) \
            | meta_img[:, :, 2].astype(np.int32)
        n_groups = int(meta.max()) + 1
    cache_size = (1 << cache_bits) if cache_bits else 0
    groups = []
    for _ in range(n_groups):
        g = _read_prefix_code(rdr, 256 + 24 + cache_size)
        r_ = _read_prefix_code(rdr, 256)
        b_ = _read_prefix_code(rdr, 256)
        a_ = _read_prefix_code(rdr, 256)
        d_ = _read_prefix_code(rdr, 40)
        groups.append((g, r_, b_, a_, d_))
    cache = [0] * cache_size
    out = np.zeros(w * h, np.uint32)
    pos = 0
    n = w * h
    while pos < n:
        if meta is not None:
            x, y = pos % w, pos // w
            grp = groups[int(meta[y >> meta_bits, x >> meta_bits])]
        else:
            grp = groups[0]
        gt, rt, bt, at, dt = grp
        s = _decode_sym(rdr, gt)
        if s < 256:
            g = s
            r_ = _decode_sym(rdr, rt)
            b_ = _decode_sym(rdr, bt)
            a_ = _decode_sym(rdr, at)
            px = (a_ << 24) | (r_ << 16) | (g << 8) | b_
            out[pos] = px
            pos += 1
            if cache_size:
                cache[(0x1E35A7BD * px & 0xFFFFFFFF)
                      >> (32 - cache_bits)] = px
        elif s < 280:
            length = _prefix_value(rdr, s - 256)
            dcode = _prefix_value(rdr, _decode_sym(rdr, dt))
            if dcode > 120:
                dist = dcode - 120
            else:
                dx, dy = _DIST_MAP[dcode - 1]
                dist = max(1, dy * w + dx)
            if dist > pos or pos + length > n:
                raise ValueError("webp: bad backward reference")
            for _ in range(length):
                px = int(out[pos - dist])
                out[pos] = px
                pos += 1
                if cache_size:
                    cache[(0x1E35A7BD * px & 0xFFFFFFFF)
                          >> (32 - cache_bits)] = px
        else:
            if s - 280 >= cache_size:
                raise ValueError("webp: cache index out of range")
            out[pos] = cache[s - 280]
            pos += 1
    img = np.zeros((h, w, 4), np.uint8)
    flat = out.reshape(h, w)
    img[:, :, 0] = (flat >> 24) & 0xFF
    img[:, :, 1] = (flat >> 16) & 0xFF
    img[:, :, 2] = (flat >> 8) & 0xFF
    img[:, :, 3] = flat & 0xFF
    return img


def _avg2(a, b):
    return (a.astype(np.int32) + b.astype(np.int32)) // 2


def _predict(mode: int, L, T, TL, TR) -> np.ndarray:
    """One predictor mode over [A,R,G,B] vectors (RFC 9649 §3.5.1)."""
    if mode == 0:
        return np.array([255, 0, 0, 0], np.int32)
    if mode == 1:
        return L.astype(np.int32)
    if mode == 2:
        return T.astype(np.int32)
    if mode == 3:
        return TR.astype(np.int32)
    if mode == 4:
        return TL.astype(np.int32)
    if mode == 5:
        return _avg2(_avg2(L, TR).astype(np.uint8), T)
    if mode == 6:
        return _avg2(L, TL)
    if mode == 7:
        return _avg2(L, T)
    if mode == 8:
        return _avg2(TL, T)
    if mode == 9:
        return _avg2(T, TR)
    if mode == 10:
        return _avg2(_avg2(L, TL).astype(np.uint8),
                     _avg2(T, TR).astype(np.uint8))
    if mode == 11:  # Select
        p = L.astype(np.int32) + T.astype(np.int32) - TL.astype(np.int32)
        pl = np.abs(p - L.astype(np.int32)).sum()
        pt = np.abs(p - T.astype(np.int32)).sum()
        return L.astype(np.int32) if pl < pt else T.astype(np.int32)
    if mode == 12:  # ClampAddSubtractFull
        return np.clip(L.astype(np.int32) + T.astype(np.int32)
                       - TL.astype(np.int32), 0, 255)
    if mode == 13:  # ClampAddSubtractHalf (C-truncating /2)
        ave = _avg2(L, T)
        d = ave - TL.astype(np.int32)
        return np.clip(ave + np.sign(d) * (np.abs(d) // 2), 0, 255)
    raise ValueError(f"webp: bad predictor mode {mode}")


def _inv_predictor(img: np.ndarray, modes: np.ndarray,
                   bits: int) -> None:
    """In-place inverse predictor transform (residual + pred mod 256)."""
    h, w = img.shape[:2]
    for y in range(h):
        for x in range(w):
            if x == 0 and y == 0:
                pred = np.array([255, 0, 0, 0], np.int32)
            elif y == 0:
                pred = img[0, x - 1].astype(np.int32)  # L
            elif x == 0:
                pred = img[y - 1, 0].astype(np.int32)  # T
            else:
                mode = int(modes[y >> bits, x >> bits])
                L = img[y, x - 1]
                T = img[y - 1, x]
                TL = img[y - 1, x - 1]
                # rightmost column: TR is the leftmost pixel of the
                # CURRENT row (RFC 9649 §4.1)
                TR = img[y - 1, x + 1] if x + 1 < w else img[y, 0]
                pred = _predict(mode, L, T, TL, TR)
            img[y, x] = ((img[y, x].astype(np.int32) + pred)
                         & 0xFF).astype(np.uint8)


def _cdelta(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed 3.5 fixed-point color delta: (int8(t) * int8(c)) >> 5."""
    return (t.astype(np.int8).astype(np.int32)
            * c.astype(np.int8).astype(np.int32)) >> 5


def _inv_cross_color(img: np.ndarray, elems: np.ndarray,
                     bits: int) -> None:
    """In-place inverse cross-color transform (RFC 9649 §3.5.2):
    red += f(green); blue += f(green) + f(red)  (mod 256)."""
    h, w = img.shape[:2]
    by = np.arange(h) >> bits
    bx = np.arange(w) >> bits
    # element ARGB packs: green_to_red in blue, green_to_blue in
    # green, red_to_blue in red (RFC 9649 §3.5.2 / VP8LColorCode)
    g2r = elems[by][:, bx, 3]
    g2b = elems[by][:, bx, 2]
    r2b = elems[by][:, bx, 1]
    g = img[:, :, 2]
    red = (img[:, :, 1].astype(np.int32) + _cdelta(g2r, g)) & 0xFF
    blu = (img[:, :, 3].astype(np.int32) + _cdelta(g2b, g)
           + _cdelta(r2b, red.astype(np.uint8))) & 0xFF
    img[:, :, 1] = red.astype(np.uint8)
    img[:, :, 3] = blu.astype(np.uint8)


def decode_webp(data: bytes) -> np.ndarray:
    """WebP bytes → (h, w, 3) uint8 RGB (lossless VP8L only; lossy
    VP8 and animation raise ``NotImplementedError``)."""
    if data[:4] != b"RIFF" or data[8:12] != b"WEBP":
        raise ValueError("not a WebP payload")
    pos = 12
    payload = None
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (n,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + n]
        if len(body) != n:
            raise ValueError("webp: truncated chunk")
        if cid == b"VP8L":
            payload = body
            break
        if cid in (b"VP8 ", b"VP8X", b"ANIM", b"ANMF"):
            raise NotImplementedError(
                f"webp: {cid.decode().strip()} (lossy/extended) "
                "unsupported — VP8L lossless only")
        pos += 8 + n + (n & 1)
    if payload is None or not payload or payload[0] != 0x2F:
        raise ValueError("webp: missing VP8L chunk")
    rdr = _Reader(payload[1:])
    w = rdr.bits(14) + 1
    h = rdr.bits(14) + 1
    rdr.bit()  # alpha hint
    if rdr.bits(3) != 0:
        raise ValueError("webp: bad VP8L version")

    transforms = []  # applied inverse in reverse read order
    cur_w = w
    seen = set()
    while rdr.bit():
        ttype = rdr.bits(2)
        if ttype in seen:
            raise ValueError("webp: duplicate transform")
        seen.add(ttype)
        if ttype == 0:  # predictor
            bits = rdr.bits(3) + 2
            sw = -(-cur_w // (1 << bits))
            sh = -(-h // (1 << bits))
            sub = _decode_entropy_image(rdr, sw, sh, False)
            transforms.append(("pred", bits, sub[:, :, 2].copy()))
        elif ttype == 1:  # cross-color
            bits = rdr.bits(3) + 2
            sw = -(-cur_w // (1 << bits))
            sh = -(-h // (1 << bits))
            sub = _decode_entropy_image(rdr, sw, sh, False)
            transforms.append(("color", bits, sub))
        elif ttype == 2:  # subtract-green
            transforms.append(("subgreen",))
        else:  # color indexing
            n_colors = rdr.bits(8) + 1
            pal_img = _decode_entropy_image(rdr, n_colors, 1, False)
            pal = pal_img[0].astype(np.int32)
            for i in range(1, n_colors):  # delta-coded entries
                pal[i] = (pal[i] + pal[i - 1]) & 0xFF
            if n_colors <= 2:
                pb = 3
            elif n_colors <= 4:
                pb = 2
            elif n_colors <= 16:
                pb = 1
            else:
                pb = 0
            transforms.append(("palette", pal.astype(np.uint8), pb,
                               cur_w))
            cur_w = -(-cur_w // (1 << pb))

    img = _decode_entropy_image(rdr, cur_w, h, True)

    for t in reversed(transforms):
        if t[0] == "palette":
            _, pal, pb, full_w = t
            idx = img[:, :, 2]  # green channel holds indices
            if pb:
                per = 1 << pb
                ib = 8 >> pb
                cols = []
                for k in range(per):
                    cols.append((idx >> (k * ib)) & ((1 << ib) - 1))
                idx = np.stack(cols, axis=2).reshape(h, -1)[:, :full_w]
            if int(idx.max(initial=0)) >= len(pal):
                raise ValueError("webp: palette index out of range")
            img = pal[idx]
        elif t[0] == "subgreen":
            g = img[:, :, 2].astype(np.int32)
            img[:, :, 1] = ((img[:, :, 1] + g) & 0xFF).astype(np.uint8)
            img[:, :, 3] = ((img[:, :, 3] + g) & 0xFF).astype(np.uint8)
        elif t[0] == "color":
            _inv_cross_color(img, t[2], t[1])
        else:  # pred
            _inv_predictor(img, t[2], t[1])

    a = img[:, :, 0].astype(np.int32)[..., None]
    rgb = img[:, :, 1:4].astype(np.int32)  # [R, G, B]
    return ((rgb * a + 255 * (255 - a) + 127) // 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# encoder (real VP8L writer for fixtures — every decoder path
# exercisable: optimal per-channel codes, LZ77, cache, transforms)
# ---------------------------------------------------------------------------

class _Writer:
    __slots__ = ("out", "acc", "nbits")

    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, v: int, n: int) -> None:
        self.acc |= (v & ((1 << n) - 1)) << self.nbits
        self.nbits += n
        while self.nbits >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def flush(self) -> bytes:
        if self.nbits:
            self.out.append(self.acc & 0xFF)
            self.acc = 0
            self.nbits = 0
        return bytes(self.out)


def _limited_huffman(freqs: list[int], max_len: int) -> list[int]:
    """Frequencies → canonical-valid code lengths ≤ ``max_len`` (the
    K.2 merge/adjust idiom from `ops/jpeg._build_huffman`, without
    the reserved all-ones codepoint — VP8L has none)."""
    n = len(freqs)
    used = [i for i, f in enumerate(freqs) if f > 0]
    if len(used) <= 1:
        out = [0] * n
        if used:
            out[used[0]] = 1
        return out
    freq = list(freqs)
    codesize = [0] * n
    others = [-1] * n

    def least(skip: int) -> int:
        best, bv = -1, None
        for i in range(n):
            if i != skip and freq[i] > 0 and (bv is None
                                              or freq[i] <= bv):
                best, bv = i, freq[i]
        return best

    while True:
        c1 = least(-1)
        c2 = least(c1)
        if c2 < 0:
            break
        freq[c1] += freq[c2]
        freq[c2] = 0
        codesize[c1] += 1
        while others[c1] >= 0:
            c1 = others[c1]
            codesize[c1] += 1
        others[c1] = c2
        codesize[c2] += 1
        while others[c2] >= 0:
            c2 = others[c2]
            codesize[c2] += 1
    counts = [0] * 64
    for cs in codesize:
        if cs:
            counts[min(cs, 63)] += 1
    for ln in range(63, max_len, -1):
        while counts[ln] > 0:
            j = ln - 2
            while counts[j] == 0:
                j -= 1
            counts[ln] -= 2
            counts[ln - 1] += 1
            counts[j + 1] += 2
            counts[j] -= 1
    order = sorted((cs, s) for s, cs in enumerate(codesize) if cs)
    lens_sorted = []
    for ln in range(1, max_len + 1):
        lens_sorted.extend([ln] * counts[ln])
    out = [0] * n
    for (_, sym), ln in zip(order, lens_sorted):
        out[sym] = ln
    return out


def _enc_table(lengths: list[int]) -> dict[int, tuple[int, int]]:
    """lengths → {symbol: (code, length)} via the shared canonical."""
    return {s: (c, ln) for (ln, c), s in _canonical(lengths).items()}


def _emit_code(wtr: _Writer, lengths: list[int]) -> None:
    """Emit one prefix code in the normal (code-length-coded) form,
    or the simple form when ≤2 used symbols all fit in a byte."""
    used = [s for s, ln in enumerate(lengths) if ln]
    if 1 <= len(used) <= 2 and all(s < 256 for s in used):
        wtr.write(1, 1)                    # simple
        wtr.write(len(used) - 1, 1)
        s0 = used[0]
        if len(used) == 1:
            if s0 < 2:
                wtr.write(0, 1)            # 1-bit first symbol
                wtr.write(s0, 1)
            else:
                wtr.write(1, 1)
                wtr.write(s0, 8)
            return
        wtr.write(1, 1)
        wtr.write(s0, 8)
        wtr.write(used[1], 8)
        return
    # normal form: tokenize lengths with 0-runs (17/18); literals
    # else.  The decoder (without the max-symbol shortcut) consumes
    # code-length symbols until the WHOLE alphabet is filled, so the
    # trailing zero tail must be emitted too.
    tokens: list[tuple[int, int, int]] = []  # (symbol, extra, nbits)
    i = 0
    n = len(lengths)
    last_nonzero = n - 1  # tokenize through the end of the alphabet
    while i <= last_nonzero:
        if lengths[i] == 0:
            run = 1
            while i + run <= last_nonzero and lengths[i + run] == 0:
                run += 1
            i += run
            while run >= 11:
                r = min(run, 138)
                tokens.append((18, r - 11, 7))
                run -= r
            while run >= 3:
                r = min(run, 10)
                tokens.append((17, r - 3, 3))
                run -= r
            for _ in range(run):
                tokens.append((0, 0, 0))
        else:
            tokens.append((lengths[i], 0, 0))
            i += 1
    cl_freq = [0] * 19
    for s, _, _ in tokens:
        cl_freq[s] += 1
    cl_lengths = _limited_huffman(cl_freq, 7)
    cl_enc = _enc_table(cl_lengths)
    wtr.write(0, 1)                        # normal
    wtr.write(19 - 4, 4)                   # emit all 19 CL slots
    for sym in _CLC_ORDER:
        wtr.write(cl_lengths[sym], 3)
    wtr.write(0, 1)                        # no max_symbol shortcut
    for s, extra, nbits in tokens:
        code, ln = cl_enc[s]
        # the decoder walks prefix codes bit-by-bit MSB-first over the
        # LSB-first stream: emit the code's bits MSB-first
        for k in range(ln - 1, -1, -1):
            wtr.write((code >> k) & 1, 1)
        if nbits:
            wtr.write(extra, nbits)


def _emit_sym(wtr: _Writer, enc: dict, s: int) -> None:
    code, ln = enc[s]
    for k in range(ln - 1, -1, -1):
        wtr.write((code >> k) & 1, 1)


def _prefix_split(v: int) -> tuple[int, int, int]:
    """value ≥ 1 → (prefix code, extra bits value, extra bit count)
    (inverse of `_prefix_value`)."""
    if v <= 4:
        return v - 1, 0, 0
    x = v - 1
    b = x.bit_length()
    e = b - 2
    if x < 3 << e:
        return 2 * e + 2, x - (2 << e), e
    return 2 * e + 3, x - (3 << e), e


def _emit_entropy_image(wtr: _Writer, img: np.ndarray,
                        cache_bits: int, use_lz77: bool,
                        level0: bool) -> None:
    """(h, w, 4) uint8 [A,R,G,B] → entropy-coded stream (single
    prefix group, optional color cache, greedy distance-1 LZ77)."""
    h, w = img.shape[:2]
    flat = (img[:, :, 0].astype(np.uint32) << 24) \
        | (img[:, :, 1].astype(np.uint32) << 16) \
        | (img[:, :, 2].astype(np.uint32) << 8) \
        | img[:, :, 3].astype(np.uint32)
    flat = flat.reshape(-1)
    n = len(flat)
    cache_size = (1 << cache_bits) if cache_bits else 0
    cache = [None] * cache_size

    tokens = []  # ("lit", a, r, g, b) | ("len", v) | ("cache", idx)
    pos = 0
    while pos < n:
        px = int(flat[pos])
        if use_lz77 and pos and px == int(flat[pos - 1]):
            run = 1
            while (pos + run < n and run < 4096
                   and int(flat[pos + run]) == px):
                run += 1
            if run >= 3:
                tokens.append(("len", run))
                # cache sees every emitted pixel
                if cache_size:
                    idx = (0x1E35A7BD * px & 0xFFFFFFFF) \
                        >> (32 - cache_bits)
                    cache[idx] = px
                pos += run
                continue
        if cache_size:
            idx = (0x1E35A7BD * px & 0xFFFFFFFF) >> (32 - cache_bits)
            if cache[idx] == px:
                tokens.append(("cache", idx))
                pos += 1
                continue
            cache[idx] = px
        tokens.append(("lit", (px >> 24) & 0xFF, (px >> 16) & 0xFF,
                       (px >> 8) & 0xFF, px & 0xFF))
        pos += 1

    g_freq = [0] * (256 + 24 + cache_size)
    r_freq = [0] * 256
    b_freq = [0] * 256
    a_freq = [0] * 256
    d_freq = [0] * 40
    for t in tokens:
        if t[0] == "lit":
            _, a_, r_, g_, b_ = t
            g_freq[g_] += 1
            r_freq[r_] += 1
            b_freq[b_] += 1
            a_freq[a_] += 1
        elif t[0] == "len":
            code, _, _ = _prefix_split(t[1])
            g_freq[256 + code] += 1
            dcode, _, _ = _prefix_split(121)  # distance 1 → long form
            d_freq[dcode] += 1
        else:
            g_freq[280 + t[1]] += 1
    if not any(d_freq):
        d_freq[0] = 1  # unused alphabet still needs a code

    wtr.write(1 if cache_bits else 0, 1)
    if cache_bits:
        wtr.write(cache_bits, 4)
    if level0:
        wtr.write(0, 1)  # no meta-prefix
    encs = []
    for freq, alpha in ((g_freq, len(g_freq)), (r_freq, 256),
                        (b_freq, 256), (a_freq, 256), (d_freq, 40)):
        lengths = _limited_huffman(freq, 15)
        _emit_code(wtr, lengths)
        single = [s for s, ln in enumerate(lengths) if ln]
        encs.append({single[0]: (0, 0)} if len(single) == 1
                    else _enc_table(lengths))
    g_enc, r_enc, b_enc, a_enc, d_enc = encs

    for t in tokens:
        if t[0] == "lit":
            _, a_, r_, g_, b_ = t
            _emit_sym(wtr, g_enc, g_)
            _emit_sym(wtr, r_enc, r_)
            _emit_sym(wtr, b_enc, b_)
            _emit_sym(wtr, a_enc, a_)
        elif t[0] == "len":
            code, extra, nb = _prefix_split(t[1])
            _emit_sym(wtr, g_enc, 256 + code)
            if nb:
                wtr.write(extra, nb)
            dcode, dextra, dnb = _prefix_split(121)
            _emit_sym(wtr, d_enc, dcode)
            if dnb:
                wtr.write(dextra, dnb)
        else:
            _emit_sym(wtr, g_enc, 280 + t[1])


def _argb(pixels: np.ndarray) -> np.ndarray:
    px = np.ascontiguousarray(pixels, np.uint8)
    if px.ndim == 2:
        px = np.repeat(px[:, :, None], 3, axis=2)
    h, w = px.shape[:2]
    out = np.zeros((h, w, 4), np.uint8)
    if px.shape[2] == 4:
        out[:, :, 0] = px[:, :, 3]
    else:
        out[:, :, 0] = 255
    out[:, :, 1] = px[:, :, 0]
    out[:, :, 2] = px[:, :, 1]
    out[:, :, 3] = px[:, :, 2]
    return out


def encode_webp(pixels: np.ndarray, cache_bits: int = 0,
                use_lz77: bool = True, subtract_green: bool = False,
                predictor_mode: int | None = None,
                cross_color: tuple | None = None,
                palette: bool = False) -> bytes:
    """uint8 RGB(A)/gray pixels → lossless VP8L WebP bytes.  The
    transform knobs exist to exercise every decoder path: a constant
    ``predictor_mode`` (0–13), constant ``cross_color`` elements
    (g2r, g2b, r2b as signed ints), ``subtract_green``, and exact
    ``palette`` (≤256 colors, with sub-byte bundling under 16)."""
    img = _argb(pixels)
    h, w = img.shape[:2]
    if palette and (subtract_green or predictor_mode is not None
                    or cross_color):
        raise ValueError("encode_webp: palette is exclusive")

    wtr = _Writer()
    wtr.write(w - 1, 14)
    wtr.write(h - 1, 14)
    wtr.write(0, 1)   # alpha hint
    wtr.write(0, 3)   # version

    if subtract_green:
        wtr.write(1, 1)
        wtr.write(2, 2)
        g = img[:, :, 2].astype(np.int32)
        img[:, :, 1] = ((img[:, :, 1] - g) & 0xFF).astype(np.uint8)
        img[:, :, 3] = ((img[:, :, 3] - g) & 0xFF).astype(np.uint8)
    if cross_color is not None:
        g2r, g2b, r2b = (int(v) & 0xFF for v in cross_color)
        wtr.write(1, 1)
        wtr.write(1, 2)
        bits = 4
        wtr.write(bits - 2, 3)
        sw, sh = -(-w // (1 << bits)), -(-h // (1 << bits))
        sub = np.zeros((sh, sw, 4), np.uint8)
        sub[:, :, 0] = 255
        sub[:, :, 1] = r2b
        sub[:, :, 2] = g2b
        sub[:, :, 3] = g2r
        _emit_entropy_image(wtr, sub, 0, True, False)
        gch = img[:, :, 2]
        t_g2r = np.full_like(gch, g2r)
        t_g2b = np.full_like(gch, g2b)
        t_r2b = np.full_like(gch, r2b)
        red0 = img[:, :, 1].astype(np.int32)
        red_r = (red0 - _cdelta(t_g2r, gch)) & 0xFF
        blu_r = (img[:, :, 3].astype(np.int32) - _cdelta(t_g2b, gch)
                 - _cdelta(t_r2b, red0.astype(np.uint8))) & 0xFF
        img[:, :, 1] = red_r.astype(np.uint8)
        img[:, :, 3] = blu_r.astype(np.uint8)
    if predictor_mode is not None:
        wtr.write(1, 1)
        wtr.write(0, 2)
        bits = 4
        wtr.write(bits - 2, 3)
        sw, sh = -(-w // (1 << bits)), -(-h // (1 << bits))
        sub = np.zeros((sh, sw, 4), np.uint8)
        sub[:, :, 0] = 255
        sub[:, :, 2] = predictor_mode
        _emit_entropy_image(wtr, sub, 0, True, False)
        orig = img.copy()
        res = np.zeros_like(img)
        for y in range(h):
            for x in range(w):
                if x == 0 and y == 0:
                    pred = np.array([255, 0, 0, 0], np.int32)
                elif y == 0:
                    pred = orig[0, x - 1].astype(np.int32)
                elif x == 0:
                    pred = orig[y - 1, 0].astype(np.int32)
                else:
                    TR = orig[y - 1, x + 1] if x + 1 < w \
                        else orig[y, 0]
                    pred = _predict(predictor_mode, orig[y, x - 1],
                                    orig[y - 1, x], orig[y - 1, x - 1],
                                    TR)
                res[y, x] = ((orig[y, x].astype(np.int32) - pred)
                             & 0xFF).astype(np.uint8)
        img = res
    if palette:
        colors, inverse = np.unique(img.reshape(-1, 4), axis=0,
                                    return_inverse=True)
        if len(colors) > 256:
            raise ValueError("encode_webp: >256 colors for palette")
        wtr.write(1, 1)
        wtr.write(3, 2)
        wtr.write(len(colors) - 1, 8)
        deltas = colors.astype(np.int32).copy()
        deltas[1:] = (deltas[1:] - colors.astype(np.int32)[:-1]) & 0xFF
        pal_img = deltas.astype(np.uint8).reshape(1, -1, 4)
        _emit_entropy_image(wtr, pal_img, 0, True, False)
        idx = inverse.astype(np.uint8).reshape(h, w)
        nc = len(colors)
        pb = 3 if nc <= 2 else 2 if nc <= 4 else 1 if nc <= 16 else 0
        if pb:
            per = 1 << pb
            ib = 8 >> pb
            pw = -(-w // per)
            padded = np.zeros((h, pw * per), np.uint8)
            padded[:, :w] = idx
            packed = np.zeros((h, pw), np.uint8)
            for k in range(per):
                packed |= padded[:, k::per] << (k * ib)
            idx = packed
        pimg = np.zeros(idx.shape + (4,), np.uint8)
        pimg[:, :, 0] = 255
        pimg[:, :, 2] = idx
        img = pimg
    wtr.write(0, 1)  # end of transforms

    _emit_entropy_image(wtr, img, cache_bits, use_lz77, True)
    stream = b"\x2F" + wtr.flush()
    chunk = b"VP8L" + struct.pack("<I", len(stream)) + stream
    if len(stream) & 1:
        chunk += b"\x00"
    body = b"WEBP" + chunk
    return b"RIFF" + struct.pack("<I", len(body)) + body
