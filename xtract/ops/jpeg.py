"""JPEG codec, pure numpy — the real-crawl image format the
multimodal tier needs (round-4 verdict item: BMP-only fixtures don't
exercise what a crawl actually contains).

Decoder: baseline sequential DCT (SOF0/1) AND progressive (SOF2,
round 5 — the majority of large crawl JPEGs), Huffman entropy coding,
DQT / DHT / DRI / SOS parsing, byte de-stuffing, restart-marker
resets, spectral selection + successive approximation scan
accumulation (T.81 Annex G), 4:4:4 / 4:2:2 / 4:2:0 chroma subsampling
with replicate upsampling, ITU-R BT.601 YCbCr→RGB, grayscale promoted
to 3 channels.  Arithmetic-coded / lossless / hierarchical streams
raise ``NotImplementedError`` — callers
(``ops/multimodal.decode_media`` and the hash stages) catch per row
into ``status='unsupported_codec'``, the engine's typed-error
discipline (reference src/error.rs surface).

Encoder: baseline 4:4:4 with the Annex K quantization + Huffman
tables, quality-scaled, plus a progressive encoder (libjpeg-shaped
scan script, per-scan K.2-optimal AC Huffman tables) that carries the
SAME quantized coefficients — enough to synthesize REAL decodable
fixtures (and they round-trip through any standards-conforming
decoder).

Everything is specification-driven (ITU-T T.81, public); the bit-level
Huffman walk is a Python loop — fine for an actor-pool decode stage
whose per-image cost is dominated by entropy decode in any
implementation; the DCT/IDCT, dequant, upsample and color transforms
are vectorized numpy.

Reference parity anchor: tesseract-rs ingests pre-decoded pixel
buffers (src/api.rs:1196-1239 set_image) — the decode step itself sat
outside the reference engine; here it is an explicit, tested stage.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# shared tables (ITU-T T.81 Annex K)
# ---------------------------------------------------------------------------

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    np.int32)

_QL = np.array([  # Annex K luminance
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103,
    99], np.int32)
_QC = np.array([  # Annex K chrominance
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99],
    np.int32)

# Annex K Huffman specs: (bits[1..16], values)
_DC_L = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
         list(range(12)))
_DC_C = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
         list(range(12)))
_AC_L = ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D], [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
    0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])
_AC_C = ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77], [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
    0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
    0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
    0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
    0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])

# 8-point DCT-II basis (orthonormal): IDCT is B.T @ X @ B
_K = np.arange(8)
_B = np.cos((2 * _K[None, :] + 1) * _K[:, None] * np.pi / 16) * \
    np.sqrt(2 / 8)
_B[0, :] *= 1 / np.sqrt(2)


def _huff_codes(bits, values):
    """(bits, values) → {(length, code): symbol} per T.81 C.2."""
    if len(bits) != 16 or len(values) < sum(bits):
        raise ValueError("jpeg: truncated Huffman table")
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[(length, code)] = values[k]
            code += 1
            k += 1
        code <<= 1
    return out


def _enc_codes(bits, values):
    """(bits, values) → {symbol: (code, length)} for the encoder."""
    return {v: (c, l) for (l, c), v in _huff_codes(bits, values).items()}


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

class _BitReader:
    """MSB-first bit reader over de-stuffed scan bytes."""

    __slots__ = ("data", "pos", "bit")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.bit = 0

    def read_bit(self) -> int:
        if self.pos >= len(self.data):
            raise ValueError("jpeg: truncated scan")
        b = (self.data[self.pos] >> (7 - self.bit)) & 1
        self.bit += 1
        if self.bit == 8:
            self.bit = 0
            self.pos += 1
        return b

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def decode_symbol(self, table: dict) -> int:
        length = 0
        code = 0
        while length < 16:
            code = (code << 1) | self.read_bit()
            length += 1
            sym = table.get((length, code))
            if sym is not None:
                return sym
        raise ValueError("jpeg: bad Huffman code")


def _extend(v: int, t: int) -> int:
    """T.81 F.12 sign extension of a t-bit magnitude."""
    return v if t == 0 or v >= (1 << (t - 1)) else v - (1 << t) + 1


def _table(tables: dict, key, what: str):
    """A quantization or Huffman table the stream must have defined."""
    try:
        return tables[key]
    except KeyError:
        raise ValueError(f"jpeg: {what} table {key} not defined") from None


def _scan_component(comps: list[dict], cs: int) -> dict:
    """The frame component an SOS component selector names."""
    for c in comps:
        if c["id"] == cs:
            return c
    raise ValueError(f"jpeg: scan names unknown component {cs}")


def decode_jpeg(data: bytes) -> np.ndarray:
    """JFIF bytes → (h, w, 3) uint8 RGB.  Baseline (SOF0/1) and
    progressive (SOF2, round 5) Huffman streams decode; ValueError on
    malformed input, NotImplementedError on arithmetic-coded /
    lossless / hierarchical processes."""
    if len(data) < 4 or data[0] != 0xFF or data[1] != 0xD8:
        raise ValueError("jpeg: missing SOI")
    pos = 2
    qt: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], dict] = {}
    comps: list[dict] = []
    w = h = 0
    restart_interval = 0
    scan: bytes | None = None
    scan_comps: list[dict] = []
    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            raise ValueError("jpeg: bad marker")
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        seglen = int.from_bytes(data[pos:pos + 2], "big")
        seg = data[pos + 2:pos + seglen]
        if seglen < 2 or len(seg) != seglen - 2:
            raise ValueError("jpeg: truncated marker segment")
        if marker == 0xDB:  # DQT
            p = 0
            while p < len(seg):
                prec, tid = seg[p] >> 4, seg[p] & 15
                p += 1
                n = 64 * (2 if prec else 1)
                raw = seg[p:p + n]
                tbl = (np.frombuffer(raw, ">u2").astype(np.int32)
                       if prec else
                       np.frombuffer(raw, np.uint8).astype(np.int32))
                dq = np.zeros(64, np.int32)
                dq[ZIGZAG] = tbl
                qt[tid] = dq.reshape(8, 8)
                p += n
        elif marker == 0xC0 or marker == 0xC1:  # SOF0/1 baseline
            h = int.from_bytes(seg[1:3], "big")
            w = int.from_bytes(seg[3:5], "big")
            if len(seg) < 6 or len(seg) < 6 + 3 * seg[5]:
                raise ValueError("jpeg: short SOF segment")
            nc = seg[5]
            comps = []
            for i in range(nc):
                cid, hv, tq = seg[6 + 3 * i:9 + 3 * i]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 15,
                              "tq": tq})
        elif marker == 0xC2:  # SOF2 progressive (Huffman) — round 5
            return _decode_progressive(data)
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA,
                        0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"jpeg: SOF marker 0x{marker:02X} "
                f"(lossless/arithmetic/hierarchical) not supported")
        elif marker == 0xC4:  # DHT
            p = 0
            while p < len(seg):
                tc, th = seg[p] >> 4, seg[p] & 15
                bits = list(seg[p + 1:p + 17])
                n = sum(bits)
                values = list(seg[p + 17:p + 17 + n])
                huff[(tc, th)] = _huff_codes(bits, values)
                p += 17 + n
        elif marker == 0xDD:  # DRI
            restart_interval = int.from_bytes(seg[0:2], "big")
        elif marker == 0xDA:  # SOS
            if not seg or len(seg) < 4 + 2 * seg[0]:
                raise ValueError("jpeg: short SOS segment")
            ns = seg[0]
            scan_comps = []
            for i in range(ns):
                cs, tdta = seg[1 + 2 * i:3 + 2 * i]
                comp = _scan_component(comps, cs)
                scan_comps.append(dict(comp, td=tdta >> 4,
                                       ta=tdta & 15))
            scan_start = pos + seglen
            # de-stuff: FF00 → FF; FFD0-D7 restart markers recorded
            out = bytearray()
            rst_at: list[int] = []
            q = scan_start
            while q < len(data) - 1:
                b = data[q]
                if b == 0xFF:
                    nxt = data[q + 1]
                    if nxt == 0x00:
                        out.append(0xFF)
                        q += 2
                        continue
                    if 0xD0 <= nxt <= 0xD7:
                        rst_at.append(len(out))
                        q += 2
                        continue
                    break  # next real marker (EOI etc.)
                out.append(b)
                q += 1
            scan = bytes(out)
            pos = q
            continue
        pos += seglen
    if scan is None or not comps or not w or not h:
        raise ValueError("jpeg: no scan data")

    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))

    planes = {}
    for c in scan_comps:
        bw = mcux * c["h"] * 8
        bh = mcuy * c["v"] * 8
        planes[c["id"]] = np.zeros((bh, bw), np.float64)

    # split the de-stuffed stream at restart boundaries
    segments: list[bytes] = []
    if restart_interval and rst_at:
        prev = 0
        for at in rst_at:
            segments.append(scan[prev:at])
            prev = at
        segments.append(scan[prev:])
    else:
        segments = [scan]

    n_mcu = mcux * mcuy
    seg_i = 0
    reader = _BitReader(segments[0])
    pred = {c["id"]: 0 for c in scan_comps}
    for m in range(n_mcu):
        if restart_interval and m and m % restart_interval == 0:
            seg_i += 1
            if seg_i >= len(segments):
                raise ValueError("jpeg: missing restart segment")
            reader = _BitReader(segments[seg_i])
            pred = {c["id"]: 0 for c in scan_comps}
        my, mx = divmod(m, mcux)
        for c in scan_comps:
            dq = _table(qt, c["tq"], "quantization")
            dctab = _table(huff, (0, c["td"]), "Huffman")
            actab = _table(huff, (1, c["ta"]), "Huffman")
            for by in range(c["v"]):
                for bx in range(c["h"]):
                    zz = np.zeros(64, np.float64)
                    t = reader.decode_symbol(dctab)
                    diff = _extend(reader.read_bits(t), t)
                    pred[c["id"]] += diff
                    zz[0] = pred[c["id"]]
                    k = 1
                    while k < 64:
                        rs = reader.decode_symbol(actab)
                        r, s = rs >> 4, rs & 15
                        if s == 0:
                            if r == 15:
                                k += 16
                                continue
                            break  # EOB
                        k += r
                        if k > 63:
                            raise ValueError("jpeg: AC overflow")
                        zz[k] = _extend(reader.read_bits(s), s)
                        k += 1
                    blk = np.zeros(64, np.float64)
                    blk[ZIGZAG] = zz
                    blk = blk.reshape(8, 8) * dq
                    px = _B.T @ blk @ _B + 128.0
                    y0 = (my * c["v"] + by) * 8
                    x0 = (mx * c["h"] + bx) * 8
                    planes[c["id"]][y0:y0 + 8, x0:x0 + 8] = px

    return _upsample_color(comps, planes, w, h, hmax, vmax)


def _upsample_color(comps, planes, w, h, hmax, vmax) -> np.ndarray:
    """Component pixel planes → upsampled, cropped, color-converted
    (h, w, 3) uint8 RGB (shared by the baseline and progressive
    paths — identical float op order, so both are pixel-exact over
    identical coefficients)."""
    full = []
    for c in comps:
        p = planes[c["id"]]
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            p = np.repeat(np.repeat(p, ry, axis=0), rx, axis=1)
        full.append(p[:h, :w])
    if len(full) == 1:
        g = np.clip(np.round(full[0]), 0, 255).astype(np.uint8)
        return np.stack([g, g, g], axis=-1)
    y, cb, cr = full[0], full[1] - 128.0, full[2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.round(np.stack([r, g, b], axis=-1)), 0,
                   255).astype(np.uint8)


# ---------------------------------------------------------------------------
# progressive decoder (SOF2, ITU-T T.81 Annex G — round 5: the
# majority of large crawl JPEGs are progressive; previously they took
# the honest unsupported_codec path)
# ---------------------------------------------------------------------------

def _destuff(data: bytes, start: int):
    """De-stuff scan bytes from ``start``: FF00 → FF, restart markers
    recorded by offset.  → (bytes, rst_offsets, pos_after_scan)."""
    out = bytearray()
    rst_at: list[int] = []
    q = start
    while q < len(data) - 1:
        b = data[q]
        if b == 0xFF:
            nxt = data[q + 1]
            if nxt == 0x00:
                out.append(0xFF)
                q += 2
                continue
            if 0xD0 <= nxt <= 0xD7:
                rst_at.append(len(out))
                q += 2
                continue
            break  # next real marker
        out.append(b)
        q += 1
    return bytes(out), rst_at, q


def _split_restarts(scan: bytes, rst_at: list[int]) -> list[bytes]:
    segments: list[bytes] = []
    prev = 0
    for at in rst_at:
        segments.append(scan[prev:at])
        prev = at
    segments.append(scan[prev:])
    return segments


def _prog_dc_scan(reader_segs, scan_comps, coeffs, dims, huff,
                  ah: int, al: int, restart_interval: int,
                  mcux: int, mcuy: int) -> None:
    """One DC scan (Ss=Se=0), interleaved or single-component.
    Ah=0: Huffman-coded point-transformed diffs; Ah>0: one refinement
    bit per block (G.2 / G.1.2)."""
    interleaved = len(scan_comps) > 1
    if interleaved:
        n_mcu = mcux * mcuy
    else:
        bw, bh = dims[scan_comps[0]["id"]]
        n_mcu = bw * bh
    seg_i = 0
    reader = _BitReader(reader_segs[0])
    pred = {c["id"]: 0 for c in scan_comps}
    for m in range(n_mcu):
        if restart_interval and m and m % restart_interval == 0:
            seg_i += 1
            if seg_i >= len(reader_segs):
                raise ValueError("jpeg: missing restart segment")
            reader = _BitReader(reader_segs[seg_i])
            pred = {c["id"]: 0 for c in scan_comps}
        if interleaved:
            my, mx = divmod(m, mcux)
            for c in scan_comps:
                for by in range(c["v"]):
                    for bx in range(c["h"]):
                        _dc_block(reader, c, coeffs[c["id"]],
                                  my * c["v"] + by, mx * c["h"] + bx,
                                  huff, pred, ah, al)
        else:
            c = scan_comps[0]
            bw = dims[c["id"]][0]
            _dc_block(reader, c, coeffs[c["id"]], m // bw, m % bw,
                      huff, pred, ah, al)


def _dc_block(reader, c, coef, by, bx, huff, pred, ah, al) -> None:
    if ah == 0:
        t = reader.decode_symbol(_table(huff, (0, c["td"]), "Huffman"))
        diff = _extend(reader.read_bits(t), t)
        pred[c["id"]] += diff
        coef[by, bx, 0] = pred[c["id"]] << al
    else:
        if reader.read_bit():
            coef[by, bx, 0] |= 1 << al


def _prog_ac_scan(reader_segs, c, coef, bw, bh, actab, ss, se,
                  ah, al, restart_interval: int) -> None:
    """One AC scan — always single-component in progressive (B.2.3).
    Ah=0: first pass with EOB-run coding (G.2.1); Ah>0: successive-
    approximation refinement with correction bits (G.2.2, the
    libjpeg-documented public algorithm)."""
    n_blocks = bw * bh
    seg_i = 0
    reader = _BitReader(reader_segs[0])
    eobrun = 0
    for m in range(n_blocks):
        if restart_interval and m and m % restart_interval == 0:
            seg_i += 1
            if seg_i >= len(reader_segs):
                raise ValueError("jpeg: missing restart segment")
            reader = _BitReader(reader_segs[seg_i])
            eobrun = 0
        blk = coef[m // bw, m % bw]
        if ah == 0:
            if eobrun:
                eobrun -= 1
                continue
            k = ss
            while k <= se:
                rs = reader.decode_symbol(actab)
                r, s = rs >> 4, rs & 15
                if s == 0:
                    if r == 15:
                        k += 16
                        continue
                    eobrun = (1 << r) - 1
                    if r:
                        eobrun += reader.read_bits(r)
                    break
                k += r
                if k > se:
                    raise ValueError("jpeg: AC overflow in scan")
                blk[k] = _extend(reader.read_bits(s), s) << al
                k += 1
        else:
            eobrun = _ac_refine_block(reader, blk, actab, ss, se, al,
                                      eobrun)


def _ac_refine_block(reader, blk, actab, ss, se, al, eobrun) -> int:
    """AC successive-approximation refinement for one block (G.2.2):
    already-nonzero coefficients absorb correction bits; newly
    significant ones arrive as ±1<<al at run-coded zero-history
    positions; EOB runs still carry correction bits for the block
    tails they cover.  → remaining EOB run after this block."""
    p1 = 1 << al
    m1 = -1 << al

    def correct(kk: int) -> None:
        if reader.read_bit() and not (int(blk[kk]) & p1):
            blk[kk] += p1 if blk[kk] >= 0 else m1

    k = ss
    if eobrun == 0:
        while k <= se:
            rs = reader.decode_symbol(actab)
            r, s = rs >> 4, rs & 15
            newval = 0
            if s == 0:
                if r != 15:
                    eobrun = 1 << r
                    if r:
                        eobrun += reader.read_bits(r)
                    break
                # r == 15 (ZRL): skip 16 zero-history coefficients
            else:
                if s != 1:
                    raise ValueError("jpeg: bad refinement size")
                newval = p1 if reader.read_bit() else m1
            while k <= se:
                if blk[k] != 0:
                    correct(k)
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if newval:
                if k > se:
                    raise ValueError("jpeg: refinement overflow")
                blk[k] = newval
            k += 1
    if eobrun > 0:
        while k <= se:
            if blk[k] != 0:
                correct(k)
            k += 1
        eobrun -= 1
    return eobrun


def _decode_progressive(data: bytes) -> np.ndarray:
    """Progressive JPEG (SOF2) → (h, w, 3) uint8 RGB.  Scans
    accumulate into per-component zigzag coefficient arrays (DC/AC ×
    first/refinement, spectral selection + successive approximation);
    dequant + IDCT + upsample + color run once at EOI through the
    same kernels as the baseline path — identical coefficients give
    pixel-identical output."""
    pos = 2
    qt: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], dict] = {}
    comps: list[dict] = []
    w = h = 0
    hmax = vmax = 1
    mcux = mcuy = 0
    restart_interval = 0
    coeffs: dict[int, np.ndarray] = {}
    dims: dict[int, tuple[int, int]] = {}
    saw_scan = False
    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            raise ValueError("jpeg: bad marker")
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        seglen = int.from_bytes(data[pos:pos + 2], "big")
        seg = data[pos + 2:pos + seglen]
        if seglen < 2 or len(seg) != seglen - 2:
            raise ValueError("jpeg: truncated marker segment")
        if marker == 0xDB:  # DQT
            p = 0
            while p < len(seg):
                prec, tid = seg[p] >> 4, seg[p] & 15
                p += 1
                n = 64 * (2 if prec else 1)
                raw = seg[p:p + n]
                tbl = (np.frombuffer(raw, ">u2").astype(np.int32)
                       if prec else
                       np.frombuffer(raw, np.uint8).astype(np.int32))
                dq = np.zeros(64, np.int32)
                dq[ZIGZAG] = tbl
                qt[tid] = dq.reshape(8, 8)
                p += n
        elif marker == 0xC2:  # SOF2
            h = int.from_bytes(seg[1:3], "big")
            w = int.from_bytes(seg[3:5], "big")
            if len(seg) < 6 or len(seg) < 6 + 3 * seg[5]:
                raise ValueError("jpeg: short SOF segment")
            nc = seg[5]
            comps = []
            for i in range(nc):
                cid, hv, tq = seg[6 + 3 * i:9 + 3 * i]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 15,
                              "tq": tq})
            hmax = max(c["h"] for c in comps)
            vmax = max(c["v"] for c in comps)
            mcux = -(-w // (8 * hmax))
            mcuy = -(-h // (8 * vmax))
            for c in comps:
                # MCU-padded storage; non-interleaved scans cover only
                # the component's own ceil grid (B.2.3)
                coeffs[c["id"]] = np.zeros(
                    (mcuy * c["v"], mcux * c["h"], 64), np.int32)
                cw = -(-w * c["h"] // hmax)
                ch = -(-h * c["v"] // vmax)
                dims[c["id"]] = (-(-cw // 8), -(-ch // 8))
        elif marker in (0xC0, 0xC1, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9,
                        0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError("jpeg: mixed/unsupported SOF in "
                             "progressive stream")
        elif marker == 0xC4:  # DHT (progressive may redefine per scan)
            p = 0
            while p < len(seg):
                tc, th = seg[p] >> 4, seg[p] & 15
                bits = list(seg[p + 1:p + 17])
                n = sum(bits)
                values = list(seg[p + 17:p + 17 + n])
                huff[(tc, th)] = _huff_codes(bits, values)
                p += 17 + n
        elif marker == 0xDD:  # DRI
            restart_interval = int.from_bytes(seg[0:2], "big")
        elif marker == 0xDA:  # SOS — decode this scan now
            if not comps:
                raise ValueError("jpeg: SOS before SOF2")
            if not seg or len(seg) < 4 + 2 * seg[0]:
                raise ValueError("jpeg: short SOS segment")
            ns = seg[0]
            scan_comps = []
            for i in range(ns):
                cs, tdta = seg[1 + 2 * i:3 + 2 * i]
                comp = _scan_component(comps, cs)
                scan_comps.append(dict(comp, td=tdta >> 4,
                                       ta=tdta & 15))
            ss, se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            ahal = seg[3 + 2 * ns]
            ah, al = ahal >> 4, ahal & 15
            scan, rst_at, pos = _destuff(data, pos + seglen)
            segs = (_split_restarts(scan, rst_at)
                    if restart_interval and rst_at else [scan])
            if ss == 0:  # DC scan
                if se != 0:
                    raise ValueError("jpeg: progressive scan mixes "
                                     "DC and AC")
                _prog_dc_scan(segs, scan_comps, coeffs, dims, huff,
                              ah, al, restart_interval, mcux, mcuy)
            else:  # AC scan: single component only (B.2.3)
                if ns != 1:
                    raise ValueError("jpeg: interleaved AC scan in "
                                     "progressive stream")
                if not 1 <= ss <= se <= 63:
                    raise ValueError("jpeg: bad spectral selection")
                c = scan_comps[0]
                bw, bh = dims[c["id"]]
                _prog_ac_scan(segs, c, coeffs[c["id"]], bw, bh,
                              _table(huff, (1, c["ta"]), "Huffman"),
                              ss, se, ah, al,
                              restart_interval)
            saw_scan = True
            continue
        pos += seglen
    if not saw_scan or not w or not h:
        raise ValueError("jpeg: no scan data")

    planes = {}
    for c in comps:
        zz = coeffs[c["id"]]
        by, bx = zz.shape[0], zz.shape[1]
        dq = _table(qt, c["tq"], "quantization")
        plane = np.zeros((by * 8, bx * 8), np.float64)
        for yb in range(by):
            for xb in range(bx):
                blk = np.zeros(64, np.float64)
                blk[ZIGZAG] = zz[yb, xb]
                b8 = blk.reshape(8, 8) * dq
                plane[yb * 8:yb * 8 + 8, xb * 8:xb * 8 + 8] = \
                    _B.T @ b8 @ _B + 128.0
        planes[c["id"]] = plane
    return _upsample_color(comps, planes, w, h, hmax, vmax)


# ---------------------------------------------------------------------------
# encoder (baseline 4:4:4, Annex K tables)
# ---------------------------------------------------------------------------

class _BitWriter:
    __slots__ = ("out", "acc", "nbits")

    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        for i in range(length - 1, -1, -1):
            self.acc = (self.acc << 1) | ((code >> i) & 1)
            self.nbits += 1
            if self.nbits == 8:
                b = self.acc & 0xFF
                self.out.append(b)
                if b == 0xFF:
                    self.out.append(0x00)  # stuffing
                self.acc = 0
                self.nbits = 0

    def flush(self) -> None:
        if self.nbits:
            self.write((1 << (8 - self.nbits)) - 1, 8 - self.nbits)


def _quality_tables(quality: int):
    quality = min(100, max(1, quality))
    s = 5000 // quality if quality < 50 else 200 - 2 * quality
    ql = np.clip((_QL * s + 50) // 100, 1, 255).astype(np.int32)
    qc = np.clip((_QC * s + 50) // 100, 1, 255).astype(np.int32)
    return ql, qc


def _mag(v: int) -> tuple[int, int]:
    """value → (size, magnitude-bits) per F.1.2.1."""
    if v == 0:
        return 0, 0
    a = abs(v)
    t = a.bit_length()
    return t, (v if v > 0 else v + (1 << t) - 1)


def encode_jpeg(pixels: np.ndarray, quality: int = 85) -> bytes:
    """(h, w, 3) uint8 RGB → baseline JFIF bytes (4:4:4)."""
    px = np.asarray(pixels)
    if px.ndim != 3 or px.shape[2] != 3:
        raise ValueError("encode_jpeg wants (h, w, 3)")
    h, w = px.shape[:2]
    r = px[:, :, 0].astype(np.float64)
    g = px[:, :, 1].astype(np.float64)
    b = px[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    ql, qc = _quality_tables(quality)
    qlz = ql.reshape(8, 8)[np.unravel_index(ZIGZAG, (8, 8))]
    qcz = qc.reshape(8, 8)[np.unravel_index(ZIGZAG, (8, 8))]

    out = bytearray(b"\xFF\xD8")  # SOI
    # APP0 JFIF
    app0 = b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    out += b"\xFF\xE0" + (len(app0) + 2).to_bytes(2, "big") + app0
    for tid, tbl in ((0, qlz), (1, qcz)):
        out += b"\xFF\xDB" + (67).to_bytes(2, "big") + bytes([tid]) \
            + bytes(int(v) for v in tbl)
    out += (b"\xFF\xC0" + (17).to_bytes(2, "big") + b"\x08"
            + h.to_bytes(2, "big") + w.to_bytes(2, "big") + b"\x03"
            + bytes([1, 0x11, 0]) + bytes([2, 0x11, 1])
            + bytes([3, 0x11, 1]))
    for tc, th, (bits, vals) in ((0, 0, _DC_L), (1, 0, _AC_L),
                                 (0, 1, _DC_C), (1, 1, _AC_C)):
        seg = bytes([(tc << 4) | th]) + bytes(bits) + bytes(vals)
        out += b"\xFF\xC4" + (len(seg) + 2).to_bytes(2, "big") + seg
    out += (b"\xFF\xDA" + (12).to_bytes(2, "big") + b"\x03"
            + bytes([1, 0x00]) + bytes([2, 0x11]) + bytes([3, 0x11])
            + b"\x00\x3F\x00")

    dc_l, ac_l = _enc_codes(*_DC_L), _enc_codes(*_AC_L)
    dc_c, ac_c = _enc_codes(*_DC_C), _enc_codes(*_AC_C)
    wtr = _BitWriter()
    bh, bw = -(-h // 8) * 8, -(-w // 8) * 8
    pred = [0, 0, 0]
    qmat = [ql.reshape(8, 8), qc.reshape(8, 8), qc.reshape(8, 8)]
    planes = []
    for p in (y, cb, cr):
        pp = np.empty((bh, bw))
        pp[:h, :w] = p
        pp[h:, :w] = p[h - 1:h, :]
        pp[:, w:] = pp[:, w - 1:w]
        planes.append(pp - 128.0)
    for my in range(bh // 8):
        for mx in range(bw // 8):
            for ci, p in enumerate(planes):
                blk = p[my * 8:my * 8 + 8, mx * 8:mx * 8 + 8]
                coef = _B @ blk @ _B.T
                q = np.round(coef / qmat[ci]).astype(np.int64)
                zz = q[np.unravel_index(ZIGZAG, (8, 8))]
                dct, act = (dc_l, ac_l) if ci == 0 else (dc_c, ac_c)
                diff = int(zz[0]) - pred[ci]
                pred[ci] = int(zz[0])
                t, mag = _mag(diff)
                code, length = dct[t]
                wtr.write(code, length)
                if t:
                    wtr.write(mag, t)
                run = 0
                last = 63
                while last > 0 and zz[last] == 0:
                    last -= 1
                for k in range(1, last + 1):
                    v = int(zz[k])
                    if v == 0:
                        run += 1
                        continue
                    while run > 15:
                        code, length = act[0xF0]
                        wtr.write(code, length)
                        run -= 16
                    t, mag = _mag(v)
                    code, length = act[(run << 4) | t]
                    wtr.write(code, length)
                    wtr.write(mag, t)
                    run = 0
                if last < 63:
                    code, length = act[0x00]
                    wtr.write(code, length)
    wtr.flush()
    out += wtr.out
    out += b"\xFF\xD9"
    return bytes(out)


# ---------------------------------------------------------------------------
# progressive encoder (SOF2, round 5) — spectral selection +
# successive approximation with per-scan optimal Huffman AC tables
# (the Annex K AC tables lack the EOBn symbols progressive scans
# need, so each AC scan gets a K.2-built table emitted via DHT —
# which also exercises the decoder's mid-stream table redefinition)
# ---------------------------------------------------------------------------

# libjpeg's default progressive scan script shape (public): DC at
# Al=1, luma AC split 1-5/6-63 at Al=2, chroma AC at Al=1, then the
# refinement passes down to Al=0.  (comp_indices, Ss, Se, Ah, Al).
_DEFAULT_SCRIPT = (
    ((0, 1, 2), 0, 0, 0, 1),
    ((0,), 1, 5, 0, 2),
    ((1,), 1, 63, 0, 1),
    ((2,), 1, 63, 0, 1),
    ((0,), 6, 63, 0, 2),
    ((0,), 1, 63, 2, 1),
    ((0, 1, 2), 0, 0, 1, 0),
    ((0,), 1, 63, 1, 0),
    ((1,), 1, 63, 1, 0),
    ((2,), 1, 63, 1, 0),
)


def _quant_zz(px: np.ndarray, quality: int):
    """(h, w, 3) uint8 RGB → per-component quantized zigzag
    coefficient arrays (bh8, bw8, 64) int32 — the exact per-block
    float math of `encode_jpeg`, so a progressive stream carries the
    SAME coefficients as the baseline stream at equal quality (the
    pixel-exactness test anchor)."""
    h, w = px.shape[:2]
    r = px[:, :, 0].astype(np.float64)
    g = px[:, :, 1].astype(np.float64)
    b = px[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    ql, qc = _quality_tables(quality)
    qmat = [ql.reshape(8, 8), qc.reshape(8, 8), qc.reshape(8, 8)]
    bh, bw = -(-h // 8) * 8, -(-w // 8) * 8
    zz_idx = np.unravel_index(ZIGZAG, (8, 8))
    out = []
    for ci, p in enumerate((y, cb, cr)):
        pp = np.empty((bh, bw))
        pp[:h, :w] = p
        pp[h:, :w] = p[h - 1:h, :]
        pp[:, w:] = pp[:, w - 1:w]
        pp = pp - 128.0
        arr = np.zeros((bh // 8, bw // 8, 64), np.int32)
        for my in range(bh // 8):
            for mx in range(bw // 8):
                blk = pp[my * 8:my * 8 + 8, mx * 8:mx * 8 + 8]
                coef = _B @ blk @ _B.T
                q = np.round(coef / qmat[ci]).astype(np.int64)
                arr[my, mx] = q[zz_idx]
        out.append(arr)
    return out


def _build_huffman(freq) -> tuple[list, list]:
    """Symbol frequencies (len 256) → (bits[1..16], values): the
    T.81 K.2 optimal-table procedure (public): pairwise merge with a
    reserved 257th symbol so the all-ones code stays unused, then the
    16-bit length-limiting adjustment."""
    freq = list(freq) + [1]
    codesize = [0] * 257
    others = [-1] * 257

    def least(skip: int) -> int:
        best, bv = -1, None
        for i in range(257):
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
    counts = [0] * 33
    for cs in codesize:
        if cs:
            if cs > 32:
                raise ValueError("huffman: code too long")
            counts[cs] += 1
    for ln in range(32, 16, -1):
        while counts[ln] > 0:
            j = ln - 2
            while counts[j] == 0:
                j -= 1
            counts[ln] -= 2
            counts[ln - 1] += 1
            counts[j + 1] += 2
            counts[j] -= 1
    for ln in range(16, 0, -1):  # drop the reserved symbol
        if counts[ln]:
            counts[ln] -= 1
            break
    order = sorted((cs, s) for s, cs in enumerate(codesize[:256]) if cs)
    values = [s for _, s in order]
    return counts[1:17], values


class _FreqSink:
    """Statistics pass: counts Huffman symbols, ignores raw bits."""

    def __init__(self) -> None:
        self.freq = [0] * 256

    def sym(self, s: int) -> None:
        self.freq[s] += 1

    def bits(self, v: int, n: int) -> None:
        pass


class _WriteSink:
    """Emission pass over a `_BitWriter` with an encode table."""

    def __init__(self, wtr: _BitWriter, enc: dict) -> None:
        self.wtr = wtr
        self.enc = enc

    def sym(self, s: int) -> None:
        code, length = self.enc[s]
        self.wtr.write(code, length)

    def bits(self, v: int, n: int) -> None:
        if n:
            self.wtr.write(v, n)


def _scan_dc(zzs, comp_idx, al: int, ah: int, sink_per_comp,
             restart_interval: int, on_restart) -> None:
    """DC scan body over interleaved 4:4:4 MCUs (one block per
    component).  Ah=0: Huffman diffs of the point-transformed DC;
    Ah>0: one raw refinement bit per block."""
    bh8, bw8 = zzs[0].shape[:2]
    pred = {ci: 0 for ci in comp_idx}
    m = 0
    for my in range(bh8):
        for mx in range(bw8):
            if restart_interval and m and m % restart_interval == 0:
                on_restart()
                pred = {ci: 0 for ci in comp_idx}
            m += 1
            for ci in comp_idx:
                v = int(zzs[ci][my, mx, 0]) >> al  # arithmetic shift
                sink = sink_per_comp[ci]
                if ah == 0:
                    diff = v - pred[ci]
                    pred[ci] = v
                    t, mag = _mag(diff)
                    sink.sym(t)
                    sink.bits(mag, t)
                else:
                    sink.bits(v & 1, 1)


def _scan_ac_first(zz, ss: int, se: int, al: int, sink,
                   restart_interval: int, on_restart) -> None:
    """AC first scan (G.1.2.2): sign-magnitude point transform,
    run/size coding, EOB-run accumulation."""
    bh8, bw8 = zz.shape[:2]
    state = {"eobrun": 0}

    def flush_eob() -> None:
        n = state["eobrun"]
        if n:
            r = n.bit_length() - 1
            sink.sym(r << 4)
            sink.bits(n & ((1 << r) - 1), r)
            state["eobrun"] = 0

    m = 0
    for my in range(bh8):
        for mx in range(bw8):
            if restart_interval and m and m % restart_interval == 0:
                flush_eob()
                on_restart()
            m += 1
            blk = zz[my, mx]
            pt = []
            for k in range(ss, se + 1):
                v = int(blk[k])
                a = abs(v) >> al
                pt.append(a if v >= 0 else -a)
            last = -1
            for i, v in enumerate(pt):
                if v:
                    last = i
            if last < 0:
                state["eobrun"] += 1
                if state["eobrun"] == 0x7FFF:
                    flush_eob()
                continue
            flush_eob()
            r = 0
            for i in range(last + 1):
                v = pt[i]
                if v == 0:
                    r += 1
                    continue
                while r > 15:
                    sink.sym(0xF0)
                    r -= 16
                t, mag = _mag(v)
                sink.sym((r << 4) | t)
                sink.bits(mag, t)
                r = 0
            if last < se - ss:
                state["eobrun"] += 1
                if state["eobrun"] == 0x7FFF:
                    flush_eob()
    flush_eob()


def _scan_ac_refine(zz, ss: int, se: int, al: int, sink,
                    restart_interval: int, on_restart) -> None:
    """AC refinement scan (G.1.2.3, the libjpeg-documented public
    algorithm): correction bits for already-nonzero coefficients are
    buffered and flushed after the next symbol; newly significant
    coefficients are run-coded over zero-HISTORY positions only."""
    bh8, bw8 = zz.shape[:2]
    state = {"eobrun": 0, "pend": []}

    def flush_eob() -> None:
        if state["eobrun"]:
            n = state["eobrun"]
            r = n.bit_length() - 1
            sink.sym(r << 4)
            sink.bits(n & ((1 << r) - 1), r)
            state["eobrun"] = 0
            for b in state["pend"]:
                sink.bits(b, 1)
            state["pend"] = []

    m = 0
    for my in range(bh8):
        for mx in range(bw8):
            if restart_interval and m and m % restart_interval == 0:
                flush_eob()
                # any pend bits without an eobrun cannot exist here:
                # pend only accumulates under an open eobrun
                on_restart()
            m += 1
            blk = zz[my, mx]
            absv = []
            eobpos = -1
            for i, k in enumerate(range(ss, se + 1)):
                a = abs(int(blk[k])) >> al
                absv.append(a)
                if a == 1:
                    eobpos = i
            r = 0
            br: list[int] = []
            for i, k in enumerate(range(ss, se + 1)):
                t = absv[i]
                if t == 0:
                    r += 1
                    continue
                while r > 15 and i <= eobpos:
                    flush_eob()
                    sink.sym(0xF0)
                    r -= 16
                    for b in br:
                        sink.bits(b, 1)
                    br = []
                if t > 1:
                    br.append(t & 1)
                    continue
                # t == 1: newly significant
                flush_eob()
                sink.sym((r << 4) | 1)
                sink.bits(1 if int(blk[k]) >= 0 else 0, 1)
                for b in br:
                    sink.bits(b, 1)
                br = []
                r = 0
            if r > 0 or br:
                state["eobrun"] += 1
                state["pend"].extend(br)
                if state["eobrun"] == 0x7FFF or len(state["pend"]) > 900:
                    flush_eob()
    flush_eob()


def encode_jpeg_progressive(pixels: np.ndarray, quality: int = 85,
                            script=None,
                            restart_interval: int = 0) -> bytes:
    """(h, w, 3) uint8 RGB → progressive JFIF bytes (SOF2, 4:4:4).
    ``script`` is a tuple of (comp_indices, Ss, Se, Ah, Al) scans
    (default: the libjpeg-shaped 10-scan spectral-selection +
    successive-approximation script).  Carries the same quantized
    coefficients as `encode_jpeg` at equal quality, so the two
    streams decode pixel-identically."""
    px = np.asarray(pixels)
    if px.ndim != 3 or px.shape[2] != 3:
        raise ValueError("encode_jpeg_progressive wants (h, w, 3)")
    h, w = px.shape[:2]
    zzs = _quant_zz(px, quality)
    script = _DEFAULT_SCRIPT if script is None else script

    ql, qc = _quality_tables(quality)
    zz_idx = np.unravel_index(ZIGZAG, (8, 8))
    qlz = ql.reshape(8, 8)[zz_idx]
    qcz = qc.reshape(8, 8)[zz_idx]
    out = bytearray(b"\xFF\xD8")
    app0 = b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    out += b"\xFF\xE0" + (len(app0) + 2).to_bytes(2, "big") + app0
    for tid, tbl in ((0, qlz), (1, qcz)):
        out += b"\xFF\xDB" + (67).to_bytes(2, "big") + bytes([tid]) \
            + bytes(int(v) for v in tbl)
    out += (b"\xFF\xC2" + (17).to_bytes(2, "big") + b"\x08"
            + h.to_bytes(2, "big") + w.to_bytes(2, "big") + b"\x03"
            + bytes([1, 0x11, 0]) + bytes([2, 0x11, 1])
            + bytes([3, 0x11, 1]))
    for tc, th, (bits, vals) in ((0, 0, _DC_L), (0, 1, _DC_C)):
        seg = bytes([(tc << 4) | th]) + bytes(bits) + bytes(vals)
        out += b"\xFF\xC4" + (len(seg) + 2).to_bytes(2, "big") + seg
    if restart_interval:
        out += b"\xFF\xDD" + (4).to_bytes(2, "big") \
            + restart_interval.to_bytes(2, "big")

    dc_enc = {0: _enc_codes(*_DC_L), 1: _enc_codes(*_DC_C),
              2: _enc_codes(*_DC_C)}

    for comp_idx, ss, se, ah, al in script:
        if ss == 0 and se != 0:
            raise ValueError("progressive scan mixes DC and AC")
        if ss > 0 and len(comp_idx) != 1:
            raise ValueError("AC scans must be single-component")
        wtr = _BitWriter()
        rst_n = {"i": 0}

        def on_restart(_w=wtr, _r=rst_n) -> None:
            _w.flush()
            _w.out += bytes([0xFF, 0xD0 + (_r["i"] & 7)])
            _r["i"] += 1

        if ss == 0:
            sinks = {ci: _WriteSink(wtr, dc_enc[ci]) for ci in comp_idx}
            _scan_dc(zzs, comp_idx, al, ah, sinks,
                     restart_interval, on_restart)
            sos_comps = b"".join(
                bytes([ci + 1, (0 if ci == 0 else 1) << 4])
                for ci in comp_idx)
        else:
            ci = comp_idx[0]
            body = (_scan_ac_first if ah == 0 else _scan_ac_refine)
            stats = _FreqSink()
            body(zzs[ci], ss, se, al, stats,
                 restart_interval, lambda: None)
            if not any(stats.freq):
                stats.freq[0] = 1  # degenerate scan: one dummy code
            bits, vals = _build_huffman(stats.freq)
            seg = bytes([0x10]) + bytes(bits) + bytes(vals)
            out += b"\xFF\xC4" + (len(seg) + 2).to_bytes(2, "big") + seg
            sink = _WriteSink(wtr, _enc_codes(bits, vals))
            body(zzs[ci], ss, se, al, sink,
                 restart_interval, on_restart)
            sos_comps = bytes([ci + 1, 0x00])
        sos = (bytes([len(comp_idx)]) + sos_comps
               + bytes([ss, se, (ah << 4) | al]))
        out += b"\xFF\xDA" + (len(sos) + 2).to_bytes(2, "big") + sos
        wtr.flush()
        out += wtr.out
    out += b"\xFF\xD9"
    return bytes(out)
