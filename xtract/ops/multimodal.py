"""Multimodal columns: opaque binary payloads + typed metadata, with
REAL pure-stdlib codecs for the formats this container can decode.

Image/audio/video payloads are opaque ``binary`` columns with a typed
metadata struct; decode / feature-extract / resize / frame-sample run
as actor-pool ``map_batches`` stages with small batch sizes (large
payloads: batch_size × payload must fit the worker heap).

Codec support (no third-party image/audio libraries exist in this
environment, so everything here is stdlib+numpy — and therefore real,
deterministic, and tested end-to-end):

- **image**: 24-bit uncompressed BMP (BITMAPINFOHEADER, bottom-up) —
  ``decode_bmp``/``encode_bmp`` via ``struct``; baseline AND
  progressive JPEG (`ops/jpeg`, pure numpy); PNG incl. Adam7 and
  16-bit (`ops/png`, stdlib zlib + numpy — the reference's own
  ingest format, cli/src/main.rs:144-145); GIF incl. animation
  (`ops/gif`, pure-Python LZW); TIFF (`ops/tiff` — none/LZW/
  deflate/PackBits, predictor, both byte orders); lossless WebP
  (`ops/webp` — full VP8L: prefix codes, LZ77, color cache, all
  four transforms).  That completes the reference image layer's
  ingest set (leptonica reads BMP/PNG/JPEG/GIF/TIFF/WEBP).
  Features are real per-channel statistics; resize is a real
  nearest-neighbor kernel.
- **audio**: WAV via a manual RIFF walk (round 5) — 8/16/24/32-bit
  PCM, IEEE float32, G.711 μ-law/A-law, extensible wrappers, stereo
  mixdown; features are real RMS / zero-crossing / coarse FFT
  magnitudes.
- **video**: the ``XRAW`` frame container (magic + u32 frame count +
  length-prefixed BMP frames — defined here, trivially parseable);
  frame sampling decodes the real frames.
- **anything else** (arithmetic-coded JPEG, 16-bit/interlaced
  PNG, MP4/...) needs codecs this container does not ship:
  ``decode_one`` raises ``NotImplementedError`` and the row gets
  ``decode_status='unsupported_codec'`` — the honest path, to be
  swapped for PIL/libav when the dependency exists.
"""

from __future__ import annotations

import io
import struct
import wave

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("url", pa.string()),
    ("kind", pa.string()),          # 'image' | 'audio' | 'video'
    ("payload", pa.binary()),
    ("meta", pa.struct([("width", pa.int32()), ("height", pa.int32()),
                        ("sample_rate", pa.int32()), ("n_frames", pa.int32()),
                        ("codec", pa.string())])),
])

FEATURE_DIM = 32

_XRAW_MAGIC = b"XRAW"
_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_GIF_SIGS = (b"GIF87a", b"GIF89a")
_TIFF_SIGS = (b"II*\x00", b"MM\x00*")


# ---------------------------------------------------------------------------
# real pure-stdlib codecs
# ---------------------------------------------------------------------------

def encode_bmp(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB → 24-bit uncompressed BMP bytes (BI_RGB,
    bottom-up rows, 4-byte row padding — the classic Windows format)."""
    h, w, _ = pixels.shape
    row_size = (w * 3 + 3) & ~3
    img_size = row_size * h
    header = struct.pack("<2sIHHI", b"BM", 54 + img_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size,
                       2835, 2835, 0, 0)
    rows = []
    pad = b"\x00" * (row_size - w * 3)
    bgr = pixels[:, :, ::-1]  # BMP stores BGR
    for y in range(h - 1, -1, -1):  # bottom-up
        rows.append(bgr[y].tobytes() + pad)
    return header + info + b"".join(rows)


def decode_bmp(data: bytes) -> np.ndarray:
    """24-bit uncompressed BMP bytes → (h, w, 3) uint8 RGB."""
    if data[:2] != b"BM":
        raise ValueError("not a BMP payload")
    off = struct.unpack_from("<I", data, 10)[0]
    hdr_size, w, h, _planes, bpp, comp = struct.unpack_from("<IiiHHI", data, 14)
    if bpp != 24 or comp != 0:
        raise NotImplementedError(f"BMP bpp={bpp} compression={comp} unsupported")
    bottom_up = h > 0
    h = abs(h)
    row_size = (w * 3 + 3) & ~3
    out = np.empty((h, w, 3), np.uint8)
    for i in range(h):
        row = np.frombuffer(data, np.uint8, w * 3, off + i * row_size)
        y = h - 1 - i if bottom_up else i
        out[y] = row.reshape(w, 3)[:, ::-1]  # BGR → RGB
    return out


def _ulaw_decode(codes: np.ndarray) -> np.ndarray:
    """G.711 μ-law bytes → int16 (standard public formula)."""
    c = (~codes.astype(np.int32)) & 0xFF
    sign = c & 0x80
    exp = (c >> 4) & 7
    mant = c & 0xF
    mag = (((mant << 3) | 0x84) << exp) - 0x84
    return np.where(sign, -mag, mag).astype(np.int16)


def _ulaw_encode(samples: np.ndarray) -> np.ndarray:
    x = samples.astype(np.int32)
    sign = np.where(x < 0, 0x80, 0)
    mag = np.minimum(np.abs(x), 32635) + 0x84
    exp = (np.log2(mag).astype(np.int32) - 7).clip(0, 7)
    mant = (mag >> (exp + 3)) & 0xF
    return ((~(sign | (exp << 4) | mant)) & 0xFF).astype(np.uint8)


def _alaw_decode(codes: np.ndarray) -> np.ndarray:
    """G.711 A-law bytes → int16 (sign bit 0x80 = positive)."""
    a = codes.astype(np.int32) ^ 0x55
    exp = (a >> 4) & 7
    mant = a & 0xF
    mag = np.where(exp == 0, (mant << 4) + 8,
                   ((mant << 4) + 0x108) << np.maximum(exp - 1, 0))
    return np.where(a & 0x80, mag, -mag).astype(np.int16)


_ALAW_SEG_END = np.array([0x1F, 0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF,
                          0x7FF, 0xFFF], np.int32)


def _alaw_encode(samples: np.ndarray) -> np.ndarray:
    """Standard G.711 linear→A-law (public seg-table algorithm):
    13-bit magnitude, first segment whose end covers it, 4-bit
    mantissa at shift ``seg`` (1 for segments 0–1), XOR 0x55."""
    pcm = samples.astype(np.int32) >> 3
    mask = np.where(pcm >= 0, 0xD5, 0x55)
    pcm = np.where(pcm >= 0, pcm, -pcm - 1)
    seg = np.searchsorted(_ALAW_SEG_END, pcm)
    shift = np.where(seg < 2, 1, seg)
    aval = np.where(seg >= 8, 0x7F,
                    (seg << 4) | ((pcm >> shift) & 0xF))
    return ((aval ^ mask) & 0xFF).astype(np.uint8)


#: IEEE-float WAV full scale: int16 sample s <-> float s / 32768, the
#: same factor both ways so every int16 round-trips exactly (+1.0
#: clips to 32767)
_FLOAT_SCALE = 32768.0


def encode_wav(samples: np.ndarray, sample_rate: int,
               fmt: str = "pcm16") -> bytes:
    """int16 mono samples → WAV bytes.  ``fmt``: ``pcm16`` (stdlib
    ``wave``), or round-5 manual writers ``pcm8``/``pcm24``/
    ``float32``/``ulaw``/``alaw`` for real-crawl audio diversity."""
    if fmt == "pcm16":
        buf = io.BytesIO()
        with wave.open(buf, "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(sample_rate)
            f.writeframes(samples.astype("<i2").tobytes())
        return buf.getvalue()
    s = samples.astype(np.int32)
    if fmt == "pcm8":
        tag, bits, payload = 1, 8, (((s >> 8) + 128) & 0xFF
                                    ).astype(np.uint8).tobytes()
    elif fmt == "pcm24":
        wide = (s << 8).astype("<i4").tobytes()
        payload = b"".join(wide[i:i + 3] for i in range(0, len(wide), 4))
        tag, bits = 1, 24
    elif fmt == "float32":
        tag, bits = 3, 32
        payload = (s / _FLOAT_SCALE).astype("<f4").tobytes()
    elif fmt == "ulaw":
        tag, bits, payload = 7, 8, _ulaw_encode(s).tobytes()
    elif fmt == "alaw":
        tag, bits, payload = 6, 8, _alaw_encode(s).tobytes()
    else:
        raise ValueError(f"encode_wav: unknown fmt {fmt!r}")
    block = bits // 8
    fmt_chunk = struct.pack("<HHIIHH", tag, 1, sample_rate,
                            sample_rate * block, block, bits)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wav(data: bytes) -> tuple[np.ndarray, int]:
    """WAV bytes → (int16 mono samples, sample_rate).  Manual RIFF
    walk (round 5 — the stdlib ``wave`` module is PCM-only):
    8/16/24/32-bit PCM, IEEE float32, G.711 μ-law and A-law, plus
    WAVE_FORMAT_EXTENSIBLE wrappers; multi-channel mixes down."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a WAV payload")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (n,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + n]
        if len(body) != n:
            raise ValueError("wav: truncated chunk")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            payload = body
        pos += 8 + n + (n & 1)  # chunks are word-aligned
    if fmt is None or payload is None or len(fmt) < 16:
        raise ValueError("wav: missing fmt/data chunk")
    tag, nch, rate, _br, _ba, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == 0xFFFE and len(fmt) >= 26:  # extensible: real tag in GUID
        (tag,) = struct.unpack("<H", fmt[24:26])
    if nch == 0:
        raise ValueError("wav: zero channels")
    if tag == 1:  # integer PCM
        if bits == 8:
            s = (np.frombuffer(payload, np.uint8).astype(np.int32)
                 - 128) << 8
        elif bits == 16:
            s = np.frombuffer(payload, "<i2").astype(np.int32)
        elif bits == 24:
            b = np.frombuffer(payload, np.uint8)
            b = b[:len(b) - len(b) % 3].reshape(-1, 3).astype(np.int32)
            v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            s = (np.where(v >= 1 << 23, v - (1 << 24), v)) >> 8
        elif bits == 32:
            s = np.frombuffer(payload, "<i4").astype(np.int64) >> 16
        else:
            raise NotImplementedError(f"wav: {bits}-bit PCM unsupported")
    elif tag == 3 and bits == 32:  # IEEE float
        f = np.frombuffer(payload, "<f4").astype(np.float64)
        s = np.clip(np.round(f * _FLOAT_SCALE), -32768, 32767).astype(np.int32)
    elif tag == 7 and bits == 8:  # μ-law
        s = _ulaw_decode(np.frombuffer(payload, np.uint8)).astype(np.int32)
    elif tag == 6 and bits == 8:  # A-law
        s = _alaw_decode(np.frombuffer(payload, np.uint8)).astype(np.int32)
    else:
        raise NotImplementedError(
            f"wav: format tag {tag} / {bits}-bit unsupported")
    s = s[:len(s) - len(s) % nch]
    if nch > 1:
        s = s.reshape(-1, nch).mean(axis=1)
    return s.astype(np.int16), rate


def encode_xraw(frames: list[bytes]) -> bytes:
    """BMP frame list → XRAW container (magic, u32 count, u32-length-
    prefixed frames) — the simple seekable video container used here."""
    parts = [_XRAW_MAGIC, struct.pack("<I", len(frames))]
    for fr in frames:
        parts.append(struct.pack("<I", len(fr)))
        parts.append(fr)
    return b"".join(parts)


def decode_xraw(data: bytes) -> list[bytes]:
    """XRAW container → list of BMP frame payloads."""
    if data[:4] != _XRAW_MAGIC:
        raise ValueError("not an XRAW payload")
    n = struct.unpack_from("<I", data, 4)[0]
    off = 8
    frames = []
    for _ in range(n):
        ln = struct.unpack_from("<I", data, off)[0]
        off += 4
        frames.append(data[off:off + ln])
        off += ln
    return frames


# ---------------------------------------------------------------------------
# synthesis (deterministic REAL payloads for tests/bench)
# ---------------------------------------------------------------------------

def _synth_pixels(seed: int, w: int, h: int) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w].astype(np.int64)
    r = (xx * 7 + seed) % 256
    g = (yy * 11 + 3 * seed) % 256
    b = ((xx + yy) * 5 + 7 * seed) % 256
    return np.stack([r, g, b], axis=-1).astype(np.uint8)


def synth_media_batch(batch: pa.Table) -> pa.Table:
    """documents rows → deterministic REAL media rows: BMP/PNG images,
    PCM WAV audio, XRAW video — every payload decodes with the kernels
    above (no fakes).  Image container rotates by (doc_id//3) % 3:
    BMP / PNG RGB / PNG RGBA-opaque — all lossless over the SAME
    synthesized pixels, so every downstream feature/hash (and each SQL
    oracle, which replays the pixel generator from doc_id) is
    container-independent by construction."""
    ids = batch["doc_id"].to_pylist()
    rows = []
    for d in ids:
        kind = ("image", "audio", "video")[d % 3]
        w, h = 8 + (d % 32), 8 + (d * 7 % 32)
        if kind == "image":
            px = _synth_pixels(d, w, h)
            container = (d // 3) % 3
            if container == 0:
                payload, codec = encode_bmp(px), "bmp"
            else:
                from .png import encode_png

                payload = encode_png(px, 2 if container == 1 else 6,
                                     filter_mode="cycle")
                codec = "png"
            meta = {"width": w, "height": h, "sample_rate": 0,
                    "n_frames": 1, "codec": codec}
        elif kind == "audio":
            rate = 16000
            n = 800 + (d % 7) * 160
            t = np.arange(n, dtype=np.float64)
            freq = 110.0 + (d % 40) * 13.0
            samples = (np.sin(2 * np.pi * freq * t / rate)
                       * 12000).astype(np.int16)
            payload = encode_wav(samples, rate)
            meta = {"width": 0, "height": 0, "sample_rate": rate,
                    "n_frames": 1, "codec": "pcm_s16le"}
        else:
            n_frames = 1 + d % 24
            frames = [encode_bmp(_synth_pixels(d + fi, w, h))
                      for fi in range(n_frames)]
            payload = encode_xraw(frames)
            meta = {"width": w, "height": h, "sample_rate": 0,
                    "n_frames": n_frames, "codec": "xraw"}
        rows.append({
            "media_id": d, "url": f"https://media.example.org/{kind}/{d}",
            "kind": kind, "payload": payload, "meta": meta,
        })
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _image_features(pixels: np.ndarray) -> np.ndarray:
    """Real image features: per-channel mean/std/min/max + an 8-bin
    luminance histogram + dims → FEATURE_DIM floats."""
    f = np.zeros(FEATURE_DIM, np.float32)
    px = pixels.astype(np.float32)
    for c in range(3):
        ch = px[:, :, c]
        f[c * 4:(c + 1) * 4] = (ch.mean(), ch.std(), ch.min(), ch.max())
    lum = px.mean(axis=-1)
    hist, _ = np.histogram(lum, bins=8, range=(0, 256))
    f[12:20] = hist / max(1, lum.size)
    f[20] = pixels.shape[1]
    f[21] = pixels.shape[0]
    return f


def _audio_features(samples: np.ndarray, rate: int) -> np.ndarray:
    """Real audio features: RMS, zero-crossing rate, duration, coarse
    FFT magnitude bins."""
    f = np.zeros(FEATURE_DIM, np.float32)
    x = samples.astype(np.float64) / 32768.0
    if len(x):
        f[0] = np.sqrt((x ** 2).mean())
        f[1] = float(np.mean(np.abs(np.diff(np.signbit(x).astype(np.int8))))) \
            if len(x) > 1 else 0.0
        f[2] = len(x) / rate
        mag = np.abs(np.fft.rfft(x))
        if len(mag):
            bins = np.array_split(mag, 16)
            f[3:19] = [float(b.mean()) if len(b) else 0.0 for b in bins]
    f[19] = rate
    return f


class DecodeStage:
    """Actor pool stage: payload bytes → decoded feature columns.

    REAL kernels for BMP / 16-bit WAV / XRAW video (pure stdlib+numpy —
    see module docstring); other codecs raise ``NotImplementedError``
    per row, which lands as ``decode_status='unsupported_codec'``."""

    def __init__(self) -> None:
        pass

    def decode_one(self, payload: bytes, kind: str, meta: dict) -> np.ndarray:
        if payload[:2] == b"BM":
            return _image_features(decode_bmp(payload))
        if payload[:2] == b"\xFF\xD8":
            # real-crawl path: baseline + progressive JPEG (pure-numpy
            # decoder in ops/jpeg; arithmetic-coded raises inside and
            # lands as unsupported_codec like any other missing codec)
            from .jpeg import decode_jpeg

            return _image_features(decode_jpeg(payload))
        if payload[:8] == _PNG_SIG:
            # real-crawl path: PNG (round 5 — stdlib zlib + numpy in
            # ops/png, incl. Adam7 and 16-bit)
            from .png import decode_png

            return _image_features(decode_png(payload))
        if payload[:6] in _GIF_SIGS:
            # real-crawl path: GIF (round 5 — LZW in ops/gif);
            # animated GIFs report their frame count like XRAW videos
            from .gif import decode_gif_frames

            frames = decode_gif_frames(payload)
            feats = _image_features(frames[0])
            if len(frames) > 1:
                feats[22] = len(frames)
            return feats
        if payload[:4] in _TIFF_SIGS:
            # reference-parity path: TIFF (round 5 — leptonica's
            # remaining ingest format, ops/tiff)
            from .tiff import decode_tiff

            return _image_features(decode_tiff(payload))
        if payload[:4] == b"RIFF" and payload[8:12] == b"WEBP":
            # real-crawl path: lossless WebP (round 5 — VP8L in
            # ops/webp; lossy VP8 raises inside → unsupported)
            from .webp import decode_webp

            return _image_features(decode_webp(payload))
        if payload[:4] == b"RIFF":
            return _audio_features(*decode_wav(payload))
        if payload[:4] == _XRAW_MAGIC:
            frames = decode_xraw(payload)
            feats = _image_features(decode_bmp(frames[0]))
            feats[22] = len(frames)
            return feats
        raise NotImplementedError(
            f"codec {meta.get('codec') or 'unknown'!r} needs image/audio "
            "libraries absent from this environment")

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        kinds = batch["kind"].to_pylist()
        metas = batch["meta"].to_pylist()
        feats = np.zeros((len(payloads), FEATURE_DIM), np.float32)
        ok = []
        for i, (p, k, m) in enumerate(zip(payloads, kinds, metas)):
            try:
                feats[i] = self.decode_one(p or b"", k, m or {})
                ok.append("ok")
            except NotImplementedError:
                ok.append("unsupported_codec")
            except (ValueError, struct.error, wave.Error, EOFError):
                ok.append("decode_error")
        return (batch.drop_columns(["payload"])  # decoded stages drop raw bytes
                .append_column("features",
                               pa.array(list(feats), pa.list_(pa.float32(), FEATURE_DIM)))
                .append_column("decode_status", pa.array(ok, pa.string())))


def decode_media(ds, batch_size: int = 16, concurrency=(1, 4)):
    """Media dataset → features dataset.  Small batch_size: payloads are
    large; batch × concurrency must fit worker heap (SURVEY memory rule)."""
    return ds.map_batches(DecodeStage,
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency, num_cpus=1)


def resize_nearest(pixels: np.ndarray, width: int, height: int) -> np.ndarray:
    """Real nearest-neighbor resize (pure numpy indexing)."""
    h, w, _ = pixels.shape
    ys = (np.arange(height) * h // height).clip(0, h - 1)
    xs = (np.arange(width) * w // width).clip(0, w - 1)
    return pixels[ys][:, xs]


class ResizeStage:
    """Actor stage: REAL image resize (BMP decode → nearest-neighbor →
    BMP encode).  Non-BMP payloads get ``resize_status='unsupported_codec'``
    and an empty output payload."""

    def __init__(self, width: int = 64, height: int = 64) -> None:
        self.width = width
        self.height = height

    def resize_one(self, payload: bytes, meta: dict) -> bytes:
        if payload[:2] == b"\xFF\xD8":  # baseline JPEG input
            from .jpeg import decode_jpeg

            px = decode_jpeg(payload)
        elif payload[:8] == _PNG_SIG:  # PNG input
            from .png import decode_png

            px = decode_png(payload)
        elif payload[:6] in _GIF_SIGS:  # GIF input (first frame)
            from .gif import decode_gif

            px = decode_gif(payload)
        elif payload[:4] in _TIFF_SIGS:  # TIFF input
            from .tiff import decode_tiff

            px = decode_tiff(payload)
        elif payload[:4] == b"RIFF" and payload[8:12] == b"WEBP":
            from .webp import decode_webp

            px = decode_webp(payload)
        else:
            px = decode_bmp(payload)
        return encode_bmp(resize_nearest(px, self.width, self.height))

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        metas = batch["meta"].to_pylist()
        outs, ws, hs, st = [], [], [], []
        for p, m in zip(payloads, metas):
            try:
                outs.append(self.resize_one(p or b"", m or {}))
                ws.append(self.width)
                hs.append(self.height)
                st.append("ok")
            except (NotImplementedError, ValueError, struct.error):
                outs.append(b"")
                ws.append(0)
                hs.append(0)
                st.append("unsupported_codec")
        return (batch.append_column("resized", pa.array(outs, pa.binary()))
                     .append_column("out_width", pa.array(ws, pa.int32()))
                     .append_column("out_height", pa.array(hs, pa.int32()))
                     .append_column("resize_status", pa.array(st, pa.string())))


class FrameSampleStage:
    """Actor stage: REAL video frame sampling — parses the XRAW
    container (frame payload = the actual BMP bytes) or an animated
    GIF (round 5; frames re-encoded as BMP so every emitted frame
    shares one payload format) and emits one row per sampled frame
    (every ``stride``-th)."""

    def __init__(self, stride: int = 4) -> None:
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        out = {"media_id": [], "frame_index": [], "frame": []}
        for mid, kind, p in zip(ids, kinds, payloads):
            if kind != "video" or not p:
                continue
            if p[:4] == _XRAW_MAGIC:
                frames = decode_xraw(p)
            elif p[:6] in _GIF_SIGS:
                from .gif import decode_gif_frames

                frames = [encode_bmp(f) for f in decode_gif_frames(p)]
            else:
                continue
            for fi in range(0, len(frames), self.stride):
                out["media_id"].append(mid)
                out["frame_index"].append(fi)
                out["frame"].append(frames[fi])
        return pa.table({"media_id": pa.array(out["media_id"], pa.int64()),
                         "frame_index": pa.array(out["frame_index"], pa.int32()),
                         "frame": pa.array(out["frame"], pa.binary())})


# ---------------------------------------------------------------------------
# perceptual image hashing + near-duplicate detection
# ---------------------------------------------------------------------------

def average_hash(pixels: np.ndarray, grid: int = 8) -> int:
    """64-bit perceptual average-hash (aHash, public algorithm):
    grayscale → ``grid×grid`` mean-pooled cells → bit = cell mean >
    global mean.  Robust to resizing and mild noise, no DCT.

    EXACT integer arithmetic throughout (round 4): grayscale is kept
    as 3·gray = r+g+b, and the threshold compare is cross-multiplied
    onto the common denominator A = ∏dy·∏dx of all cell areas —
    ``64·S_c·(A/a_c) > Σ_j S_j·(A/a_j)`` in arbitrary-precision
    Python ints.  The float version flipped 143/21k hashes on exact
    cell-mean ties depending on summation order; the integer form is
    reproducible across float environments and SQL-replayable (the
    near-dup oracle re-derives it in HUGEINT)."""
    g3 = pixels.astype(np.int64).sum(axis=2)  # 3·gray, exact
    h, w = g3.shape
    ys = (np.arange(grid) * h // grid).clip(0, h - 1)
    xs = (np.arange(grid) * w // grid).clip(0, w - 1)
    cs = np.zeros((h + 1, w + 1), np.int64)
    cs[1:, 1:] = g3.cumsum(0).cumsum(1)
    yb = np.r_[ys, h]
    xb = np.r_[xs, w]
    cells = (cs[yb[1:]][:, xb[1:]] - cs[yb[:-1]][:, xb[1:]]
             - cs[yb[1:]][:, xb[:-1]] + cs[yb[:-1]][:, xb[:-1]])
    dy = (yb[1:] - yb[:-1]).astype(int)
    dx = (xb[1:] - xb[:-1]).astype(int)
    prod_y = 1
    for v in dy:
        prod_y *= max(int(v), 1)
    prod_x = 1
    for v in dx:
        prod_x *= max(int(v), 1)
    A = prod_y * prod_x
    # weight per cell: A // a_c (exact — a_c = dy_r·dx_c divides A)
    wy = [prod_y // max(int(v), 1) for v in dy]
    wx = [prod_x // max(int(v), 1) for v in dx]
    S = cells.tolist()
    terms = [int(S[r][c]) * wy[r] * wx[c]
             for r in range(grid) for c in range(grid)]
    total = sum(terms)
    v = 0
    for t in terms:
        v = (v << 1) | (1 if grid * grid * t > total else 0)
    return v


class ImageHashStage:
    """Actor stage: BMP decode → 64-bit aHash per image.  Non-BMP /
    corrupt payloads get ``hash_status='unsupported_codec'`` and hash 0
    (never dropped — accounting survives).  Setup-free but kept as a
    callable class for parity with the other media stages (a real
    deployment would hold a decoder context)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        hashes, status = [], []
        for kind, p in zip(kinds, payloads):
            try:
                if kind != "image" or not p:
                    raise ValueError
                if p[:2] == b"\xFF\xD8":  # baseline JPEG (real crawls)
                    from .jpeg import decode_jpeg

                    h = average_hash(decode_jpeg(p))
                elif p[:8] == _PNG_SIG:  # PNG (real crawls)
                    from .png import decode_png

                    h = average_hash(decode_png(p))
                elif p[:6] in _GIF_SIGS:  # GIF (real crawls)
                    from .gif import decode_gif

                    h = average_hash(decode_gif(p))
                elif p[:4] in _TIFF_SIGS:  # TIFF (real crawls)
                    from .tiff import decode_tiff

                    h = average_hash(decode_tiff(p))
                elif p[:4] == b"RIFF" and p[8:12] == b"WEBP":
                    from .webp import decode_webp

                    h = average_hash(decode_webp(p))
                else:
                    h = average_hash(decode_bmp(p))
                hashes.append(h - (1 << 64) if h >= (1 << 63) else h)
                status.append("ok")
            except Exception:
                hashes.append(np.int64(0))
                status.append("unsupported_codec")
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "ahash": pa.array(hashes, pa.int64()),
            "hash_status": pa.array(status, pa.string())})


def image_near_dups(ds, max_hamming: int = 6,
                    batch_size: int = 16, concurrency=(1, 4)):
    """→ Dataset(media_id, cluster): perceptual near-duplicate image
    clusters — the multimodal complement of the text dedup tier.

    Scale shape (the SimHash recipe, reused end-to-end):

    1. aHash per image in an actor-pool `map_batches` stage (small
       batches — payloads are large binaries);
    2. band the 64-bit hash into 4×16-bit keys; images sharing
       a band bucket become candidate pairs (per-partition, with the
       dedup tier's star-toward-min-id cap on hot buckets via the
       shared `ops/dedup` machinery shape);
    3. exact hamming verify ≤ ``max_hamming`` (vectorized popcount);
    4. connected components (`ops/cc`) label the clusters.
    """
    from .dedup import simhash_dedup

    hashes = ds.map_batches(ImageHashStage, batch_size=batch_size,
                            concurrency=concurrency,
                            batch_format="pyarrow")
    import pyarrow.compute as _pc

    ok = hashes.map_batches(
        lambda t: t.filter(_pc.equal(t["hash_status"], "ok"))
        .select(["media_id", "ahash"]),
        batch_format="pyarrow")
    # simhash_dedup's hamming-banded pipeline works on ANY 64-bit
    # perceptual hash column — reuse it wholesale
    return simhash_dedup(ok, col="ahash", key="media_id",
                         max_hamming=max_hamming, precomputed=True)


# ---------------------------------------------------------------------------
# audio fingerprinting + near-duplicate detection
# ---------------------------------------------------------------------------

def audio_fingerprint(samples: np.ndarray, bits: int = 64) -> int:
    """64-bit audio fingerprint: the clip is split into ``bits+1``
    equal frames; bit k = energy(frame k+1) > energy(frame k)
    (sign-of-energy-delta — the classic robust-hash recipe: invariant
    to volume scaling and resampling, sensitive to content order).
    Exact integer energy (int64 sum of squares), pure numpy."""
    n = len(samples)
    if n < bits + 1:
        samples = np.pad(np.asarray(samples, np.int64), (0, bits + 1 - n))
        n = len(samples)
    s = np.asarray(samples, np.int64)
    bounds = (np.arange(bits + 2) * n) // (bits + 1)
    cs = np.r_[np.int64(0), np.cumsum(s * s)]
    energy = cs[bounds[1:]] - cs[bounds[:-1]]
    b = (energy[1:] > energy[:-1]).astype(np.uint8)
    return int(np.packbits(b).view(">u8")[0])


class AudioHashStage:
    """Actor stage: WAV decode → 64-bit energy-delta fingerprint.
    Non-audio / corrupt payloads get ``hash_status='unsupported_codec'``
    and hash 0 (accounted, never dropped)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        hashes, status = [], []
        for kind, p in zip(kinds, payloads):
            try:
                if kind != "audio" or not p:
                    raise ValueError
                samples, _ = decode_wav(p)
                h = audio_fingerprint(samples)
                hashes.append(h - (1 << 64) if h >= (1 << 63) else h)
                status.append("ok")
            except Exception:
                hashes.append(0)
                status.append("unsupported_codec")
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "afp": pa.array(hashes, pa.int64()),
            "hash_status": pa.array(status, pa.string())})


def audio_near_dups(ds, max_hamming: int = 6,
                    batch_size: int = 16, concurrency=(1, 4)):
    """→ Dataset(media_id, cluster_id): audio near-dup clusters — the
    WAV complement of `image_near_dups`, same shared pipeline: actor
    fingerprint stage → simhash banding / capped pairs / hamming
    verify / CC with ``precomputed=True``."""
    import pyarrow.compute as _pc

    from .dedup import simhash_dedup

    hashes = ds.map_batches(AudioHashStage, batch_size=batch_size,
                            concurrency=concurrency,
                            batch_format="pyarrow")
    ok = hashes.map_batches(
        lambda t: t.filter(_pc.equal(t["hash_status"], "ok"))
        .select(["media_id", "afp"]),
        batch_format="pyarrow")
    return simhash_dedup(ok, col="afp", key="media_id",
                         max_hamming=max_hamming, precomputed=True)


# ---------------------------------------------------------------------------
# video fingerprinting + near-duplicate detection
# ---------------------------------------------------------------------------

def video_fingerprint(frames: list[bytes], max_frames: int = 16) -> int:
    """64-bit clip fingerprint: stride-sample ≤``max_frames`` frames,
    aHash each (BMP decode), take the bitwise MAJORITY over the frame
    hashes — the temporal-mean perceptual hash (robust to frame-rate
    changes, per-frame noise and spatial rescaling; sensitive to
    content).  Ties (exact half) resolve to 1 — deterministic."""
    if not frames:
        raise ValueError("empty clip")
    stride = max(1, len(frames) // max_frames)
    picked = frames[::stride][:max_frames]
    hs = np.array([average_hash(decode_bmp(f)) for f in picked],
                  np.uint64)
    bits = (hs[:, None] >> np.arange(63, -1, -1, dtype=np.uint64)) \
        & np.uint64(1)
    maj = (bits.sum(axis=0) * 2 >= len(hs)).astype(np.uint8)
    return int(np.packbits(maj).view(">u8")[0])


class VideoHashStage:
    """Actor stage: XRAW decode → majority-of-frame-aHash fingerprint.
    Non-video / corrupt payloads get ``hash_status='unsupported_codec'``
    and hash 0 (accounted, never dropped)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        hashes, status = [], []
        for kind, p in zip(kinds, payloads):
            try:
                if kind != "video" or not p:
                    raise ValueError
                h = video_fingerprint(decode_xraw(p))
                hashes.append(h - (1 << 64) if h >= (1 << 63) else h)
                status.append("ok")
            except Exception:
                hashes.append(0)
                status.append("unsupported_codec")
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "vfp": pa.array(hashes, pa.int64()),
            "hash_status": pa.array(status, pa.string())})


def video_near_dups(ds, max_hamming: int = 6,
                    batch_size: int = 8, concurrency=(1, 4)):
    """→ Dataset(media_id, cluster_id): video near-dup clusters — the
    XRAW complement of `image_near_dups`/`audio_near_dups`, same
    shared precomputed-hash pipeline.  Small batches: video payloads
    are the largest binaries in the corpus."""
    import pyarrow.compute as _pc

    from .dedup import simhash_dedup

    hashes = ds.map_batches(VideoHashStage, batch_size=batch_size,
                            concurrency=concurrency,
                            batch_format="pyarrow")
    ok = hashes.map_batches(
        lambda t: t.filter(_pc.equal(t["hash_status"], "ok"))
        .select(["media_id", "vfp"]),
        batch_format="pyarrow")
    return simhash_dedup(ok, col="vfp", key="media_id",
                         max_hamming=max_hamming, precomputed=True)
