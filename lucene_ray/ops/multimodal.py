"""Multimodal-column plumbing: opaque binary payloads + typed metadata.

Real image/audio codecs are not available in this container, so the decode
kernel is a clearly-marked deterministic STUB (``FakeImageDecoder``), but
everything around it is the real Ray-side design:

- payloads are an opaque ``binary`` Arrow column (zero-copy through the
  object store; never converted to Python objects in bulk),
- decode / feature-extract runs as a STATEFUL ACTOR-POOL ``map_batches``
  stage (``concurrency=N``) — the decoder "model" is constructed once per
  actor in ``__init__``, exactly how a torchvision/PIL/ffmpeg stage would
  hold its codec state,
- batch sizes stay small because each payload may be megabytes (callers
  pass ``batch_size``; the default 64 assumes <= ~4 MB payloads).

The fake decode derives (width, height, channels, feature hash) from the
md5 of the payload bytes so results are deterministic and SQL-checkable
(DuckDB md5_number_lower/upper over the same bytes).  Swapping in a real
decoder only replaces ``FakeImageDecoder.decode``.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .util import md5_u64, md5_u64_hi


def payload_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """One batch of ``attach_payload``."""
    return batch.append_column("payload", pc.cast(batch.column(text_col), pa.large_binary()))


def attach_payload(ds, text_col: str = "text"):
    """Materialize the opaque binary column (here: utf-8 bytes of ``text``;
    in production this is the raw image/audio bytes read from storage)."""
    return ds.map_batches(payload_batch, batch_format="pyarrow", fn_kwargs={"text_col": text_col})


# --- REAL header codec ------------------------------------------------------
#
# The container has no PIL/ffmpeg, but BMP and PNG headers are simple enough
# to encode/parse with struct + zlib (both stdlib).  ``attach_image_payload``
# synthesizes a REAL, spec-conformant BMP or PNG header (magic, dimensions,
# bit depth, CRC for PNG) followed by the document bytes as a truncated
# pixel stream; ``parse_image_header`` then recovers (width, height,
# channels, pixel bytes) from the ACTUAL encoded binary — a genuinely real
# decode kernel, exercised over a real binary column.  Dimensions derive
# deterministically from the md5 of the content so the DuckDB oracle can
# verify the full encode->parse round trip.

PNG_SIG = b"\x89PNG\r\n\x1a\n"


def encode_bmp(content: bytes) -> bytes:
    """Minimal spec-valid BMP: BITMAPFILEHEADER (14B) + BITMAPINFOHEADER
    (40B, 24bpp) + ``content`` as a truncated pixel stream."""
    w = 128 + md5_u64(content) % 896
    h = 128 + md5_u64_hi(content) % 896
    file_header = b"BM" + struct.pack("<IHHI", 54 + len(content), 0, 0, 54)
    info = struct.pack(
        "<IiiHHIIiiII", 40, int(w), int(h), 1, 24, 0, len(content), 2835, 2835, 0, 0
    )
    return file_header + info + content


def encode_png(content: bytes) -> bytes:
    """Minimal spec-valid PNG prefix: signature + IHDR chunk (with real
    CRC32), ``content`` as a truncated stream where IDAT would start."""
    w = 128 + md5_u64(content) % 896
    h = 128 + md5_u64_hi(content) % 896
    ihdr = struct.pack(">IIBBBBB", int(w), int(h), 8, 2, 0, 0, 0)
    crc = zlib.crc32(b"IHDR" + ihdr) & 0xFFFFFFFF
    return PNG_SIG + struct.pack(">I", 13) + b"IHDR" + ihdr + struct.pack(">I", crc) + content


_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def parse_image_header(payload: bytes) -> tuple[int, int, int, bytes]:
    """REAL decode: (width, height, channels, pixel_bytes) parsed from the
    binary header (BMP little-endian fields / PNG big-endian IHDR + CRC
    check).  Raises ValueError on unknown magic or corrupt header."""
    if payload[:2] == b"BM":
        (offset,) = struct.unpack_from("<I", payload, 10)
        w, h = struct.unpack_from("<ii", payload, 18)
        (bpp,) = struct.unpack_from("<H", payload, 28)
        return int(w), int(abs(h)), bpp // 8, payload[offset:]
    if payload[:8] == PNG_SIG:
        (ln,) = struct.unpack_from(">I", payload, 8)
        if payload[12:16] != b"IHDR" or ln != 13:
            raise ValueError("corrupt PNG IHDR")
        (crc,) = struct.unpack_from(">I", payload, 29)
        if crc != (zlib.crc32(payload[12:29]) & 0xFFFFFFFF):
            raise ValueError("PNG IHDR CRC mismatch")
        w, h = struct.unpack_from(">II", payload, 16)
        colortype = payload[25]
        return int(w), int(h), _PNG_CHANNELS[colortype], payload[33:]
    raise ValueError(f"unknown image magic {payload[:8]!r}")


def image_payload_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """One batch of ``attach_image_payload``."""
    from .util import strip_schema_metadata

    batch = strip_schema_metadata(batch)
    texts = batch.column(text_col).to_pylist()
    ids = batch.column("doc_id").to_pylist()
    payloads = [
        encode_bmp(t.encode()) if d % 2 == 0 else encode_png(t.encode())
        for d, t in zip(ids, texts)
    ]
    return batch.append_column("payload", pa.array(payloads, pa.large_binary()))


def attach_image_payload(ds, text_col: str = "text"):
    """Materialize a REAL encoded binary image column: even doc_ids get a
    BMP, odd doc_ids a PNG (proves multi-format dispatch in the decoder).
    In production this column is the raw bytes read from blob storage."""
    return ds.map_batches(
        image_payload_batch, batch_format="pyarrow", fn_kwargs={"text_col": text_col}
    )


class ImageStatsDecoder:
    """REAL header-decode + derived resize in ONE actor-pool stage:
    (doc_id, format, n_bytes, width, height, channels, feat, rs_width,
    rs_height, resized_fp).  Dimensions come from parsing the actual
    BMP/PNG binary header; the feature / resized fingerprints hash the
    decoded pixel-stream bytes (stub for the conv-net feature a real
    pipeline would compute).  Resize is aspect-preserving short-side=target
    like torchvision.transforms.Resize."""

    def __init__(self, target: int = 224):
        self.target = target  # actor-pool init, once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        fmts, ws, hs, cs, feats, rws, rhs, rfps = [], [], [], [], [], [], [], []
        for payload in batch.column("payload").to_pylist():
            w, h, c, pixels = parse_image_header(payload)
            fmts.append("bmp" if payload[:2] == b"BM" else "png")
            ws.append(w)
            hs.append(h)
            cs.append(c)
            feats.append(md5_u64(pixels + b"|feat"))
            if w <= h:
                rw, rh = self.target, (h * self.target) // w
            else:
                rw, rh = (w * self.target) // h, self.target
            rws.append(int(rw))
            rhs.append(int(rh))
            rfps.append(md5_u64(pixels + f"|resize{self.target}".encode()))
        n_bytes = pc.cast(pc.binary_length(batch.column("payload")), pa.int64())
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "format": pa.array(fmts, pa.string()),
                "n_bytes": n_bytes,
                "width": pa.array(ws, pa.int64()),
                "height": pa.array(hs, pa.int64()),
                "channels": pa.array(cs, pa.int64()),
                "feat": pa.array(np.array(feats, dtype=np.uint64), pa.uint64()),
                "rs_width": pa.array(rws, pa.int64()),
                "rs_height": pa.array(rhs, pa.int64()),
                "resized_fp": pa.array(np.array(rfps, dtype=np.uint64), pa.uint64()),
            }
        )


def image_stats_batch(batch: pa.Table, target: int = 224) -> pa.Table:
    """``image_stats`` of one batch of documents."""
    return ImageStatsDecoder(target)(image_payload_batch(batch))


def image_stats(ds, target: int = 224, concurrency=(1, 4), batch_size: int = 64):
    """Real-binary image column -> header decode + resize stats in one
    actor-pool pass (replaces the separate decode_stats/resize_stats
    entries; those stages remain for pipeline composition)."""
    return attach_image_payload(ds).map_batches(
        ImageStatsDecoder,
        fn_constructor_kwargs={"target": target},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


class FakeImageDecoder:
    """STUB decoder (no image libs in this container).

    A real implementation would do ``PIL.Image.open(io.BytesIO(payload))``
    here and raise ``NotImplementedError`` paths would disappear; the
    deterministic fake keeps the full pipeline testable: dimensions and a
    64-bit feature fingerprint derive from the payload's md5.
    """

    def __init__(self, target_size: int = 224):
        # actor-pool init: in production this loads the codec / model once
        self.target_size = target_size

    def decode(self, payload: bytes) -> tuple[int, int, int, int]:
        w = 128 + md5_u64(payload) % 896
        h = 128 + md5_u64_hi(payload) % 896
        return int(w), int(h), 3, md5_u64(payload + b"|feat")

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, chans, feats = [], [], [], []
        for payload in batch.column("payload").to_pylist():
            w, h, c, f = self.decode(payload or b"")
            widths.append(w)
            heights.append(h)
            chans.append(c)
            feats.append(f)
        n_bytes = pc.binary_length(batch.column("payload"))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_bytes": pc.cast(n_bytes, pa.int64()),
                "width": pa.array(widths, pa.int64()),
                "height": pa.array(heights, pa.int64()),
                "channels": pa.array(chans, pa.int64()),
                "feat": pa.array(np.array(feats, dtype=np.uint64), pa.uint64()),
            }
        )


def decode_stats(ds, concurrency: int | tuple[int, int] = (1, 4), batch_size: int = 64):
    """payload -> (doc_id, n_bytes, width, height, channels, feat) via the
    actor-pool decode stage."""
    with_payload = attach_payload(ds)
    return with_payload.map_batches(
        FakeImageDecoder,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


class FakeResizer:
    """STUB resize stage (actor pool): a real one holds a torchvision /
    PIL transform built once in __init__ and emits resized bytes; the fake
    derives the output payload + dims deterministically so the plumbing
    (schema, batch size, actor signature, output layout) is testable.

    Aspect-preserving contract: the SHORT side becomes ``target``, the
    long side scales by the same ratio (floor), like
    torchvision.transforms.Resize(target).
    """

    def __init__(self, target: int = 224):
        self.target = target
        self.decoder = FakeImageDecoder(target)  # per-actor, once

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_w, out_h, out_fp = [], [], []
        for payload in batch.column("payload").to_pylist():
            w, h, _c, _f = self.decoder.decode(payload or b"")
            if w <= h:
                nw, nh = self.target, (h * self.target) // w
            else:
                nw, nh = (w * self.target) // h, self.target
            out_w.append(int(nw))
            out_h.append(int(nh))
            out_fp.append(md5_u64((payload or b"") + f"|resize{self.target}".encode()))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "width": pa.array(out_w, pa.int64()),
                "height": pa.array(out_h, pa.int64()),
                "resized_fp": pa.array(np.array(out_fp, dtype=np.uint64), pa.uint64()),
            }
        )


def resize_stats(ds, target: int = 224, concurrency=(1, 4), batch_size: int = 64):
    """payload -> aspect-preserving resized dims + output fingerprint."""
    return attach_payload(ds).map_batches(
        FakeResizer,
        fn_constructor_kwargs={"target": target},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


class FakeFrameSampler:
    """STUB video frame-sampling stage: a real one holds an ffmpeg/decord
    handle per actor and emits one row per sampled frame; the fake derives
    a deterministic frame count (1..16 from the payload hash) and
    per-frame fingerprints.  Output is EXPLODED (flat_map shape): one row
    per (doc, frame) — exactly how frames feed a downstream embedding
    stage."""

    def __init__(self, fps_divisor: int = 4):
        self.fps_divisor = fps_divisor

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frames, fps_ = [], [], []
        for doc_id, payload in zip(
            batch.column("doc_id").to_pylist(), batch.column("payload").to_pylist()
        ):
            p = payload or b""
            n = 1 + (md5_u64(p) % 16) // self.fps_divisor
            for k in range(int(n)):
                ids.append(doc_id)
                frames.append(k)
                fps_.append(md5_u64(p + f"|frame{k}".encode()))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "frame": pa.array(frames, pa.int64()),
                "frame_fp": pa.array(np.array(fps_, dtype=np.uint64), pa.uint64()),
            }
        )


def frame_samples_batch(batch: pa.Table) -> pa.Table:
    """``frame_samples`` of one batch of documents."""
    return FakeFrameSampler()(payload_batch(batch))


def frame_samples(ds, concurrency=(1, 4), batch_size: int = 32):
    """payload -> one row per sampled frame (doc_id, frame, frame_fp)."""
    return attach_payload(ds).map_batches(
        FakeFrameSampler,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


# --- audio: REAL RIFF/WAVE PCM encode + header parse (no codec libs
# needed — PCM WAV is a plain struct layout) --------------------------------

def encode_wav(content: bytes, sample_rate: int = 16000, channels: int = 1) -> bytes:
    """A REAL RIFF/WAVE PCM16 file whose samples are the content bytes
    repeated into int16 (deterministic stand-in for a recording): 44-byte
    canonical header + data chunk.  Parsers (including ours below) read
    it as genuine WAV."""
    import struct

    n_samples = max(1, len(content))
    data = (content * 2)[: n_samples * 2]  # 2 bytes per int16 sample
    byte_rate = sample_rate * channels * 2
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, channels, sample_rate, byte_rate, channels * 2, 16
    )
    header += b"data" + struct.pack("<I", len(data))
    return header + data


def parse_wav_header(payload: bytes) -> tuple[int, int, int, bytes]:
    """(sample_rate, channels, n_samples, pcm_bytes) from a canonical
    PCM16 WAV; raises ValueError on malformed input."""
    import struct

    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE" or payload[12:16] != b"fmt ":
        raise ValueError("not a canonical PCM WAV")
    fmt, channels, rate = struct.unpack("<HHI", payload[20:28])
    bits = struct.unpack("<H", payload[34:36])[0]
    if fmt != 1 or bits != 16 or payload[36:40] != b"data":
        raise ValueError("unsupported WAV layout")
    n_data = struct.unpack("<I", payload[40:44])[0]
    pcm = payload[44 : 44 + n_data]
    return rate, channels, n_data // (2 * channels), pcm


class AudioStatsDecoder:
    """Actor-pool stage: parse the REAL WAV header, emit
    (doc_id, sample_rate, channels, n_samples, duration_ms, clip_fp) —
    the audio analogue of ImageStatsDecoder (stateless setup here, but
    the shape is the model-loading actor-pool contract)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        ids, rates, chans, nsamp, durs, fps = [], [], [], [], [], []
        for row in batch.to_pylist():
            rate, ch, n, pcm = parse_wav_header(row["payload"])
            ids.append(row["doc_id"])
            rates.append(rate)
            chans.append(ch)
            nsamp.append(n)
            durs.append(n * 1000 // rate)
            fps.append(md5_u64(pcm + b"|clip"))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "sample_rate": pa.array(rates, pa.int64()),
                "channels": pa.array(chans, pa.int64()),
                "n_samples": pa.array(nsamp, pa.int64()),
                "duration_ms": pa.array(durs, pa.int64()),
                "clip_fp": pa.array(np.array(fps, dtype=np.uint64), pa.uint64()),
            }
        )


def attach_audio_payload(ds, text_col: str = "text"):
    """binary WAV payload column derived deterministically from the text."""

    def _encode(batch: pa.Table) -> pa.Table:
        payloads = [
            encode_wav((t or "").encode("utf-8"))
            for t in batch.column(text_col).to_pylist()
        ]
        return batch.append_column("payload", pa.array(payloads, pa.binary()))

    return ds.map_batches(_encode, batch_format="pyarrow")


def audio_stats(ds, concurrency=(1, 4), batch_size: int = 64):
    """Real-binary WAV column -> header parse + clip fingerprint in one
    actor-pool pass (the audio analogue of image_stats)."""
    return attach_audio_payload(ds).map_batches(
        AudioStatsDecoder,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


# --- REAL pixel-level BMP decode / nearest-neighbor resize / re-encode ----

def decode_bmp_pixels(payload: bytes) -> "np.ndarray":
    """(h, w, 3) uint8 pixel grid from a 24bpp BMP payload.  Rows honor
    the 4-byte BMP stride and bottom-up order; a truncated pixel stream
    (the synthetic corpus payloads) zero-pads deterministically."""
    w, h, ch, px = parse_image_header(payload)
    if payload[:2] != b"BM" or ch != 3:
        raise ValueError("decode_bmp_pixels needs a 24bpp BMP")
    stride = (w * 3 + 3) // 4 * 4
    buf = np.zeros(stride * h, np.uint8)
    raw = np.frombuffer(px, np.uint8)[: stride * h]
    buf[: len(raw)] = raw
    rows = buf.reshape(h, stride)[:, : w * 3].reshape(h, w, 3)
    return rows[::-1].copy()  # BMP stores bottom-up


def encode_bmp_pixels(img: "np.ndarray") -> bytes:
    """A COMPLETE spec-valid 24bpp BMP (proper stride, bottom-up) from an
    (h, w, 3) uint8 array — unlike encode_bmp's truncated fixture stream,
    this output round-trips through decode_bmp_pixels exactly."""
    h, w, ch = img.shape
    assert ch == 3
    stride = (w * 3 + 3) // 4 * 4
    rows = np.zeros((h, stride), np.uint8)
    rows[:, : w * 3] = img[::-1].reshape(h, w * 3)
    px = rows.tobytes()
    file_header = b"BM" + struct.pack("<IHHI", 54 + len(px), 0, 0, 54)
    info = struct.pack(
        "<IiiHHIIiiII", 40, int(w), int(h), 1, 24, 0, len(px), 2835, 2835, 0, 0
    )
    return file_header + info + px


def resize_nearest(img: "np.ndarray", tw: int, th: int) -> "np.ndarray":
    """Nearest-neighbor resize (the torchvision/PIL NEAREST semantics:
    source index = floor((i + 0.5) * src / dst)) — pure numpy gathers."""
    h, w, _ = img.shape
    yi = np.minimum(((np.arange(th) + 0.5) * h / th).astype(np.int64), h - 1)
    xi = np.minimum(((np.arange(tw) + 0.5) * w / tw).astype(np.int64), w - 1)
    return img[yi][:, xi]


class ImageResizer:
    """REAL resize actor-pool stage: decode pixels -> nearest-neighbor
    resize -> re-encode a complete BMP; emits (doc_id, rs_width,
    rs_height, out_bytes sha) — state (target size) built once per actor
    like every multimodal stage."""

    def __init__(self, target: int = 64):
        self.target = int(target)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        ids = batch.column("doc_id").to_pylist()
        payloads = batch.column("payload").to_pylist()
        ws, hs, shas = [], [], []
        for p in payloads:
            img = decode_bmp_pixels(p)
            out = resize_nearest(img, self.target, self.target)
            enc = encode_bmp_pixels(out)
            ws.append(out.shape[1])
            hs.append(out.shape[0])
            shas.append(hashlib.sha256(enc).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "rs_width": pa.array(ws, pa.int64()),
                "rs_height": pa.array(hs, pa.int64()),
                "out_sha": pa.array(shas, pa.string()),
            }
        )


def resize_images(ds, target: int = 64, concurrency=(1, 4), batch_size: int = 64):
    """Actor-pool real-resize pass over a (doc_id, payload) dataset."""
    return ds.map_batches(
        ImageResizer,
        fn_constructor_kwargs={"target": target},
        concurrency=concurrency,
        batch_size=batch_size,
        batch_format="pyarrow",
        num_cpus=1,
    )
