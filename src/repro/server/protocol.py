"""Wire protocol for the socket serving front-end (``docs/serving.md``).

Frames are length-prefixed so the stream can be cut at arbitrary byte
boundaries by TCP and reassembled incrementally:

    +----------------+--------+----------------------+
    | length (u32 BE)| type u8| payload              |
    +----------------+--------+----------------------+

``length`` counts the type byte plus the payload (so the smallest legal
frame is ``length == 1``: a type byte with an empty payload). Frames
larger than :data:`MAX_FRAME` are refused on both encode and decode —
the decoder rejects an oversized header *before* buffering the body, so
a hostile length prefix cannot balloon server memory.

Two payload codecs share that frame envelope:

* :class:`JsonCodec` (``"json"``, the default) — every payload is a
  UTF-8 JSON object, exactly the PR-6 protocol. Connections start here.
* :class:`BinaryCodecV2` (``"binary-v2"``) — the hot frame types
  (INFER / INFER_BATCH / RESULT / RESULT_BATCH) carry struct-packed
  bodies with IEEE-754 doubles bit-preserved end-to-end; every other
  frame type keeps its JSON body (they are cold control traffic).

A connection switches codec via the HELLO handshake: the client sends a
JSON ``HELLO {codec}`` frame, the server replies ``ACK {codec, models}``
(the model table binary INFER records index into) and both sides switch
*at that frame boundary* — the ACK itself is still JSON. A repeated
HELLO refreshes the model table (e.g. after registering a new model).
Unknown codec names are refused with a JSON ERROR and the connection
stays on its current codec, which is the fallback rule that keeps every
JSON-era client working unchanged.

Every malformed input maps to a typed :class:`ProtocolError` subclass
(oversized, truncated-at-EOF, unknown type, undecodable payload,
truncated batch records) instead of a hang or an unhandled crash in the
connection loop; the property suites in ``tests/server/test_net_protocol
.py`` pin this over arbitrary payloads, split points, and garbage bytes
for both codecs.
"""

from __future__ import annotations

import enum
import json
import struct
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import ServerError

#: Hard ceiling on ``type byte + payload`` size (1 MiB).
MAX_FRAME = 1 << 20

_HEADER = struct.Struct("!I")
#: The length prefix and the type byte, packed together.
_FRAME_HEAD = struct.Struct("!IB")

#: Codec names for the HELLO handshake.
CODEC_JSON = "json"
CODEC_BINARY = "binary-v2"


class ProtocolError(ServerError):
    """A frame violated the wire format (the connection is poisoned)."""


class FrameTooLarge(ProtocolError):
    """A frame exceeded :data:`MAX_FRAME` (refused before buffering)."""


class TruncatedFrame(ProtocolError):
    """The stream ended mid-frame (only raised by :meth:`FrameDecoder.eof`)."""


class BadFrame(ProtocolError):
    """Unknown frame type, empty frame, or undecodable payload."""


class FrameType(enum.IntEnum):
    """One byte on the wire. Client-originated: REGISTER / INFER /
    INFER_BATCH / STATS / DRAIN / HELLO / HEARTBEAT. Server-originated:
    RESULT / RESULT_BATCH / ERROR / STATS (reply) / ACK / HEARTBEAT
    (echo)."""

    REGISTER = 1
    INFER = 2
    RESULT = 3
    ERROR = 4
    STATS = 5
    DRAIN = 6
    ACK = 7
    HELLO = 8
    INFER_BATCH = 9
    RESULT_BATCH = 10
    #: Liveness probe; the server echoes it verbatim. JSON-bodied under
    #: every codec (cold control traffic), so it needs no codec support.
    HEARTBEAT = 11


#: Error codes carried by ERROR frames' ``code`` field. The first block
#: mirrors the responder's terminal outcomes one-to-one; the rest are
#: connection-level conditions introduced by the wire.
ERR_REJECTED = "rejected"
ERR_SHED = "shed"
ERR_FAILED = "failed"
ERR_TIMED_OUT = "timed_out"
ERR_BACKPRESSURE = "backpressure"
ERR_UNKNOWN_MODEL = "unknown_model"
ERR_OUT_OF_ORDER = "out_of_order"
ERR_BAD_STATE = "bad_state"
ERR_PROTOCOL = "protocol"

#: Responder outcome label -> wire error code (identity by construction).
OUTCOME_CODES = {
    "rejected": ERR_REJECTED,
    "shed": ERR_SHED,
    "failed": ERR_FAILED,
    "timed_out": ERR_TIMED_OUT,
}

#: Result-record outcome tags (binary codec + batch records in both
#: codecs): tag 0 is the happy path, the rest map onto the wire error
#: codes above in declaration order.
TAG_OUTCOMES = (
    "served",
    ERR_REJECTED,
    ERR_SHED,
    ERR_FAILED,
    ERR_TIMED_OUT,
    ERR_BACKPRESSURE,
    ERR_UNKNOWN_MODEL,
    ERR_OUT_OF_ORDER,
    ERR_BAD_STATE,
)
TAG_BY_OUTCOME = {name: tag for tag, name in enumerate(TAG_OUTCOMES)}


def _frame(ftype: int, body: bytes) -> bytes:
    """Wrap a payload body into one length-prefixed frame."""
    length = 1 + len(body)
    if length > MAX_FRAME:
        raise FrameTooLarge(
            f"frame of {length} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return _FRAME_HEAD.pack(length, ftype) + body


#: One compact encoder for every JSON body: ``json.dumps`` with any
#: non-default argument builds a fresh encoder per call. ``encode``
#: keeps no state on the encoder, so threads share it safely.
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))
#: The C encoder that ``_COMPACT_JSON.encode`` builds afresh for every
#: payload, built once with the same settings: the same text without the
#: per-call setup. It skips the circular-reference check (a cyclic
#: payload raises RecursionError instead of ValueError). None where the
#: C accelerator is missing.
_make_c_encoder = getattr(json.encoder, "c_make_encoder", None)
_C_JSON = None if _make_c_encoder is None else _make_c_encoder(
    None, _COMPACT_JSON.default, encode_basestring_ascii,
    _COMPACT_JSON.indent, _COMPACT_JSON.key_separator,
    _COMPACT_JSON.item_separator, _COMPACT_JSON.sort_keys,
    _COMPACT_JSON.skipkeys, _COMPACT_JSON.allow_nan,
)


def _json_body(payload: dict[str, Any] | None) -> bytes:
    if payload is None:
        return b""
    if _C_JSON is None:
        return _COMPACT_JSON.encode(payload).encode("utf-8")
    return "".join(_C_JSON(payload, 0)).encode("utf-8")


def _decode_json_body(body: memoryview) -> dict[str, Any]:
    if not len(body):
        return {}
    try:
        payload = json.loads(bytes(body).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadFrame(f"undecodable frame payload: {exc}") from None
    if not isinstance(payload, dict):
        raise BadFrame(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def encode_frame(ftype: FrameType, payload: dict[str, Any] | None = None) -> bytes:
    """Serialise one JSON-codec frame; raises :class:`FrameTooLarge` past
    the cap. (The module-level function predates the codec objects and
    stays JSON — it is what every control-path call site uses.)"""
    return _frame(int(ftype), _json_body(payload))


class JsonCodec:
    """The default codec: every frame body is a UTF-8 JSON object."""

    name = CODEC_JSON

    def decode_payload(self, ftype: FrameType, body: memoryview) -> Any:
        return _decode_json_body(body)

    def encode(self, ftype: FrameType, payload: dict[str, Any] | None) -> bytes:
        return _frame(int(ftype), _json_body(payload))


#: Binary record layouts (network byte order, no padding).
#: INFER record: correlation id, model-table index, arrival_ms
#: (NaN = "no arrival stamp": the realtime server stamps it on receipt).
INFER_RECORD = struct.Struct("!IHd")
#: RESULT record head: correlation id, outcome tag, model-table index,
#: arrival_ms, finish_ms, e2e_ms, response_ratio, preemptions, retries,
#: plan length; followed by plan-length f64 plan entries. Non-served
#: records carry NaN in the three derived-time fields.
RESULT_HEAD = struct.Struct("!IBHddddIIB")
_BATCH_HEAD = struct.Struct("!I")

_NAN = float("nan")

#: Sentinel model index for results whose task name is missing from the
#: connection's HELLO-time model table (deployed after the handshake);
#: clients render it as an empty model name. Re-HELLO to refresh.
MODEL_IDX_UNKNOWN = 0xFFFF

#: One Struct per plan length (plans are short: one per block count).
_PLAN_STRUCTS: dict[int, struct.Struct] = {}


def _plan_struct(n: int) -> struct.Struct:
    s = _PLAN_STRUCTS.get(n)
    if s is None:
        s = _PLAN_STRUCTS[n] = struct.Struct(f"!{n}d")
    return s


#: In-memory result record, identical in both codecs:
#: ``(cid, tag, model, arrival_ms, finish_ms, e2e_ms, response_ratio,
#:    preemptions, retries, plan_ms | None)`` — ``model`` is a table
#: index in binary records and a name string in JSON batch records.
ResultRecord = tuple


def _pack_results(
    records: Sequence[ResultRecord],
    model_idx: dict[str, int] | None,
    parts: list[bytes],
) -> None:
    """Append each record's packed bytes to ``parts``. Fields after the
    plan are not packed (the server's reply records end with an echo).
    With ``model_idx``, a model that is not an int is a task name mapped
    through it, and a name missing from it packs as
    :data:`MODEL_IDX_UNKNOWN`."""
    append = parts.append
    head = RESULT_HEAD.pack
    for record in records:
        cid, tag, model, arrival, finish, e2e, rr, preempt, retries, plan = (
            record[:10]
        )
        if model_idx is not None and type(model) is not int:
            model = model_idx.get(model, MODEL_IDX_UNKNOWN)
        n = 0 if plan is None else len(plan)
        append(head(cid, tag, model, arrival, finish, e2e, rr, preempt, retries, n))
        if n:
            append(_plan_struct(n).pack(*plan))


class BinaryCodecV2:
    """Struct-packed hot path negotiated by HELLO (``"binary-v2"``).

    INFER / INFER_BATCH / RESULT / RESULT_BATCH bodies are packed records
    (doubles travel as raw IEEE-754 bits — the differential suite asserts
    bit-identity end-to-end); every other frame type keeps its JSON body.
    Decoded payloads are therefore tuples, lists and, for INFER_BATCH,
    an iterator of ``(cid, model_idx, arrival_ms)`` records over the fed
    bytes for the hot types, and dicts for the rest.
    """

    name = CODEC_BINARY

    # ------------------------------------------------------------- decode
    def decode_payload(self, ftype: FrameType, body: memoryview) -> Any:
        if ftype is FrameType.INFER:
            if len(body) != INFER_RECORD.size:
                raise BadFrame(
                    f"binary INFER body must be {INFER_RECORD.size} bytes, "
                    f"got {len(body)}"
                )
            return INFER_RECORD.unpack_from(body)
        if ftype is FrameType.INFER_BATCH:
            return self._decode_infer_batch(body)
        if ftype is FrameType.RESULT:
            record, end = self._decode_result_record(body, 0)
            if end != len(body):
                raise BadFrame(
                    f"binary RESULT body has {len(body) - end} trailing bytes"
                )
            return record
        if ftype is FrameType.RESULT_BATCH:
            return self._decode_result_batch(body)
        return _decode_json_body(body)

    def _decode_infer_batch(
        self, body: memoryview
    ) -> Iterable[tuple[int, int, float]]:
        if len(body) < _BATCH_HEAD.size:
            raise BadFrame("binary INFER_BATCH body missing its count header")
        (count,) = _BATCH_HEAD.unpack_from(body)
        expect = _BATCH_HEAD.size + count * INFER_RECORD.size
        if len(body) != expect:
            raise BadFrame(
                f"truncated INFER_BATCH: {count} records need {expect} bytes, "
                f"got {len(body)}"
            )
        # Unpacked as the intake reads them: each record's tuple is freed
        # before the next is made, so a frame never holds its records. An
        # empty batch is an empty (falsy) list.
        if not count:
            return []
        return INFER_RECORD.iter_unpack(body[_BATCH_HEAD.size:])

    def _decode_result_record(
        self, body: memoryview, off: int
    ) -> tuple[ResultRecord, int]:
        head_size = RESULT_HEAD.size
        if len(body) - off < head_size:
            raise BadFrame("truncated RESULT record head")
        (
            cid,
            tag,
            midx,
            arrival,
            finish,
            e2e,
            rr,
            preemptions,
            retries,
            plan_len,
        ) = RESULT_HEAD.unpack_from(body, off)
        if tag >= len(TAG_OUTCOMES):
            raise BadFrame(f"unknown result outcome tag {tag}")
        off += head_size
        plan: tuple[float, ...] | None = None
        if plan_len:
            ps = _plan_struct(plan_len)
            if len(body) - off < ps.size:
                raise BadFrame("truncated RESULT record plan")
            plan = ps.unpack_from(body, off)
            off += ps.size
        return (
            (cid, tag, midx, arrival, finish, e2e, rr, preemptions, retries, plan),
            off,
        )

    def _decode_result_batch(self, body: memoryview) -> list[ResultRecord]:
        if len(body) < _BATCH_HEAD.size:
            raise BadFrame("binary RESULT_BATCH body missing its count header")
        (count,) = _BATCH_HEAD.unpack_from(body)
        off = _BATCH_HEAD.size
        records: list[ResultRecord] = []
        for _ in range(count):
            record, off = self._decode_result_record(body, off)
            records.append(record)
        if off != len(body):
            raise BadFrame(
                f"binary RESULT_BATCH has {len(body) - off} trailing bytes"
            )
        return records

    # ------------------------------------------------------------- encode
    def encode(self, ftype: FrameType, payload: dict[str, Any] | None) -> bytes:
        """JSON-bodied (cold) frame under the binary codec."""
        if ftype in (
            FrameType.INFER,
            FrameType.INFER_BATCH,
            FrameType.RESULT,
            FrameType.RESULT_BATCH,
        ):
            raise ServerError(
                f"{ftype.name} frames need the packed encoders under binary-v2"
            )
        return _frame(int(ftype), _json_body(payload))

    @staticmethod
    def encode_infer(cid: int, model_idx: int, arrival_ms: float | None) -> bytes:
        return _frame(
            int(FrameType.INFER),
            INFER_RECORD.pack(
                cid, model_idx, _NAN if arrival_ms is None else arrival_ms
            ),
        )

    @staticmethod
    def encode_infer_batch(
        items: Sequence[tuple[int, int, float]],
    ) -> bytes:
        """``items`` is ``(cid, model_idx, arrival_ms)`` per request."""
        pack = INFER_RECORD.pack
        return BinaryCodecV2.frame_infer_records(
            [pack(cid, midx, arrival) for cid, midx, arrival in items]
        )

    @staticmethod
    def frame_infer_records(packed: list[bytes]) -> bytes:
        """One INFER_BATCH frame around records already packed with
        :data:`INFER_RECORD` (a sender that packs as it goes builds no
        record tuples)."""
        body = _BATCH_HEAD.pack(len(packed)) + b"".join(packed)
        return _frame(int(FrameType.INFER_BATCH), body)

    @staticmethod
    def encode_result(record: ResultRecord) -> bytes:
        parts: list[bytes] = []
        _pack_results((record,), None, parts)
        return _frame(int(FrameType.RESULT), b"".join(parts))

    @classmethod
    def encode_result_batch(
        cls,
        records: Sequence[ResultRecord],
        model_idx: dict[str, int] | None = None,
    ) -> bytes:
        """One RESULT_BATCH frame; ``model_idx`` maps model names to table
        indices (see :func:`_pack_results`)."""
        parts = [_BATCH_HEAD.pack(len(records))]
        _pack_results(records, model_idx, parts)
        return _frame(int(FrameType.RESULT_BATCH), b"".join(parts))


JSON_CODEC = JsonCodec()
BINARY_CODEC = BinaryCodecV2()

_HELLO = FrameType.HELLO
_ACK = FrameType.ACK

#: HELLO-negotiable codecs by wire name.
CODECS = {CODEC_JSON: JSON_CODEC, CODEC_BINARY: BINARY_CODEC}


class FrameDecoder:
    """Incremental frame reassembler for one connection.

    Feed arbitrary byte chunks; complete frames come out in order. The
    decoder parses over a :class:`memoryview` of the fed chunk, so a
    ``bytes`` chunk carrying whole frames is never copied — the
    undecoded rest of a chunk stays in it, behind a start offset, and
    only a trailing partial frame is copied, when the next chunk is
    joined to it. A mutable chunk is copied once, because a binary
    INFER_BATCH payload reads it after the call (the JSON codec pays one
    payload copy per frame, because ``json.loads`` needs ``bytes``; the
    binary codec unpacks records straight off the view).

    The decoder is *stateful*: after any :class:`ProtocolError` the
    stream offset is untrustworthy, so the connection must be dropped
    (feeding more data keeps raising). :meth:`set_codec` switches the
    payload codec at a frame boundary (the HELLO handshake's contract).

    A HELLO or ACK frame may be such a boundary, so :meth:`feed` stops
    decoding right after one and keeps the bytes behind it buffered: the
    caller handles the frames it got (switching codec if the handshake
    says so), then calls ``feed(b"")`` again until no frame comes back.
    """

    def __init__(self, codec: JsonCodec | BinaryCodecV2 = JSON_CODEC) -> None:
        #: The undecoded bytes are ``_buf[_start:]``.
        self._buf = b""
        self._start = 0
        self._codec = codec
        self._poisoned: ProtocolError | None = None

    @property
    def codec(self) -> JsonCodec | BinaryCodecV2:
        return self._codec

    def set_codec(self, codec: JsonCodec | BinaryCodecV2) -> None:
        """Switch payload codec for every *subsequent* frame."""
        self._codec = codec

    def feed(self, data: bytes | bytearray) -> list[tuple[FrameType, Any]]:
        """Buffer ``data`` and return the frames it completed, up to and
        including the first HELLO or ACK (see the class docstring)."""
        if self._poisoned is not None:
            raise self._poisoned
        off = self._start
        if not data:
            data = self._buf
        elif self._buf:
            data = self._buf[off:] + data
            off = 0
        elif type(data) is not bytes:
            data = bytes(data)
        view = memoryview(data)
        total = len(view)
        header_size = _HEADER.size
        out: list[tuple[FrameType, Any]] = []
        try:
            while total - off >= header_size:
                (length,) = _HEADER.unpack_from(view, off)
                if length > MAX_FRAME:
                    raise FrameTooLarge(
                        f"declared frame of {length} bytes exceeds "
                        f"MAX_FRAME={MAX_FRAME}"
                    )
                if length < 1:
                    raise BadFrame("frame without a type byte (length 0)")
                end = off + header_size + length
                if end > total:
                    break
                type_byte = view[off + header_size]
                try:
                    ftype = FrameType(type_byte)
                except ValueError:
                    raise BadFrame(
                        f"unknown frame type {type_byte}"
                    ) from None
                payload = self._codec.decode_payload(
                    ftype, view[off + header_size + 1 : end]
                )
                out.append((ftype, payload))
                off = end
                if ftype is _HELLO or ftype is _ACK:
                    break
        except ProtocolError as exc:
            self._poisoned = exc
            self._buf = b""
            self._start = 0
            raise
        # ``data`` is an immutable bytes object here, kept as it is.
        if off < total:
            self._buf = data
            self._start = off
        else:
            self._buf = b""
            self._start = 0
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buf) - self._start

    def eof(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self.pending_bytes:
            raise TruncatedFrame(
                f"stream ended mid-frame with {self.pending_bytes} bytes buffered"
            )


def decode_frames(
    data: bytes, codec: JsonCodec | BinaryCodecV2 = JSON_CODEC
) -> Iterator[tuple[FrameType, Any]]:
    """Decode a complete byte string; raises on any trailing partial frame."""
    decoder = FrameDecoder(codec)
    frames = decoder.feed(data)
    while frames:
        yield from frames
        frames = decoder.feed(b"")
    decoder.eof()
