"""Property suite for the wire codec (:mod:`repro.server.protocol`).

The decoder sits directly on untrusted bytes, so its contract is pinned
adversarially with Hypothesis: every frame round-trips through arbitrary
TCP-style re-chunking, and every malformed input — truncation, hostile
length prefixes, unknown types, garbage payloads — maps to a *typed*
:class:`ProtocolError` subclass. No input may hang, crash with an
untyped exception, or desynchronise silently.
"""

from __future__ import annotations

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.server.protocol import (
    MAX_FRAME,
    BadFrame,
    FrameDecoder,
    FrameTooLarge,
    FrameType,
    JsonCodec,
    ProtocolError,
    TruncatedFrame,
    decode_frames,
    encode_frame,
)

# JSON-representable payload dicts (finite floats only: NaN/inf are not
# valid JSON and the codec uses strict JSON on the wire).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)
_payloads = st.dictionaries(st.text(max_size=10), _values, max_size=6)
_ftypes = st.sampled_from(list(FrameType))


def _chunks(data: bytes, cut_points: list[int]) -> list[bytes]:
    """Split ``data`` at the given relative positions (TCP re-chunking)."""
    cuts = sorted({min(c % (len(data) + 1), len(data)) for c in cut_points})
    out, prev = [], 0
    for cut in cuts:
        out.append(data[prev:cut])
        prev = cut
    out.append(data[prev:])
    return out


# ------------------------------------------------------------- round trips
@settings(max_examples=200)
@given(
    frames=st.lists(st.tuples(_ftypes, _payloads), min_size=1, max_size=5),
    cut_points=st.lists(st.integers(min_value=0), max_size=10),
)
def test_roundtrip_survives_arbitrary_chunking(frames, cut_points):
    wire = b"".join(encode_frame(f, p) for f, p in frames)
    decoder = FrameDecoder()
    decoded = []
    for chunk in _chunks(wire, cut_points):
        got = decoder.feed(chunk)
        while got:  # a feed ends at a HELLO or ACK: drain what follows
            decoded.extend(got)
            got = decoder.feed(b"")
    decoder.eof()
    assert decoded == [
        (f, json.loads(json.dumps(p))) for f, p in frames
    ]
    assert decoder.pending_bytes == 0


def test_a_handshake_stop_copies_nothing():
    """A read packed with HELLO frames comes out one frame per feed, each
    parsed in place: the decoder keeps the read itself behind an offset
    instead of copying its rest at every stop, so the work stays linear
    in the read."""
    hello = encode_frame(FrameType.HELLO, {})
    tail = encode_frame(FrameType.STATS, {"n": 1})
    wire = hello * 1000 + tail[:3]
    decoder = FrameDecoder()
    stops = 0
    got = decoder.feed(wire)
    while got:
        assert got == [(FrameType.HELLO, {})]
        stops += 1
        assert decoder._buf is wire
        assert decoder.pending_bytes == len(wire) - stops * len(hello)
        got = decoder.feed(b"")
    assert stops == 1000
    assert decoder.feed(tail[3:]) == [(FrameType.STATS, {"n": 1})]
    assert decoder.pending_bytes == 0


# Any float the encoder may meet, NaN and the infinities included.
_any_values = st.recursive(
    st.one_of(_scalars, st.floats(width=64)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200)
@given(
    ftype=_ftypes,
    payload=st.dictionaries(st.text(max_size=10), _any_values, max_size=6),
)
def test_shared_encoder_writes_the_per_call_dumps_bytes(ftype, payload):
    """The one module-level compact encoder (its C encoder built once)
    frames every payload exactly as ``json.dumps(..., separators=(",",
    ":"))`` did per call."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    expected = struct.pack("!I", 1 + len(body)) + bytes([int(ftype)]) + body
    assert encode_frame(ftype, payload) == expected
    assert JsonCodec().encode(ftype, payload) == expected


def test_fallback_encoder_writes_the_same_bytes(monkeypatch):
    """Where the C accelerator is missing, bodies take
    ``_COMPACT_JSON.encode``: the same frames."""
    payloads = [
        {"id": 7, "model": 'quo"te', "arrival_ms": -0.0, "plan_ms": [5e-324],
         "echo": {"k": [1, None, True]}},
        {"id": 8, "code": "failed", "model": "café", "e2e_ms": math.nan,
         "finish_ms": -math.inf},
    ]
    expected = [encode_frame(FrameType.RESULT, p) for p in payloads]
    monkeypatch.setattr(protocol, "_C_JSON", None)
    assert [encode_frame(FrameType.RESULT, p) for p in payloads] == expected


@given(ftype=_ftypes)
def test_empty_payload_decodes_to_empty_dict(ftype):
    assert list(decode_frames(encode_frame(ftype, None))) == [(ftype, {})]


# ---------------------------------------------------------- malformed input
@settings(max_examples=100)
@given(
    frames=st.lists(st.tuples(_ftypes, _payloads), min_size=1, max_size=3),
    drop=st.integers(min_value=1),
)
def test_truncated_stream_raises_at_eof(frames, drop):
    wire = b"".join(encode_frame(f, p) for f, p in frames)
    cut = len(wire) - 1 - (drop % len(wire))
    decoder = FrameDecoder()
    decoder.feed(wire[:cut])
    if decoder.pending_bytes:
        with pytest.raises(TruncatedFrame):
            decoder.eof()
    else:  # the cut landed exactly on a frame boundary
        decoder.eof()


@given(length=st.integers(min_value=MAX_FRAME + 1, max_value=2**32 - 1))
def test_hostile_length_prefix_refused_before_buffering(length):
    decoder = FrameDecoder()
    with pytest.raises(FrameTooLarge):
        decoder.feed(struct.pack("!I", length))
    # The body never followed; the oversized header alone must trip it.


def test_zero_length_frame_is_bad():
    with pytest.raises(BadFrame):
        FrameDecoder().feed(struct.pack("!I", 0))


@given(type_byte=st.integers(min_value=0, max_value=255))
def test_unknown_type_bytes_are_bad_frames(type_byte):
    known = {int(f) for f in FrameType}
    wire = struct.pack("!I", 1) + bytes([type_byte])
    decoder = FrameDecoder()
    if type_byte in known:
        assert decoder.feed(wire) == [(FrameType(type_byte), {})]
    else:
        with pytest.raises(BadFrame):
            decoder.feed(wire)


@settings(max_examples=200)
@given(garbage=st.binary(min_size=0, max_size=200))
def test_garbage_never_crashes_untyped(garbage):
    """Arbitrary bytes either decode, stay pending, or raise a typed
    ProtocolError — never KeyError/UnicodeDecodeError/struct.error."""
    decoder = FrameDecoder()
    try:
        decoder.feed(garbage)
        decoder.eof()
    except ProtocolError:
        pass


@given(body=st.binary(min_size=1, max_size=50))
def test_non_json_payloads_are_bad_frames(body):
    try:
        payload = json.loads(body.decode("utf-8"))
        is_valid = isinstance(payload, dict)
    except (UnicodeDecodeError, json.JSONDecodeError):
        is_valid = False
    wire = struct.pack("!I", 1 + len(body)) + bytes([int(FrameType.INFER)]) + body
    decoder = FrameDecoder()
    if is_valid:
        decoder.feed(wire)
    else:
        with pytest.raises(BadFrame):
            decoder.feed(wire)


def test_poisoned_decoder_keeps_raising():
    decoder = FrameDecoder()
    with pytest.raises(BadFrame):
        decoder.feed(struct.pack("!I", 1) + b"\xff")
    # A poisoned stream offset is untrustworthy: even a perfectly valid
    # frame must be refused afterwards.
    good = encode_frame(FrameType.INFER, {"id": 1})
    with pytest.raises(ProtocolError):
        decoder.feed(good)


def test_encode_refuses_oversized_frames():
    with pytest.raises(FrameTooLarge):
        encode_frame(FrameType.INFER, {"pad": "x" * MAX_FRAME})


def test_outcome_codes_cover_responder_vocabulary():
    from repro.server.protocol import OUTCOME_CODES

    assert set(OUTCOME_CODES) == {"rejected", "shed", "failed", "timed_out"}
