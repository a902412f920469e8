"""Unit tests for the length-prefixed JSON frame protocol."""

from __future__ import annotations

import asyncio
import socket
import struct

import pytest

from repro.serve.protocol import (
    MAX_FRAME,
    FrameError,
    FrameTooLarge,
    Listener,
    decode_payload,
    encode_frame,
    error_response,
)


class TestFrames:
    def test_round_trip(self):
        frame = encode_frame({"cmd": "stats", "id": 1})
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == {"cmd": "stats", "id": 1}

    def test_encode_rejects_oversized(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"blob": "x" * MAX_FRAME})

    def test_decode_rejects_bad_json(self):
        with pytest.raises(FrameError, match="undecodable"):
            decode_payload(b"{not json")

    def test_decode_rejects_bad_utf8(self):
        with pytest.raises(FrameError, match="undecodable"):
            decode_payload(b"\xff\xfe\x00")

    def test_decode_rejects_non_object(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_payload(b"[1,2,3]")

    def test_error_response_shape(self):
        response = error_response("overloaded", "queue full", 7, queue_depth=3)
        assert response == {
            "id": 7,
            "ok": False,
            "error": "overloaded",
            "message": "queue full",
            "queue_depth": 3,
        }


class TestListenerClose:
    def test_close_serves_out_an_accept_already_taken(self):
        """A connection accepted in the loop turn before ``close`` still
        gets its transport and handler, and the handler is closed before
        ``close`` returns; closing the ``Server`` first made the
        transport's creation fail (logged under asyncio debug mode)."""

        async def scenario() -> tuple[list[str], list[dict]]:
            loop = asyncio.get_running_loop()
            errors: list[dict] = []
            loop.set_exception_handler(lambda _loop, context: errors.append(context))
            handled: list[str] = []

            async def handler(reader, writer) -> None:
                handled.append("start")
                await reader.read()  # until close() closes the connection
                handled.append("end")

            listener = Listener(handler)
            await listener.start("127.0.0.1", 0)
            client = socket.create_connection(listener.address)
            try:
                # The first turn's select sees the connection, and the
                # accept runs after this coroutine's step; the second
                # turn runs close() before that accept's transport exists.
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                await listener.close()
                return handled, errors
            finally:
                client.close()

        handled, errors = asyncio.run(scenario(), debug=True)
        assert handled == ["start", "end"]
        assert errors == []
