"""Hand-rolled HTTP/1.1 layer: parse/render round-trips over in-memory
asyncio streams (no sockets)."""

import asyncio

import pytest

from repro.live import http11


def parse(parser, data: bytes):
    """Run a stream parser against in-memory bytes inside one loop."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await parser(reader)

    return asyncio.run(go())


def test_request_roundtrip():
    raw = http11.render_request("GET", "/f/42", {"X-Forward-Port": "9000"})
    req = parse(http11.read_request, raw)
    assert req.method == "GET"
    assert req.path == "/f/42"
    assert req.headers["x-forward-port"] == "9000"
    assert req.headers["connection"] == "close"
    assert req.body == b""


def test_request_roundtrip_with_body():
    raw = http11.render_request("POST", "/warm", body=b"[1, 2, 3]")
    req = parse(http11.read_request, raw)
    assert req.method == "POST"
    assert req.body == b"[1, 2, 3]"


def test_response_roundtrip():
    raw = http11.render_response(200, b"hello", {"X-Cache": "HIT"})
    resp = parse(http11.read_response, raw)
    assert resp.status == 200
    assert resp.body == b"hello"
    assert resp.headers["x-cache"] == "HIT"
    assert resp.headers["content-length"] == "5"


def test_response_roundtrip_empty_body():
    raw = http11.render_response(404, b"")
    resp = parse(http11.read_response, raw)
    assert resp.status == 404
    assert resp.body == b""


def test_read_request_none_on_clean_eof():
    assert parse(http11.read_request, b"") is None


def test_read_request_rejects_truncated_head():
    with pytest.raises(http11.HTTPError):
        parse(http11.read_request, b"GET /f/1 HTTP/1.1\r\n")


def test_read_request_rejects_malformed_request_line():
    with pytest.raises(http11.HTTPError):
        parse(http11.read_request, b"GET /f/1\r\n\r\n")


def test_read_request_rejects_non_http():
    with pytest.raises(http11.HTTPError):
        parse(http11.read_request, b"GET /f/1 SPDY/3\r\n\r\n")


def test_read_response_rejects_garbage_status():
    with pytest.raises(http11.HTTPError):
        parse(http11.read_response, b"HTTP/1.1 abc Nope\r\n\r\n")


def test_malformed_header_line_rejected():
    with pytest.raises(http11.HTTPError):
        parse(http11.read_request, b"GET / HTTP/1.1\r\nbad header\r\n\r\n")


def test_response_body_read_exactly_content_length():
    # Extra bytes after the body must not leak into the parse.
    raw = http11.render_response(200, b"abc") + b"TRAILING"
    resp = parse(http11.read_response, raw)
    assert resp.body == b"abc"


def test_unknown_status_gets_generic_reason():
    raw = http11.render_response(599, b"")
    assert raw.startswith(b"HTTP/1.1 599 Unknown\r\n")


@pytest.mark.parametrize("length", ["abc", "x", "-5", "+5", "5.0", ""])
@pytest.mark.parametrize("parser, head", [
    (http11.read_request, b"GET /f/1 HTTP/1.1\r\n"),
    (http11.read_response, b"HTTP/1.1 200 OK\r\n"),
])
def test_malformed_content_length_is_an_http_error(parser, head, length):
    raw = head + b"Content-Length: " + length.encode() + b"\r\n\r\nbody"
    with pytest.raises(http11.HTTPError):
        parse(parser, raw)


def test_truncated_body_is_an_http_error():
    raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"
    with pytest.raises(http11.HTTPError):
        parse(http11.read_response, raw)


def test_connection_header_follows_keep_alive():
    request = parse(
        http11.read_request, http11.render_request("GET", "/f/1", keep_alive=True)
    )
    assert request.headers["connection"] == "keep-alive"
    assert request.keep_alive
    response = parse(http11.read_response, http11.render_response(200, b"x"))
    assert response.headers["connection"] == "close"
    assert not response.keep_alive


def test_two_keep_alive_requests_read_back_to_back_on_one_stream():
    first = http11.render_request(
        "POST", "/warm", body=b"[1, 2]", keep_alive=True
    )
    second = http11.render_request(
        "GET", "/f/7", {"X-Forward-Port": "9000"}, keep_alive=True
    )

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(first + second)
        reader.feed_eof()
        return [await http11.read_request(reader) for _ in range(3)]

    one, two, end = asyncio.run(go())
    assert (one.method, one.path, one.body) == ("POST", "/warm", b"[1, 2]")
    assert (two.method, two.path, two.body) == ("GET", "/f/7", b"")
    assert two.headers["x-forward-port"] == "9000"
    assert one.keep_alive and two.keep_alive
    assert end is None  # clean EOF after the last frame


def test_encode_forwards_a_parsed_frame_unchanged():
    raw = http11.render_request(
        "POST", "/warm", {"X-Forward-Port": "9"}, b"[3]", keep_alive=True
    )
    request = parse(http11.read_request, raw)
    assert parse(http11.read_request, request.encode()) == request
    raw = http11.render_response(404, b"gone", {"X-Node": "2"}, keep_alive=True)
    response = parse(http11.read_response, raw)
    assert parse(http11.read_response, response.encode()) == response
