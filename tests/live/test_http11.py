"""Hand-rolled HTTP/1.1 layer: parse/render round-trips through the
incremental parser, fed bytes the way ``data_received`` is (no sockets)."""

import pytest

from repro.live import http11


def frames(kind, data: bytes, chunk: int = 0) -> list:
    """Every frame in ``data`` followed by EOF, fed ``chunk`` bytes at a
    time (all at once when 0)."""
    parser = http11.Parser(kind)
    step = chunk or max(len(data), 1)
    out = []
    for i in range(0, len(data), step):
        out += parser.feed(data[i:i + step])
    parser.eof()
    return out


def first(kind, data: bytes):
    """The first frame of ``data`` then EOF, as a server or client reads
    one message: ``None`` at a clean EOF, bytes after the frame unread."""
    parser = http11.Parser(kind)
    got = parser.feed(data)
    if got:
        return got[0]
    parser.eof()
    return None


def read_request(data: bytes):
    return first(http11.Request, data)


def read_response(data: bytes):
    response = first(http11.Response, data)
    if response is None:
        raise http11.HTTPError("peer closed before responding")
    return response


def test_request_roundtrip():
    raw = http11.render_request("GET", "/f/42", {"X-Forward-Port": "9000"})
    req = read_request(raw)
    assert req.method == "GET"
    assert req.path == "/f/42"
    assert req.headers["x-forward-port"] == "9000"
    assert req.headers["connection"] == "close"
    assert req.body == b""


def test_request_roundtrip_with_body():
    raw = http11.render_request("POST", "/warm", body=b"[1, 2, 3]")
    req = read_request(raw)
    assert req.method == "POST"
    assert req.body == b"[1, 2, 3]"


def test_response_roundtrip():
    raw = http11.render_response(200, b"hello", {"X-Cache": "HIT"})
    resp = read_response(raw)
    assert resp.status == 200
    assert resp.body == b"hello"
    assert resp.headers["x-cache"] == "HIT"
    assert resp.headers["content-length"] == "5"


def test_response_roundtrip_empty_body():
    raw = http11.render_response(404, b"")
    resp = read_response(raw)
    assert resp.status == 404
    assert resp.body == b""


def test_read_request_none_on_clean_eof():
    assert read_request(b"") is None
    assert frames(http11.Request, b"") == []


def test_read_request_rejects_truncated_head():
    with pytest.raises(http11.HTTPError):
        read_request(b"GET /f/1 HTTP/1.1\r\n")


def test_read_request_rejects_malformed_request_line():
    with pytest.raises(http11.HTTPError):
        read_request(b"GET /f/1\r\n\r\n")


def test_read_request_rejects_non_http():
    with pytest.raises(http11.HTTPError):
        read_request(b"GET /f/1 SPDY/3\r\n\r\n")


def test_read_response_rejects_garbage_status():
    with pytest.raises(http11.HTTPError):
        read_response(b"HTTP/1.1 abc Nope\r\n\r\n")


def test_malformed_header_line_rejected():
    with pytest.raises(http11.HTTPError):
        read_request(b"GET / HTTP/1.1\r\nbad header\r\n\r\n")


def test_response_body_read_exactly_content_length():
    # Extra bytes after the body must not leak into the parse.
    raw = http11.render_response(200, b"abc") + b"TRAILING"
    resp = read_response(raw)
    assert resp.body == b"abc"


def test_unknown_status_gets_generic_reason():
    raw = http11.render_response(599, b"")
    assert raw.startswith(b"HTTP/1.1 599 Unknown\r\n")


@pytest.mark.parametrize("length", ["abc", "x", "-5", "+5", "5.0", ""])
@pytest.mark.parametrize("parser, head", [
    (read_request, b"GET /f/1 HTTP/1.1\r\n"),
    (read_response, b"HTTP/1.1 200 OK\r\n"),
])
def test_malformed_content_length_is_an_http_error(parser, head, length):
    raw = head + b"Content-Length: " + length.encode() + b"\r\n\r\nbody"
    with pytest.raises(http11.HTTPError):
        parser(raw)


def test_truncated_body_is_an_http_error():
    raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"
    with pytest.raises(http11.HTTPError):
        read_response(raw)


def test_connection_header_follows_keep_alive():
    request = read_request(http11.render_request("GET", "/f/1", keep_alive=True))
    assert request.headers["connection"] == "keep-alive"
    assert request.keep_alive
    response = read_response(http11.render_response(200, b"x"))
    assert response.headers["connection"] == "close"
    assert not response.keep_alive


def test_two_keep_alive_requests_read_back_to_back_on_one_stream():
    first_raw = http11.render_request(
        "POST", "/warm", body=b"[1, 2]", keep_alive=True
    )
    second_raw = http11.render_request(
        "GET", "/f/7", {"X-Forward-Port": "9000"}, keep_alive=True
    )
    one, two = frames(http11.Request, first_raw + second_raw)
    assert (one.method, one.path, one.body) == ("POST", "/warm", b"[1, 2]")
    assert (two.method, two.path, two.body) == ("GET", "/f/7", b"")
    assert two.headers["x-forward-port"] == "9000"
    assert one.keep_alive and two.keep_alive


def test_encode_forwards_a_parsed_frame_unchanged():
    raw = http11.render_request(
        "POST", "/warm", {"X-Forward-Port": "9"}, b"[3]", keep_alive=True
    )
    request = read_request(raw)
    assert read_request(request.encode()) == request
    raw = http11.render_response(404, b"gone", {"X-Node": "2"}, keep_alive=True)
    response = read_response(raw)
    assert read_response(response.encode()) == response


# -- incremental framing -------------------------------------------------------


def test_input_fed_one_byte_at_a_time_parses_the_same():
    requests = (
        http11.render_request("POST", "/warm", body=b"[1, 2]", keep_alive=True)
        + http11.render_request("GET", "/f/7", keep_alive=True)
    )
    assert frames(http11.Request, requests, chunk=1) == frames(
        http11.Request, requests
    )
    response = http11.render_response(200, b"x" * 300, {"X-Node": "1"})
    assert frames(http11.Response, response, chunk=1) == [
        read_response(response)
    ]


def test_a_frame_is_returned_on_the_byte_that_completes_it():
    raw = http11.render_response(200, b"abc", keep_alive=True)
    parser = http11.Parser(http11.Response)
    for byte in raw[:-1]:
        assert parser.feed(bytes([byte])) == []
    with pytest.raises(http11.HTTPError):
        parser.eof()  # EOF here would cut the frame
    (response,) = parser.feed(raw[-1:])
    assert response.body == b"abc"
    parser.eof()


def test_two_keep_alive_frames_in_one_chunk():
    raw = (
        http11.render_response(200, b"one", keep_alive=True)
        + http11.render_response(404, b"", keep_alive=True)
    )
    parser = http11.Parser(http11.Response)
    one, two = parser.feed(raw)
    assert (one.status, one.body, two.status, two.body) == (200, b"one", 404, b"")
    parser.eof()


def test_a_chunk_may_end_inside_the_next_frame():
    one = http11.render_request("GET", "/f/1", keep_alive=True)
    two = http11.render_request("POST", "/warm", body=b"[9]", keep_alive=True)
    parser = http11.Parser(http11.Request)
    cut = len(one) + len(two) - 2
    (first_request,) = parser.feed((one + two)[:cut])
    assert first_request.path == "/f/1"
    (second_request,) = parser.feed((one + two)[cut:])
    assert second_request.body == b"[9]"


def test_unterminated_head_past_the_limit_is_rejected_at_once():
    parser = http11.Parser(http11.Request)
    parser.feed(b"GET /f/1 HTTP/1.1\r\nX-Pad: ")
    pad = http11.MAX_HEAD_BYTES - len(b"GET /f/1 HTTP/1.1\r\nX-Pad: ")
    assert parser.feed(b"a" * pad) == []  # exactly at the limit: still waiting
    with pytest.raises(http11.HTTPError, match="head too large"):
        parser.feed(b"a")


def test_terminated_head_over_the_limit_is_rejected():
    head = b"GET /f/1 HTTP/1.1\r\nX-Pad: " + b"a" * http11.MAX_HEAD_BYTES
    with pytest.raises(http11.HTTPError, match="head too large"):
        http11.Parser(http11.Request).feed(head + b"\r\n\r\n")


def test_clean_eof_between_frames_is_not_an_error():
    parser = http11.Parser(http11.Request)
    parser.eof()  # before any byte: no request, not an error
    (request,) = parser.feed(http11.render_request("GET", "/f/1", keep_alive=True))
    parser.eof()  # right after a complete frame
    assert request.path == "/f/1"
