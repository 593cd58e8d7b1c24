"""The chat client's reply reader, ``transport._read_head`` and ``_read_body``,
against ``http.client.HTTPResponse`` on seeded generated replies, and the
classes where the two differ on purpose."""

import http.client
import io
import random
import socket
import time

import pytest

from llmize import transport

# Where llmize keeps a stricter reading than http.client, with its RFC 9112
# reason. A reply of one of these classes must fail llmize's reader, and
# http.client's reading of it is not compared.
EXPECTED_DIFFERENCES = {
    "status-not-3-digits": "a status code is 3 digits (section 4); http.client reads 0200 as 200",
    "header-without-colon": "a field line is a name, a colon and a value (section 5); "
    "http.client ends the head there",
    "space-before-colon": "no whitespace is allowed between a field name and its colon "
    "(section 5.1); http.client ends the head there",
    "fold-without-field": "a line that opens with whitespace before the first field line is "
    "rejected or skipped (section 2.2); http.client skips it",
    "conflicting-lengths": "different Content-Length values are unrecoverable (section 6.3); "
    "http.client reads by the first",
    "negative-chunk-size": "a chunk size is unsigned hex (section 7.1); "
    "http.client passes it on to read()",
}
REPLIES = 10_000


class _Socket:
    """What ``HTTPResponse`` reads from: a socket whose stream is ``data``."""

    def __init__(self, data: bytes):
        self._data = data

    def makefile(self, mode):
        return io.BufferedReader(io.BytesIO(self._data))


def read_by_llmize(data: bytes):
    """The status and, for a 200, the body, as llmize reads them; None when it fails."""
    reply = io.BufferedReader(io.BytesIO(data))
    try:
        status, headers = transport._read_head(reply)
        return status, transport._read_body(reply, headers) if status == 200 else b""
    except ValueError:
        return None


def read_by_http_client(data: bytes):
    response = http.client.HTTPResponse(_Socket(data), method="POST")
    try:
        response.begin()
        return response.status, response.read() if response.status == 200 else b""
    except (http.client.HTTPException, ValueError):
        return None


def header(rng, name: str, value: str, padded: bool = True) -> bytes:
    """One header line in one of the forms a server may write: any case of the
    name, any spacing after the colon and, unless not ``padded``, after the value."""
    name = rng.choice([name, name.lower(), name.upper()])
    space = rng.choice(["", " ", " ", "  ", "\t"])
    pad = rng.choice(["", "", " ", "\t"]) if padded else ""
    return f"{name}:{space}{value}{pad}".encode("latin-1") + rng.choice([b"\r\n", b"\n"])


def folded(rng, line: bytes) -> bytes:
    """``line``, a field line, and now and then obs-fold lines that go on with
    its value (RFC 9112 section 5.2), one of them written as a field line."""
    if rng.random() < 0.8:
        return line
    folds = rng.sample([b" more", b"\tvalue", b"  ", b" Content-Length: 7", b" \t x:y"], 2)
    return line + b"".join(f + rng.choice([b"\r\n", b"\n"]) for f in folds[: rng.randint(1, 2)])


def generated_reply(rng) -> tuple[bytes, str | None]:
    """A reply on the probe's grammar, and the expected difference it holds, if any."""
    expected = None
    eol = rng.choice([b"\r\n", b"\n"])
    out = []
    for _ in range(rng.choice([0, 0, 0, 1, 2])):  # interim replies
        out.append(b"HTTP/1.1 100 Continue" + eol)
        out += [header(rng, "X-Interim", "1") for _ in range(rng.choice([0, 1]))]
        out.append(eol)

    version = rng.choice(
        [b"HTTP/1.1"] * 4 + [b"HTTP/1.0", b"HTTP/1.9", b"HTTP/2", b"HTTP/2.0", b"http/1.1", b"HTTP/"]
    )
    code = rng.choice([b"200"] * 12 + [b"201", b"204", b"404", b"429", b"500", b"103", b"101",
                                        b"0200", b"099", b"20", b"2000", b"abc", b""])
    if code == b"0200":
        expected = "status-not-3-digits"
    reason = rng.choice([b" OK", b"", b" Very  Good", b" "])
    out.append(rng.choice([b" ", b"  "]).join(filter(None, (version, code))) + reason + eol)

    # Folds go only on fields that do not frame the body: http.client keeps
    # a fold's line break in the value, so a folded "chunked" is not chunked to it.
    head = [folded(rng, header(rng, "Content-Type", "application/json"))]
    fillers = rng.choice([0] * 10 + [1, 3, 97, 98])  # 97 or 98: at the 100-line limit or over
    head += [folded(rng, header(rng, f"X-Filler-{i}", str(i))) for i in range(fillers)]
    if rng.random() < 0.05:
        head.append(rng.choice([b"no colon here", b"Content-Length 5"]) + eol)
        expected = "header-without-colon"
    if rng.random() < 0.03:
        head.append(rng.choice([b"Content-Length : 5", b"X-Spaced\t: 1"]) + eol)
        expected = "space-before-colon"

    body = rng.randbytes(rng.randint(0, 60))
    framing = rng.choice(["length", "length", "chunked", "eof"])
    if framing == "length":
        length = rng.choice([len(body)] * 6 + [max(len(body) - 1, 0), len(body) + 3, -1])
        head.append(header(rng, "Content-Length", str(length)))
        if rng.random() < 0.1:
            other = rng.choice([length, length + 1])
            head.append(header(rng, "Content-Length", str(other)))
            if other != length:
                expected = "conflicting-lengths"
        encoded = body
    elif framing == "chunked":
        # http.client keeps a value's trailing whitespace, so "chunked " is not
        # chunked to it: test_padded_transfer_encoding_is_chunked pins that case.
        coding = rng.choice(["chunked", "Chunked", "CHUNKED"])
        head.append(header(rng, "Transfer-Encoding", coding, padded=False))
        if rng.random() < 0.1:
            head.append(header(rng, "Content-Length", str(rng.randint(0, 99))))
        encoded, start = b"", 0
        while start < len(body):
            end = start + rng.randint(1, 20)
            piece = body[start:end]
            size = rng.choice(["%x", "%X", "%x ", "%02x"]) % len(piece)
            if rng.random() < 0.02 and code == b"200":  # only a 200's body is read
                size = "-%x" % len(piece)
                expected = "negative-chunk-size"
            extension = rng.choice(["", "", ";note=1", ";x", ';q="a;b"'])
            encoded += f"{size}{extension}".encode() + eol + piece + b"\r\n"
            start = end
        encoded += b"0" + rng.choice([b"", b";end=1"]) + eol
        encoded += b"".join(header(rng, f"X-Trailer-{i}", "1") for i in range(rng.choice([0, 1, 2])))
        encoded += eol
    else:
        if rng.random() < 0.2:
            head.append(header(rng, "Transfer-Encoding", "identity"))
        encoded = body
    rng.shuffle(head)
    if rng.random() < 0.02:
        head.insert(0, rng.choice([b" ", b"\tX-Lead: 1"]) + eol)
        expected = "fold-without-field"
    out += head
    out.append(eol)
    if rng.random() < 0.1:  # the connection drops inside the body
        encoded = encoded[: rng.randint(0, len(encoded))]
    out.append(encoded)
    return b"".join(out), expected


def test_reader_agrees_with_http_client():
    rng = random.Random(14)
    counts = dict.fromkeys(EXPECTED_DIFFERENCES, 0)
    statuses = set()
    for _ in range(REPLIES):
        data, expected = generated_reply(rng)
        ours = read_by_llmize(data)
        if expected is not None:
            assert ours is None, (expected, data)
            counts[expected] += 1
            continue
        assert ours == read_by_http_client(data), data
        statuses.add(ours and ours[0])
    # Every expected difference, failures on both sides and several statuses came up.
    assert min(counts.values()) > 0, counts
    assert {None, 200, 404, 101} <= statuses


@pytest.mark.parametrize("version", [b"HTTP/2", b"HTTP/2.0", b"HTTP/3", b"HTTPS/1.1"])
def test_status_line_must_name_http_1(version):
    data = version + b" 200 OK\r\nContent-Length: 2\r\n\r\n{}"
    assert read_by_llmize(data) is None
    assert read_by_llmize(b"HTTP/1.0" + data[len(version):]) == (200, b"{}")


@pytest.mark.parametrize("line", [b"no colon here", b"Content-Length 2", b"X-Token"])
def test_header_line_without_a_colon_fails_the_reply(line):
    data = b"HTTP/1.1 200 OK\r\n%s\r\nContent-Length: 2\r\n\r\n{}" % line
    assert read_by_llmize(data) is None
    assert read_by_llmize(data.replace(line + b"\r\n", b"")) == (200, b"{}")


@pytest.mark.parametrize("code", [b"0200", b"2000", b"20", b"+20"])
def test_status_must_be_three_digits(code):
    assert read_by_llmize(b"HTTP/1.1 %s OK\r\nContent-Length: 2\r\n\r\n{}" % code) is None


def test_padded_transfer_encoding_is_chunked():
    # RFC 9112 section 5: a field value excludes the whitespace around it.
    data = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked \r\n\r\n2\r\n{}\r\n0\r\n\r\n"
    assert read_by_llmize(data) == (200, b"{}")


@pytest.mark.parametrize(
    "head, body",
    [
        (b"X-A: 1\r\n Content-Length: 2\r\n", b"{}x"),
        (b"X-A: 1\r\n\t\r\nContent-Length: 2\r\n", b"{}"),
        (b"Content-Length:\r\n \t2\r\n", b"{}"),
    ],
    ids=["field-line-folded-in", "blank-fold", "value-on-the-fold"],
)
def test_folded_line_goes_on_with_the_field_before_it(head, body):
    # RFC 9112 section 5.2: each obs-fold is replaced by a space.
    data = b"HTTP/1.1 200 OK\r\n" + head + b"\r\n{}x"
    assert read_by_llmize(data) == (200, body)


@pytest.mark.parametrize("line", [b" Content-Length: 2", b"\tX-A: 1", b" "])
def test_fold_with_no_field_before_it_fails_the_reply(line):
    data = b"HTTP/1.1 200 OK\r\n%s\r\nContent-Length: 2\r\n\r\n{}" % line
    assert read_by_llmize(data) is None
    assert read_by_llmize(data.replace(line + b"\r\n", b"")) == (200, b"{}")


@pytest.mark.parametrize("name", [b"Content-Length ", b"Content-Length\t", b"X-A  "])
def test_whitespace_before_a_colon_fails_the_reply(name):
    data = b"HTTP/1.1 200 OK\r\n%s: 2\r\nContent-Length: 2\r\n\r\n{}" % name
    assert read_by_llmize(data) is None
    assert read_by_llmize(data.replace(name, name.rstrip())) == (200, b"{}")


def test_arm_past_its_deadline_times_out():
    with socket.socket() as sock, pytest.raises(TimeoutError):
        transport._arm(sock, time.monotonic())
