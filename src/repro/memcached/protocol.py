"""The memcached text protocol: encoding and parsing.

"The Memcache daemon may be accessed through TCP/IP connections" (§2.2)
speaking the classic text protocol.  The simulation transports opaque
payloads and does not use this codec: it charges the request bytes of
``memcached.daemon.command_cost`` (key bytes plus a flat 24 B of framing
per key, plus value bytes), whose docstring states how far that is from
the encoded length measured here.  Nothing under ``src/`` imports this
module; only its round-trip tests do.

Grammar (storage)::

    <cmd> <key> <flags> <exptime> <bytes> [noreply]\\r\\n<data>\\r\\n
    -> STORED | NOT_STORED | EXISTS | NOT_FOUND

(retrieval)::

    get <key>*\\r\\n
    -> [VALUE <key> <flags> <bytes> [<cas>]\\r\\n<data>\\r\\n]* END\\r\\n
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

CRLF = b"\r\n"

STORAGE_COMMANDS = ("set", "add", "replace", "append", "prepend", "cas")
RETRIEVAL_COMMANDS = ("get", "gets")


class ProtocolError(Exception):
    """Malformed request or response line."""


@dataclass
class Request:
    """A parsed client request."""

    command: str
    keys: list[str] = field(default_factory=list)
    flags: int = 0
    exptime: int = 0
    data: bytes = b""
    cas: Optional[int] = None
    delta: Optional[int] = None
    noreply: bool = False

    @property
    def key(self) -> str:
        return self.keys[0]


@dataclass
class Value:
    """One VALUE block of a retrieval response."""

    key: str
    flags: int
    data: bytes
    cas: Optional[int] = None


# --------------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------------- #
def encode_storage(
    command: str,
    key: str,
    data: bytes,
    flags: int = 0,
    exptime: int = 0,
    cas: Optional[int] = None,
    noreply: bool = False,
) -> bytes:
    if command not in STORAGE_COMMANDS:
        raise ProtocolError(f"not a storage command: {command}")
    if command == "cas" and cas is None:
        raise ProtocolError("cas command requires a cas token")
    parts = [command, key, str(flags), str(exptime), str(len(data))]
    if command == "cas":
        parts.append(str(cas))
    if noreply:
        parts.append("noreply")
    return " ".join(parts).encode() + CRLF + data + CRLF


def encode_get(keys: Iterable[str], with_cas: bool = False) -> bytes:
    keys = list(keys)
    if not keys:
        raise ProtocolError("get requires at least one key")
    cmd = "gets" if with_cas else "get"
    return (cmd + " " + " ".join(keys)).encode() + CRLF


def encode_delete(key: str, noreply: bool = False) -> bytes:
    line = f"delete {key}" + (" noreply" if noreply else "")
    return line.encode() + CRLF


def encode_incr_decr(command: str, key: str, delta: int) -> bytes:
    if command not in ("incr", "decr"):
        raise ProtocolError(f"not an arithmetic command: {command}")
    if delta < 0:
        raise ProtocolError("delta must be unsigned")
    return f"{command} {key} {delta}".encode() + CRLF


def encode_touch(key: str, exptime: int) -> bytes:
    return f"touch {key} {exptime}".encode() + CRLF


def encode_flush_all(delay: int = 0) -> bytes:
    return (b"flush_all" + (f" {delay}".encode() if delay else b"")) + CRLF


def encode_values_response(values: Iterable[Value], with_cas: bool = False) -> bytes:
    out = bytearray()
    for v in values:
        header = f"VALUE {v.key} {v.flags} {len(v.data)}"
        if with_cas:
            if v.cas is None:
                raise ProtocolError("gets response requires cas tokens")
            header += f" {v.cas}"
        out += header.encode() + CRLF + v.data + CRLF
    out += b"END" + CRLF
    return bytes(out)


def encode_reply(reply: str) -> bytes:
    return reply.encode() + CRLF


# --------------------------------------------------------------------------- #
# parsing
# --------------------------------------------------------------------------- #
def parse_request(raw: bytes) -> tuple[Request, bytes]:
    """Parse one request off *raw*; returns (request, remaining bytes)."""
    nl = raw.find(CRLF)
    if nl < 0:
        raise ProtocolError("no CRLF-terminated command line")
    line = raw[:nl].decode("ascii", errors="strict")
    rest = raw[nl + 2 :]
    parts = line.split(" ")
    cmd = parts[0]

    if cmd in RETRIEVAL_COMMANDS:
        keys = [p for p in parts[1:] if p]
        if not keys:
            raise ProtocolError("retrieval with no keys")
        return Request(command=cmd, keys=keys), rest

    if cmd in STORAGE_COMMANDS:
        want = 6 if cmd == "cas" else 5
        has_noreply = len(parts) == want + 1 and parts[-1] == "noreply"
        if len(parts) != want and not has_noreply:
            raise ProtocolError(f"bad {cmd} line: {line!r}")
        key = parts[1]
        flags, exptime, nbytes = int(parts[2]), int(parts[3]), int(parts[4])
        cas = int(parts[5]) if cmd == "cas" else None
        if len(rest) < nbytes + 2 or rest[nbytes : nbytes + 2] != CRLF:
            raise ProtocolError("data block length mismatch")
        data = bytes(rest[:nbytes])
        return (
            Request(
                command=cmd,
                keys=[key],
                flags=flags,
                exptime=exptime,
                data=data,
                cas=cas,
                noreply=has_noreply,
            ),
            rest[nbytes + 2 :],
        )

    if cmd == "delete":
        if len(parts) < 2:
            raise ProtocolError("delete with no key")
        return (
            Request(command=cmd, keys=[parts[1]], noreply=parts[-1] == "noreply"),
            rest,
        )
    if cmd in ("incr", "decr"):
        if len(parts) != 3:
            raise ProtocolError(f"bad {cmd} line")
        return Request(command=cmd, keys=[parts[1]], delta=int(parts[2])), rest
    if cmd == "touch":
        if len(parts) != 3:
            raise ProtocolError("bad touch line")
        return Request(command=cmd, keys=[parts[1]], exptime=int(parts[2])), rest
    if cmd == "flush_all":
        return Request(command=cmd), rest
    if cmd == "stats":
        return Request(command=cmd), rest
    raise ProtocolError(f"unknown command {cmd!r}")


def parse_values_response(raw: bytes) -> list[Value]:
    """Parse a retrieval response (VALUE blocks terminated by END)."""
    values: list[Value] = []
    pos = 0
    while True:
        nl = raw.find(CRLF, pos)
        if nl < 0:
            raise ProtocolError("truncated response")
        line = raw[pos:nl].decode("ascii")
        pos = nl + 2
        if line == "END":
            return values
        parts = line.split(" ")
        if parts[0] != "VALUE" or len(parts) not in (4, 5):
            raise ProtocolError(f"bad VALUE line: {line!r}")
        key, flags, nbytes = parts[1], int(parts[2]), int(parts[3])
        cas = int(parts[4]) if len(parts) == 5 else None
        data = bytes(raw[pos : pos + nbytes])
        if raw[pos + nbytes : pos + nbytes + 2] != CRLF:
            raise ProtocolError("data block length mismatch in response")
        pos += nbytes + 2
        values.append(Value(key=key, flags=flags, data=data, cas=cas))


def request_wire_size(req: Request) -> int:
    """Exact encoded size of a request.  (Not what the simulation
    charges: see ``memcached.daemon.command_cost``.)"""
    if req.command in RETRIEVAL_COMMANDS:
        return len(encode_get(req.keys, with_cas=req.command == "gets"))
    if req.command in STORAGE_COMMANDS:
        return len(
            encode_storage(
                req.command, req.key, req.data, req.flags, req.exptime, req.cas, req.noreply
            )
        )
    if req.command == "delete":
        return len(encode_delete(req.key, req.noreply))
    if req.command in ("incr", "decr"):
        return len(encode_incr_decr(req.command, req.key, req.delta or 0))
    if req.command == "touch":
        return len(encode_touch(req.key, req.exptime))
    return len(req.command) + 2
