"""repro.serve -- the network serving layer.

An asyncio TCP server speaking a length-prefixed, pipelined binary
protocol (GET/PUT/DELETE/BATCH/STAT/PING with request ids, so responses
may return out of order) over one open table, with a request coalescer
that funnels pipelined ops from every connection into the engine's
``put_many``/``get_many`` batch API, per-connection backpressure, a
graceful drain-checkpoint-close shutdown, and an HTTP/JSON + Prometheus
facade on a second port.  See docs/SERVING.md.

Quickstart::

    import repro
    from repro.serve import Server, ServerConfig, ServerThread, Client

    db = repro.open("data.db", durability="wal")
    with ServerThread(db, ServerConfig(port=0), owns_db=True) as st:
        with Client(port=st.port) as c:
            c.put(b"k", b"v")
            assert c.get(b"k") == b"v"

Or from the shell: ``python -m repro.serve serve data.db`` and
``python -m repro.serve repl``.
"""

from repro.serve.client import Client, ServerError
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from repro.serve.server import Server, ServerConfig, ServerThread

__all__ = [
    "Server",
    "ServerConfig",
    "ServerThread",
    "Client",
    "ServerError",
    "ProtocolError",
    "FrameDecoder",
    "encode_frame",
    "DEFAULT_MAX_FRAME",
]
