"""The served workloads' server child: one table behind ``Server``.

Started by the benchmark with ``python serverproc.py PATH CACHESIZE``
because the package's own ``serve`` CLI exposes neither ``cachesize`` nor
``ffactor``.  Prints ``LISTENING port=<n>`` once bound; SIGTERM runs the
server's graceful stop (drain, checkpoint, close).
"""

from __future__ import annotations

import asyncio
import signal
import sys


async def _serve(path: str, cachesize: int) -> None:
    from repro.access.db import db_open
    from repro.serve.server import Server, ServerConfig

    db = db_open(
        path, "hash", "w", concurrent=True, durability="wal", cachesize=cachesize
    )
    # Start with the table resident, as a server that has been up a while
    # is: a PUT's commit walks every resident buffer, so until the pool has
    # filled each window would be a little slower than the last.
    for _ in db.items():
        pass
    server = Server(db, ServerConfig(port=0), owns_db=True)
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"LISTENING port={server.port}", flush=True)
    await stop.wait()
    await server.stop()


if __name__ == "__main__":
    asyncio.run(_serve(sys.argv[1], int(sys.argv[2])))
