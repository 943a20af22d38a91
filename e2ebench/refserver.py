"""Fixed stdlib HTTP server: ``serve-mix``'s host-speed yardstick.

Served latency is made of socket round trips, event-loop wake-ups,
thread hand-offs and small disk reads, and does not follow the
interpreter's speed the way the closed-loop ops do.  ``serve-mix``
therefore divides it by the round trip of this server instead of by
the reference loop.  The server imports nothing from ``repro`` and must
never do so: no change to the program may make it faster or slower.

One request mirrors a cache hit on ``repro-lid serve``, with none of the
program's code: a fresh loopback connection, an HTTP/1.1 ``POST`` with a
JSON manifest read line by line from :mod:`asyncio` streams, a canonical
SHA-256 key of the manifest, a stored JSON entry read from disk on a
helper thread and decoded, the stored body written back, and the
connection closed.

Usage: ``python3 e2ebench/refserver.py DIR``.  It writes its store into
*DIR*, prints ``listening on PORT`` and serves until terminated.
"""

import asyncio
import concurrent.futures
import hashlib
import json
import os
import signal
import sys

#: Size of the stored body, about that of a served campaign report.
BODY_BYTES = 5_000


def _read_entry(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["body"].encode()


async def _serve(store):
    helper = concurrent.futures.ThreadPoolExecutor(max_workers=1)
    loop = asyncio.get_running_loop()

    async def handle(reader, writer):
        try:
            await reader.readline()
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _sep, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            manifest = json.loads(await reader.readexactly(length))
            key = hashlib.sha256(json.dumps(
                manifest, sort_keys=True).encode()).hexdigest()
            body = await loop.run_in_executor(helper, _read_entry, store)
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\nX-Ref-Key: {key}\r\n"
                  f"Connection: close\r\n\r\n".encode() + body)
            await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(f"listening on {server.sockets[0].getsockname()[1]}", flush=True)
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    async with server:
        await stop.wait()
    helper.shutdown()


def main(directory):
    store = os.path.join(directory, "entry.json")
    body = "".join(f"{i % 10}" for i in range(BODY_BYTES))
    with open(store, "w", encoding="utf-8") as fh:
        json.dump({"body": body}, fh)
    asyncio.run(_serve(store))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
