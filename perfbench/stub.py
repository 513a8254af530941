"""Loopback scorer stub speaking the line-delimited score protocol.

Run as its own process: ``python3 stub.py --delay-ms 2``. It binds an
ephemeral port on 127.0.0.1, prints ``{"port": N}`` as its first stdout
line, and serves until SIGTERM or SIGINT, when it prints
``{"requests": N, "max_in_flight": M}`` and exits.

One thread, one asyncio loop. The delay per request is a timer, not a
blocking sleep, so requests that overlap on several connections, or that
arrive pipelined on one connection, are served concurrently; responses on a
connection leave in request order.

Scores are a perfect oracle over the workspace generator's naming: the
first word of every prompt is the subject label, the correct object label
follows from it, and each continuation scores 0.0 when it is a form of
that label and -1.0 otherwise.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

# Run as a script, so the benchmark's own directory is on sys.path.
from workspace import object_forms, subject_to_object_label

PROTOCOL_VERSION = 1


def score(prompt: str, continuations: list[str]) -> list[list]:
    words = prompt.split()
    correct = object_forms(subject_to_object_label(words[0])) if words else set()
    return [
        [0.0 if c.strip() in correct else -1.0, max(1, len(c.split()))]
        for c in continuations
    ]


class Stub:
    def __init__(self, delay: float):
        self.delay = delay
        self.requests = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def _serve(self, request: dict) -> bytes:
        try:
            if request.get("version") != PROTOCOL_VERSION:
                body = {"version": PROTOCOL_VERSION, "error": "unsupported version"}
            else:
                body = {
                    "version": PROTOCOL_VERSION,
                    "results": score(request["prompt"], request["continuations"]),
                }
            await asyncio.sleep(self.delay)
            return (json.dumps(body, ensure_ascii=False) + "\n").encode("utf-8")
        finally:
            self.in_flight -= 1

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.connections[asyncio.current_task()] = writer
        queue: asyncio.Queue = asyncio.Queue()

        async def respond():
            while (task := await queue.get()) is not None:
                writer.write(await task)
                await writer.drain()

        responder = asyncio.create_task(respond())
        try:
            while raw := await reader.readline():
                self.requests += 1
                self.in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self.in_flight)
                await queue.put(asyncio.create_task(self._serve(json.loads(raw))))
        except (ConnectionError, json.JSONDecodeError):
            pass
        finally:
            queue.put_nowait(None)
        try:
            await responder
        except ConnectionError:
            pass
        finally:
            writer.close()
            del self.connections[asyncio.current_task()]

    async def close(self) -> None:
        """End every open connection as if its client had hung up."""
        handlers = list(self.connections)
        for writer in self.connections.values():
            writer.transport.abort()
        await asyncio.gather(*handlers, return_exceptions=True)


async def main(delay: float) -> None:
    stub = Stub(delay)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0, limit=1 << 22)
    port = server.sockets[0].getsockname()[1]
    print(json.dumps({"port": port}), flush=True)
    await stop.wait()
    server.close()
    await stub.close()
    print(json.dumps({"requests": stub.requests, "max_in_flight": stub.max_in_flight}),
          flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, default=2.0)
    args = parser.parse_args()
    asyncio.run(main(args.delay_ms / 1000.0))
    sys.exit(0)
