"""A minimal HTTP/JSON front-end over the :class:`QueryService`.

Standard-library only (:class:`http.server.ThreadingHTTPServer`): one
thread per connection, every request funnelled through the thread-safe
:meth:`QueryService.request`.  The surface:

* ``GET /v1/<endpoint>[?arg=<value>]`` — one query; the JSON body
  carries the pinned generation, cache status and value.
* ``GET /metrics`` — the service's per-endpoint counters.
* ``GET /healthz`` — liveness plus the current generation.

Rate-limited requests return ``429``; bad arguments ``400``; unknown
paths and endpoints ``404``; a malformed segment the answer needs
``500``, naming the segment file and block (the connection stays open).
Clients are identified by the ``client`` query parameter when present,
else by their remote address.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.query import (
    CorruptStoreError,
    QueryService,
    RateLimitExceeded,
    ServiceError,
    UnknownEndpointError,
)

__all__ = ["ServiceHttpServer"]


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`QueryService` via the server."""

    protocol_version = "HTTP/1.1"
    # A response goes out as two sends (headers, then body).  With Nagle
    # on, the body waits for the client's ACK of the headers, which a
    # delayed-ACK client holds for ~40 ms: every keep-alive answer would
    # cost ~44 ms on loopback.  TCP_NODELAY sends both at once.
    disable_nagle_algorithm = True
    service: QueryService  # injected by ServiceHttpServer

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence per-request stderr logging (metrics cover it)."""

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        parsed = urlparse(self.path)
        params = parse_qs(parsed.query)
        service = self.service
        if parsed.path == "/metrics":
            self._send_json(200, service.metrics_summary())
            return
        if parsed.path == "/healthz":
            self._send_json(
                200, {"status": "ok", "generation": service.generation}
            )
            return
        if not parsed.path.startswith("/v1/"):
            self._send_json(404, {"error": f"no such path {parsed.path!r}"})
            return
        endpoint = parsed.path[len("/v1/"):]
        argument = params.get("arg", [None])[0]
        client = params.get("client", [self.client_address[0]])[0]
        try:
            response = service.request(endpoint, argument, client=client)
        except RateLimitExceeded as error:
            self._send_json(429, {"error": str(error)})
            return
        except CorruptStoreError as error:
            self._send_json(500, {"error": str(error)})
            return
        except UnknownEndpointError as error:
            self._send_json(404, {"error": str(error)})
            return
        except ServiceError as error:
            self._send_json(400, {"error": str(error)})
            return
        self._send_json(
            200,
            {
                "endpoint": response.endpoint,
                "generation": response.generation,
                "cached": response.cached,
                "value": response.value,
            },
        )


class ServiceHttpServer:
    """Lifecycle wrapper: bind, serve (inline or background), close.

    All constructor arguments are keyword-only.  ``port=0`` binds an
    ephemeral port (read it back from :attr:`address`).
    """

    def __init__(
        self,
        *,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        handler = type("_BoundHandler", (_Handler,), {"service": service})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: "threading.Thread | None" = None
        self._serving = False

    @property
    def address(self) -> "tuple[str, int]":
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (CLI mode)."""
        self._serving = True
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self._serving = False

    def start(self) -> None:
        """Serve on a daemon background thread (test/bench mode)."""
        if self._thread is not None:
            return
        self._serving = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        """Stop serving and release the listening socket (idempotent)."""
        if self._serving or self._thread is not None:
            self._server.shutdown()
            self._serving = False
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "ServiceHttpServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
