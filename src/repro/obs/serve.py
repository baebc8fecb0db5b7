"""Local HTTP endpoint exposing a watcher's live state.

``python -m repro.scenarios sweep --watch --serve PORT`` (a
:class:`~repro.obs.watch.SweepWatcher`) and ``python -m repro.cluster --serve
PORT`` (a :class:`~repro.cluster.watch.ClusterWatcher`) start a
:class:`WatchServer` next to the terminal table: ``GET /metrics`` returns the
watcher's state as Prometheus text format, ``GET /state`` as JSON.  The
server binds loopback only, runs on a daemon thread, and reads the same
:class:`~repro.obs.watch.Watcher` the terminal renders from — it adds no
publishers, no extra queues and no load on the workers.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs.watch import Watcher


class _WatchHandler(BaseHTTPRequestHandler):
    watcher: Watcher  # set on the handler subclass by WatchServer

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/metrics":
            body = self.watcher.prometheus_text().encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif self.path in ("/state", "/"):
            body = (
                json.dumps(self.watcher.state(), indent=2, sort_keys=True) + "\n"
            ).encode("utf-8")
            content_type = "application/json"
        else:
            self.send_error(404, "unknown path (try /metrics or /state)")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep the watcher's terminal table clean


class WatchServer:
    """Loopback HTTP server publishing a watcher's state."""

    def __init__(self, watcher: Watcher, port: int, host: str = "127.0.0.1"):
        handler = type("BoundWatchHandler", (_WatchHandler,), {"watcher": watcher})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        return self._server.server_address[1]

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="obs-serve",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
