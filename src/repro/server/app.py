"""HTTP/JSON face of the analysis daemon (stdlib-only).

Endpoints:

* ``POST /analyze`` — body ``{"source": "...", "filename": "f.mcc",
  "config": {...}, "wait": false}``; returns ``202`` with the report id
  (or ``200`` with the finished record when ``wait`` is true).  Every
  request is analysed from scratch, a byte-identical re-submission
  included;
* ``GET /reports/<id>`` — poll one report (``queued``/``running``/
  ``done``/``failed``; ``done`` carries the result,
  :func:`~repro.checkers.report_to_dict` of the run's report);
* ``GET /reports`` — list records (without result payloads);
* ``DELETE /reports/<id>`` (or ``POST /reports/<id>/cancel``) — cancel
  an in-flight run;
* ``GET /metrics`` — the server's aggregate metrics registry, as flat
  JSON;
* ``GET /healthz`` — liveness.

``serve_main`` is the ``repro serve`` subcommand: it builds the
:class:`~repro.server.service.AnalysisService` from CLI flags and runs
a ``ThreadingHTTPServer`` until interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..analysis.config import AnalysisConfig
from ..checkers import ALL_CHECKERS, resolve_checker_names
from .service import AnalysisService, ConfigError

__all__ = ["make_server", "serve_main"]

#: request body cap — analysis sources are small; a daemon must bound
#: what it buffers per request
MAX_BODY_BYTES = 8 * 1024 * 1024


class CanaryRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request; the service lives on the server object."""

    server_version = "canary-analysisd/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    # quiet by default; the daemon's own log line per request suffices
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # type: ignore[attr-defined]
            sys.stderr.write("%s - %s\n" % (self.address_string(), format % args))

    # ----- helpers ----------------------------------------------------------

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Optional[Dict[str, Any]]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "missing or oversized request body"})
            return None
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "request body is not valid JSON"})
            return None
        if not isinstance(data, dict):
            self._send_json(400, {"error": "request body must be a JSON object"})
            return None
        return data

    def _route(self) -> Tuple[str, ...]:
        return tuple(p for p in self.path.split("?")[0].split("/") if p)

    # ----- verbs ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        route = self._route()
        if route == ("healthz",):
            self._send_json(200, self.service.health())
        elif route == ("metrics",):
            self._send_json(200, self.service.metrics_snapshot())
        elif route == ("reports",):
            self._send_json(200, {"reports": self.service.registry.list()})
        elif len(route) == 2 and route[0] == "reports":
            record = self.service.registry.get(route[1])
            if record is None:
                self._send_json(404, {"error": f"no such report: {route[1]}"})
            else:
                self._send_json(200, record.as_dict())
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        route = self._route()
        if route == ("analyze",):
            self._post_analyze()
        elif len(route) == 3 and route[0] == "reports" and route[2] == "cancel":
            self._cancel(route[1])
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def do_DELETE(self) -> None:  # noqa: N802
        route = self._route()
        if len(route) == 2 and route[0] == "reports":
            self._cancel(route[1])
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    # ----- endpoint bodies --------------------------------------------------

    def _post_analyze(self) -> None:
        data = self._read_json_body()
        if data is None:
            return
        source = data.get("source")
        if not isinstance(source, str) or not source.strip():
            self._send_json(400, {"error": "'source' must be a non-empty string"})
            return
        filename = data.get("filename", "<input>")
        if not isinstance(filename, str) or not filename:
            self._send_json(400, {"error": "'filename' must be a non-empty string"})
            return
        overrides = data.get("config")
        if overrides is not None and not isinstance(overrides, dict):
            self._send_json(400, {"error": "'config' must be a JSON object"})
            return
        try:
            record = self.service.submit(source, filename, overrides)
        except ConfigError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except RuntimeError as exc:
            self._send_json(503, {"error": str(exc)})
            return
        if data.get("wait"):
            timeout = data.get("wait_timeout_seconds")
            finished = self.service.registry.wait(
                record.id, timeout=float(timeout) if timeout is not None else None
            )
            if finished is not None:
                self._send_json(200, finished.as_dict())
                return
        self._send_json(
            202, {"report_id": record.id, "status": record.status}
        )

    def _cancel(self, report_id: str) -> None:
        record = self.service.registry.get(report_id)
        if record is None:
            self._send_json(404, {"error": f"no such report: {report_id}"})
            return
        cancelled = self.service.cancel(report_id)
        self._send_json(
            200 if cancelled else 409,
            {"report_id": report_id, "cancelled": cancelled, "status": record.status},
        )


def make_server(
    service: AnalysisService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-run HTTP server bound to ``host:port`` (0 = ephemeral)."""
    server = ThreadingHTTPServer((host, port), CanaryRequestHandler)
    server.service = service  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server


def serve_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Canary analysis daemon: a long-lived HTTP/JSON service"
        " over the resident analysis engine",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8777, help="0 = ephemeral")
    parser.add_argument(
        "--server-workers",
        type=int,
        default=2,
        metavar="N",
        help="analysis worker threads (bounds concurrent runs)",
    )
    parser.add_argument(
        "--max-reports",
        type=int,
        default=256,
        metavar="N",
        help="finished reports retained for polling (oldest evicted first)",
    )
    parser.add_argument(
        "--checkers",
        default="use-after-free",
        help="default checker list for requests that do not override it"
        f" (available: {', '.join(sorted(ALL_CHECKERS))})",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request wall-clock budget (requests may tighten it)",
    )
    parser.add_argument("--verbose", action="store_true", help="log every request")
    args = parser.parse_args(argv)

    try:
        checkers = resolve_checker_names(
            c.strip() for c in args.checkers.split(",") if c.strip()
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        config = AnalysisConfig(
            checkers=checkers,
            timeout_seconds=args.timeout,
        )
    except ValueError as exc:
        parser.error(str(exc))
    service = AnalysisService(
        config,
        workers=args.server_workers,
        max_reports=args.max_reports,
    )
    server = make_server(service, args.host, args.port)
    server.verbose = args.verbose  # type: ignore[attr-defined]
    host, port = server.server_address[:2]
    print(f"canary-analysisd listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry
    sys.exit(serve_main())
