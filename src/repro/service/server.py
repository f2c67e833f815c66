"""The ``repro serve`` daemon: verification-as-a-service over HTTP.

A stdlib-only long-lived server (``http.server.ThreadingHTTPServer`` +
``json``; zero new dependencies, like everything else in this repo)
that turns the session engine into a multi-tenant service:

- **one shared** :class:`~repro.engine.session.VerificationSession`
  behind its submission lock -- every tenant hits the same hot VC/plan
  caches, so the second client asking for a method the first just
  verified is served warm from cache;
- an :class:`~repro.service.queue.AdmissionQueue` in front of it --
  bounded FIFO queue, in-flight cap, per-client solve-second budgets
  keyed by the ``X-Client-Id`` header (429 + ``Retry-After`` on
  exhaustion);
- verdicts streamed as they land: ``POST /v1/verify/stream`` answers
  with chunked JSONL, one :class:`~repro.engine.events.VcEvent` per
  line (the same wire form as ``repro verify --events``) and a terminal
  ``{"kind": "summary", ...}`` result document;
- graceful drain on SIGTERM/SIGINT: new requests get 503
  ``draining``, queued and in-flight work finishes, then the session
  closes -- which runs the cache lifecycle sweep when
  ``--cache-max-mb`` / ``--cache-max-age-days`` budgets are set.

Endpoints and schemas are documented in
:func:`repro.service.models.schema_doc` (served at ``GET /v1/schema``)
and the README's "Service" section.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from ..engine import faults
from ..engine.session import VerificationSession
from .models import (
    SERVICE_SCHEMA_VERSION,
    ServiceError,
    ValidationError,
    VerifyRequest,
    VerifyResponse,
    schema_doc,
)
from .queue import AdmissionError, AdmissionQueue

__all__ = ["ServeConfig", "ReproServer", "make_server", "run_server"]

#: Largest accepted request body; a verify request is a few hundred
#: bytes, so anything near this size is a client bug, not a workload.
MAX_BODY_BYTES = 1 << 20


@dataclass
class ServeConfig:
    """Daemon knobs, CLI-flag for CLI-flag."""

    host: str = "127.0.0.1"
    port: int = 8765
    max_inflight: int = 2
    max_queue: int = 16
    client_budget_s: Optional[float] = None
    budget_window_s: float = 60.0
    queue_timeout_s: float = 30.0
    drain_timeout_s: float = 60.0
    quiet: bool = False


class _Metrics:
    """Handler-level counters and solve-second accounting (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.time()
        self.http = {
            "validation_errors": 0,
            "selection_errors": 0,
            "internal_errors": 0,
            "streams": 0,
            "responses": 0,
        }
        self.methods = {"verified": 0, "budget": 0, "FAILED": 0, "error": 0}
        self.solve_seconds: Dict[str, float] = {}

    def count_http(self, key: str) -> None:
        with self._lock:
            self.http[key] += 1

    def count_rows(self, rows, backend: str) -> None:
        with self._lock:
            for _structure, _method, result, status in rows:
                if status.startswith("error:"):
                    self.methods["error"] += 1
                else:
                    self.methods[status] = self.methods.get(status, 0) + 1
                self.solve_seconds[backend] = (
                    self.solve_seconds.get(backend, 0.0) + result.solve_s
                )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "uptime_s": round(time.time() - self.started, 3),
                "http": dict(self.http),
                "methods": dict(self.methods),
                "solve_seconds_by_backend": {
                    backend: round(seconds, 4)
                    for backend, seconds in sorted(self.solve_seconds.items())
                },
            }


class ReproServer(ThreadingHTTPServer):
    """ThreadingHTTPServer + the shared session, queue and metrics."""

    daemon_threads = True  # a hung client never blocks process exit

    def __init__(self, config: ServeConfig, session: VerificationSession):
        super().__init__((config.host, config.port), _Handler)
        self.config = config
        self.session = session
        self.queue = AdmissionQueue(
            max_inflight=config.max_inflight,
            max_queue=config.max_queue,
            client_budget_s=config.client_budget_s,
            budget_window_s=config.budget_window_s,
            queue_timeout_s=config.queue_timeout_s,
            drain_retry_after_s=config.drain_timeout_s,
        )
        self.metrics = _Metrics()
        self._drain_started = threading.Event()
        self.drained_clean = False

    # -- shutdown -----------------------------------------------------------

    def begin_drain(self) -> None:
        """Start the graceful exit: reject new work, finish what's
        admitted, then stop the server loop.  Idempotent; safe to call
        from a signal handler (the wait runs on a helper thread)."""
        if self._drain_started.is_set():
            return
        self._drain_started.set()
        self.queue.begin_drain()

        def _drain_then_stop() -> None:
            self.drained_clean = self.queue.wait_idle(self.config.drain_timeout_s)
            self.shutdown()  # unblocks serve_forever()

        threading.Thread(target=_drain_then_stop, daemon=True).start()

    @property
    def draining(self) -> bool:
        return self._drain_started.is_set()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ReproServer  # narrowed for readability; set by the server

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.config.quiet:
            sys.stderr.write(
                f"serve: {self.address_string()} {format % args}\n"
            )

    def _send_json(
        self,
        status: int,
        doc: dict,
        retry_after_s: Optional[float] = None,
        close: bool = False,
    ) -> None:
        body = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", str(max(1, int(retry_after_s + 0.5))))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_error_envelope(self, error: ServiceError) -> None:
        self._send_json(error.status, error.to_json(),
                        retry_after_s=error.retry_after_s)

    def _client_id(self, request: Optional[VerifyRequest] = None) -> str:
        header = self.headers.get("X-Client-Id")
        if header:
            return header.strip()
        if request is not None and request.client:
            return request.client
        return "anonymous"

    def _read_request(self) -> VerifyRequest:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or 0)
        except ValueError:
            raise ValidationError(
                f"bad Content-Length {length_header!r}"
            ) from None
        if length <= 0:
            raise ValidationError("request body required")
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "payload_too_large",
                               f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as e:
            raise ValidationError(f"body is not valid JSON: {e}") from None
        return VerifyRequest.from_json(doc)

    # -- GET ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        routes = {
            "/healthz": self._get_healthz,
            "/metrics": self._get_metrics,
            "/v1/registry": self._get_registry,
            "/v1/schema": self._get_schema,
        }
        handler = routes.get(self.path.split("?", 1)[0])
        if handler is None:
            self._send_error_envelope(
                ServiceError(404, "not_found", f"no such endpoint {self.path!r}")
            )
            return
        handler()

    def _get_healthz(self) -> None:
        server = self.server
        self._send_json(200, {
            "schema_version": SERVICE_SCHEMA_VERSION,
            "status": "draining" if server.draining else "ok",
            "uptime_s": round(time.time() - server.metrics.started, 3),
            "backend": server.session.backend_spec,
        })

    def _get_schema(self) -> None:
        self._send_json(200, schema_doc())

    def _get_registry(self) -> None:
        from ..engine.backends import available_backends
        from ..structures.registry import EXPERIMENTS

        structures = [
            {"structure": exp.structure, "methods": list(exp.methods)}
            for exp in EXPERIMENTS
        ]
        self._send_json(200, {
            "schema_version": SERVICE_SCHEMA_VERSION,
            "structures": structures,
            "n_methods": sum(len(s["methods"]) for s in structures),
            "backends": available_backends(),
            "serving_backend": self.server.session.backend_spec,
        })

    def _get_metrics(self) -> None:
        server = self.server
        session = server.session
        cache: dict = {"enabled": session.cache_dir is not None}
        if session.cache_dir is not None:
            from ..engine.cachectl import cache_stats

            cache["tiers"] = cache_stats(session.cache_dir)
        doc = {
            "schema_version": SERVICE_SCHEMA_VERSION,
            "service": {
                "backend": session.backend_spec,
                "jobs": session.jobs,
                "draining": server.draining,
            },
            "queue": server.queue.snapshot(),
            "cache": cache,
        }
        doc.update(server.metrics.snapshot())
        self._send_json(200, doc)

    # -- POST ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            faults.maybe_os_error("handler", token=self.path)
        except OSError as e:
            self.server.metrics.count_http("internal_errors")
            self._send_error_envelope(
                ServiceError(500, "internal_error", f"handler fault: {e}")
            )
            return
        path = self.path.split("?", 1)[0]
        if path not in ("/v1/verify", "/v1/verify/stream"):
            self._send_error_envelope(
                ServiceError(404, "not_found", f"no such endpoint {self.path!r}")
            )
            return
        stream = path.endswith("/stream")
        try:
            request = self._read_request()
            selection = self._resolve(request)
        except ServiceError as error:
            self.server.metrics.count_http("validation_errors")
            self._send_error_envelope(error)
            return
        client_id = self._client_id(request)
        try:
            self.server.queue.admit(client_id)
        except AdmissionError as error:
            self._send_error_envelope(
                ServiceError(error.status, error.code, error.message,
                             retry_after_s=error.retry_after_s)
            )
            return
        start = time.perf_counter()
        try:
            self._run_verify(request, selection, stream, client_id)
        finally:
            self.server.queue.release(
                client_id, charge_s=time.perf_counter() - start
            )

    def _resolve(self, request: VerifyRequest):
        """Registry selection + backend pin; ServiceError on mismatch."""
        from ..cli import SelectionError, _select

        session = self.server.session
        if request.backend is not None and request.backend != session.backend_spec:
            raise ServiceError(
                400, "backend_unsupported",
                f"this daemon serves backend {session.backend_spec!r}, "
                f"not {request.backend!r}",
            )
        try:
            selection = _select(request.structure, list(request.methods), request.all)
        except SelectionError as e:
            raise ServiceError(400, "unknown_selection", str(e)) from None
        if not selection:
            # _select returns [] only for the no-selector case, which
            # VerifyRequest.from_json already rejects; keep the guard for
            # defense in depth.
            raise ValidationError("selection matched no methods")
        return selection

    def _run_verify(self, request, selection, stream: bool, client_id: str) -> None:
        from ..cli import _safe_verify

        server = self.server
        session = server.session
        chunks = _ChunkedJsonl(self) if stream else None
        if chunks is not None:
            server.metrics.count_http("streams")
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("Connection", "close")
            self.close_connection = True
            self.end_headers()
        rows = []
        start = time.perf_counter()
        try:
            for exp, method in selection:
                result, status = _safe_verify(
                    session, exp, method,
                    events_sink=chunks.event if chunks is not None else None,
                    timeout_s=request.timeout_s,
                    method_budget_s=request.method_budget_s,
                )
                rows.append((exp.structure, method, result, status))
        except _ClientGone:
            # The tenant hung up mid-stream.  The in-flight method was
            # already drained by _safe_verify's event loop ending only
            # when the run does, so shared state is consistent; just
            # stop writing.
            server.metrics.count_rows(rows, session.backend_spec)
            return
        wall = time.perf_counter() - start
        server.metrics.count_rows(rows, session.backend_spec)
        response = VerifyResponse(
            rows=rows,
            wall_s=wall,
            jobs=session.jobs,
            backend=session.backend_spec,
            simplify=session.simplify,
            batch=session.batch,
            client=client_id,
        )
        server.metrics.count_http("responses")
        if chunks is not None:
            try:
                chunks.line(dict({"kind": "summary"}, **response.to_json()))
                chunks.finish()
            except _ClientGone:
                pass
        else:
            self._send_json(200, response.to_json())


class _ClientGone(Exception):
    """The HTTP client disconnected mid-stream."""


class _ChunkedJsonl:
    """Chunked transfer encoding, one JSON document per line."""

    def __init__(self, handler: _Handler):
        self.handler = handler

    def _write(self, payload: bytes) -> None:
        try:
            self.handler.wfile.write(
                f"{len(payload):x}\r\n".encode("ascii") + payload + b"\r\n"
            )
            self.handler.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError) as e:
            raise _ClientGone(str(e)) from None

    def line(self, doc: dict) -> None:
        self._write(json.dumps(doc, separators=(",", ":")).encode("utf-8") + b"\n")

    def event(self, event) -> None:
        self.line(event.to_json())

    def finish(self) -> None:
        self._write(b"")  # the terminal zero-length chunk


def make_server(session: VerificationSession, config: ServeConfig) -> ReproServer:
    """Bind the daemon (``config.port`` 0 = ephemeral, for tests)."""
    return ReproServer(config, session)


def run_server(
    session: VerificationSession,
    config: ServeConfig,
    install_signal_handlers: bool = True,
) -> int:
    """Serve until drained; returns the CLI exit code.

    SIGTERM/SIGINT trigger the graceful drain: stop admitting, let
    queued + in-flight requests finish (up to ``drain_timeout_s``),
    stop the listener, close the session -- which runs the cache
    lifecycle sweep when the session has cache budgets configured.
    """
    try:
        server = make_server(session, config)
    except OSError as e:
        print(f"serve: cannot bind {config.host}:{config.port}: {e}",
              file=sys.stderr)
        return 2

    if install_signal_handlers:
        def _on_signal(_signum, _frame):
            server.begin_drain()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    host, port = server.server_address[:2]
    if not config.quiet:
        print(
            f"serve: listening on http://{host}:{port} "
            f"(backend={session.backend_spec}, jobs={session.jobs}, "
            f"max_inflight={config.max_inflight}, max_queue={config.max_queue}, "
            f"client_budget_s={config.client_budget_s})",
            file=sys.stderr,
        )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        session.close()
        if not config.quiet:
            print("serve: drained, session closed", file=sys.stderr)
    return 0
