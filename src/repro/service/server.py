"""``repro serve`` — a long-running experiment service over stdlib HTTP.

The server wires a :class:`~repro.service.jobs.JobQueue` (and its
:class:`~repro.service.store.ResultStore`) behind these JSON endpoints:

``POST /experiments``
    Body: an :meth:`ExperimentSpec.to_dict` payload.  Responds ``202``
    with the job status; an exact cache hit responds ``200`` with
    ``state: "done"`` and ``cache_hit: true`` immediately.  Identical
    in-flight submissions share one job (same ``job_id``).

``GET /experiments/<id>``
    Job status with per-shard progress (``total_units`` /
    ``completed_units`` / ``cached_units``).

``GET /experiments/<id>/result``
    The finished outcome as stored — the exact cached bytes, so two
    submissions of the same spec receive byte-identical payloads.
    ``409`` while the job is still queued/running, ``500`` if it failed.
    With ``?partial=1`` the response is instead the job's *partial*
    view in any state (:meth:`JobQueue.partial_result`): every
    completed shard the store holds, the units still missing, and the
    persisted failure report — how a client salvages a quarantined
    grid without resubmitting.

``GET /experiments/<id>/events?since=N``
    Long-poll progress stream: blocks (up to ``?timeout=S``, default 25,
    capped at 30) until the job records events numbered past ``N`` —
    unit completions (with ``cached`` flags), retries, pool rebuilds,
    quarantines, state changes — then returns them with the headline
    counters snapshotted per event.  Terminal jobs return immediately,
    so pollers never hang on finished work; pass the response's
    ``next_since`` as the next request's ``since``.

``GET /experiments`` lists all jobs; ``GET /healthz`` reports liveness,
store statistics and queue-wide retry-budget metrics
(:meth:`JobQueue.retry_metrics`: jobs by state, total retries,
retried/quarantined unit counts, pool rebuilds).  Everything is
standard library (:class:`http.server.ThreadingHTTPServer`) — no new
dependencies.

**Graceful shutdown.**  :meth:`ExperimentServer.shutdown_gracefully`
(wired to ``SIGTERM``/``SIGINT`` in the foreground ``repro serve`` path)
drains rather than drops: the queue stops accepting submissions (new
``POST /experiments`` gets ``503`` with a ``Retry-After`` hint),
in-flight jobs run to completion within ``drain_timeout``, unfinished
submissions are persisted to ``<store>/queue-state.json`` (restored by
the next ``repro serve`` on the same store), and only then does the
listener close.  Job status JSON carries the reliability block —
per-unit retry counts, quarantined ``failed_units``, pool rebuilds, and
the heartbeat age used for stall detection.
"""

from __future__ import annotations

import json
import signal
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Union
from urllib.parse import parse_qs, urlsplit

from repro.service.jobs import JobQueue, ServiceError, ServiceUnavailable
from repro.service.store import ResultStore

__all__ = ["ExperimentServer", "make_server"]


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the queue/store for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    queue: JobQueue
    quiet: bool = True


class _Handler(BaseHTTPRequestHandler):
    server: _ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self._send_body(status, body, "application/json")

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    # -- routes ------------------------------------------------------------

    @staticmethod
    def _query_value(query: dict, key: str, default: str = "") -> str:
        values = query.get(key)
        return values[-1] if values else default

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        split = urlsplit(self.path)
        path = split.path.rstrip("/")
        query = parse_qs(split.query)
        queue = self.server.queue
        if path in ("", "/healthz"):
            self._send_json(
                200,
                {
                    "status": "ok",
                    "store": queue.store.stats(),
                    "retries": queue.retry_metrics(),
                },
            )
            return
        if path == "/experiments":
            self._send_json(
                200, {"jobs": [job.status_dict() for job in queue.jobs()]}
            )
            return
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "experiments":
            job = queue.get(parts[1])
            if job is None:
                self._error(404, f"unknown job {parts[1]!r}")
                return
            if len(parts) == 2:
                self._send_json(200, job.status_dict())
                return
            if len(parts) == 3 and parts[2] == "result":
                if self._query_value(query, "partial") in ("1", "true", "yes"):
                    self._send_json(200, queue.partial_result(job))
                    return
                if job.state == "failed":
                    self._error(500, job.error or "job failed")
                    return
                if job.state != "done":
                    self._error(
                        409,
                        f"job {job.job_id} is {job.state}; poll "
                        f"/experiments/{job.job_id} until done",
                    )
                    return
                text = queue.result_text(job)
                if text is None:
                    self._error(500, "result missing from store")
                    return
                self._send_body(
                    200, text.encode("utf-8"), "application/json"
                )
                return
            if len(parts) == 3 and parts[2] == "events":
                try:
                    since = int(self._query_value(query, "since", "0"))
                    timeout = float(self._query_value(query, "timeout", "25"))
                except ValueError:
                    self._error(400, "since/timeout must be numeric")
                    return
                events = job.events_since(since, timeout=min(timeout, 30.0))
                self._send_json(
                    200,
                    {
                        "job_id": job.job_id,
                        "state": job.state,
                        "events": events,
                        "next_since": events[-1]["seq"] if events else since,
                    },
                )
                return
        self._error(404, f"no route for GET {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = urlsplit(self.path).path.rstrip("/")
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError) as error:
            self._error(400, f"request body is not valid JSON: {error}")
            return
        if path != "/experiments":
            self._error(404, f"no route for POST {self.path}")
            return
        try:
            job = self.server.queue.submit(payload)
        except ServiceUnavailable as error:
            self.send_response(503)
            body = json.dumps({"error": str(error)}, indent=2).encode("utf-8")
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Retry-After", "5")
            self.end_headers()
            self.wfile.write(body)
            return
        except ServiceError as error:
            self._error(400, str(error))
            return
        self._send_json(200 if job.state == "done" else 202, job.status_dict())


def make_server(
    store: Union[ResultStore, str],
    host: str = "127.0.0.1",
    port: int = 0,
    executor: Optional[str] = None,
    worker_threads: int = 1,
    quiet: bool = True,
    retry=None,
    job_timeout: Optional[float] = None,
    stall_timeout: Optional[float] = None,
) -> _ServiceHTTPServer:
    """Build (but do not start) the HTTP server over a fresh job queue."""
    queue = JobQueue(
        store,
        executor=executor,
        worker_threads=worker_threads,
        retry=retry,
        job_timeout=job_timeout,
        stall_timeout=stall_timeout,
    )
    server = _ServiceHTTPServer((host, port), _Handler)
    server.queue = queue
    server.quiet = quiet
    return server


class ExperimentServer:
    """In-process server handle: start/stop, or use as a context manager.

    ``port=0`` binds an ephemeral port; read the resolved address from
    :attr:`url` after construction (the socket binds in ``__init__``)::

        with ExperimentServer(store="/tmp/store") as server:
            requests_like_client(server.url + "/experiments")
    """

    def __init__(
        self,
        store: Union[ResultStore, str],
        host: str = "127.0.0.1",
        port: int = 0,
        executor: Optional[str] = None,
        worker_threads: int = 1,
        quiet: bool = True,
        retry=None,
        job_timeout: Optional[float] = None,
        stall_timeout: Optional[float] = None,
        drain_timeout: float = 30.0,
    ):
        self._server = make_server(
            store,
            host=host,
            port=port,
            executor=executor,
            worker_threads=worker_threads,
            quiet=quiet,
            retry=retry,
            job_timeout=job_timeout,
            stall_timeout=stall_timeout,
        )
        self.drain_timeout = float(drain_timeout)
        self._thread: Optional[threading.Thread] = None
        #: True while :meth:`serve_forever` runs the loop in the foreground.
        self._foreground = False
        self._closed = False

    @property
    def queue(self) -> JobQueue:
        return self._server.queue

    @property
    def store(self) -> ResultStore:
        return self._server.queue.store

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ExperimentServer":
        if self._thread is not None:
            return self
        self._closed = False
        self.queue.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop listening and the job workers (idempotent; warns on leaks).

        The loop stops before its socket closes, on :meth:`start`'s thread
        or in the foreground: one closed under it spins forever.
        """
        thread, self._thread = self._thread, None
        if thread is not None or self._foreground:
            self._server.shutdown()
        if thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():
                warnings.warn(
                    f"server thread {thread.name} did not stop within "
                    f"{timeout}s; a daemon thread is being leaked",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if not self._closed:
            self._closed = True
            self._server.server_close()
        self.queue.stop()

    def shutdown_gracefully(self, drain_timeout: Optional[float] = None) -> bool:
        """Drain, persist, then stop — the SIGTERM path.

        New submissions start getting ``503`` immediately; in-flight jobs
        get up to ``drain_timeout`` seconds (default: the server's
        ``drain_timeout``) to finish; whatever is still unfinished is
        persisted to the store's ``queue-state.json`` for the next
        server on this store to resume.  Returns True when the queue
        fully drained.  Safe to call from any thread (including a signal
        handler's helper thread) and idempotent.
        """
        self.queue.begin_draining()
        drained = self.queue.drain(
            self.drain_timeout if drain_timeout is None else drain_timeout
        )
        try:
            self.queue.persist_state()
        except OSError as error:
            warnings.warn(
                f"could not persist queue state during shutdown: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
        self.stop()
        return drained

    def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Run in the foreground (the ``repro serve`` CLI path).

        With ``install_signal_handlers`` (main thread only), ``SIGTERM``
        and ``SIGINT`` trigger :meth:`shutdown_gracefully` from a helper
        thread (``shutdown()`` deadlocks if called from the serving
        thread itself), then this method returns.

        Prints one parseable ``repro serve listening on <url>`` line once
        the handlers are in place, so a supervisor may signal as soon as
        it reads the line (scripts read the URL from it, which matters
        with ``port=0``).
        """
        self.queue.start()
        restored = self.queue.restore_state()
        # Set before a handler can fire, so stop() ends the loop rather
        # than closing the socket under it.
        self._foreground = True
        try:
            if install_signal_handlers:
                self._install_signal_handlers()
            print(
                f"repro serve listening on {self.url} "
                f"(store: {self.store.root})",
                flush=True,
            )
            if restored and not self._server.quiet:  # pragma: no cover
                print(f"restored {restored} persisted job(s) from queue state")
            self._server.serve_forever()
        finally:
            self._foreground = False
            if not self._closed:
                self._closed = True
                self._server.server_close()
            self.queue.stop()

    def _install_signal_handlers(self) -> None:
        def handle(signum, frame):  # noqa: ARG001 - signal API
            # shutdown() must not run on the serve_forever thread (it
            # would deadlock), and signal handlers run exactly there in
            # the foreground path: hand off to a helper thread.
            threading.Thread(
                target=self.shutdown_gracefully,
                name="repro-serve-shutdown",
                daemon=True,
            ).start()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, handle)
            except ValueError:  # pragma: no cover - not the main thread
                return

    def __enter__(self) -> "ExperimentServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
