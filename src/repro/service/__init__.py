"""Experiment service: async jobs, HTTP serving, content-addressed cache.

Three cooperating layers turn the batch-oriented :func:`repro.run` path
into a long-running service:

* :class:`ResultStore` — a content-addressed cache keyed by the public
  :meth:`ExperimentSpec.fingerprint` (whole results) and by
  grid-independent shard fingerprints (individual work units), so exact
  resubmissions are O(1) and overlapping specs share shards.
* :class:`JobQueue` / :class:`Job` — background execution with
  in-flight dedup of identical fingerprints, live per-shard progress
  (long-pollable per-job event streams), retry/quarantine bookkeeping,
  partial-result assembly for quarantined jobs, job timeouts with
  heartbeat-based stall detection, and drain/persist/restore for
  graceful shutdown.
* :class:`ExperimentServer` — the stdlib-HTTP front end behind the
  ``repro serve`` CLI command, serving the job API; ``SIGTERM`` drains
  in-flight jobs and rejects new submissions with 503
  (:class:`ServiceUnavailable`).
"""

from repro.service.jobs import Job, JobQueue, ServiceError, ServiceUnavailable
from repro.service.server import ExperimentServer, make_server
from repro.service.store import ResultStore

__all__ = [
    "ExperimentServer",
    "Job",
    "JobQueue",
    "ResultStore",
    "ServiceError",
    "ServiceUnavailable",
    "make_server",
]
