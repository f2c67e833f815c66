"""Verification-as-a-service: the ``repro serve`` daemon.

The paper's pitch is *predictable* verification -- fixed-cost VC
generation cheap enough to run constantly.  This package is the serving
surface for that capability: a stdlib-only HTTP daemon wrapping one
shared :class:`~repro.engine.session.VerificationSession` (hot VC/plan
caches) behind admission control.

- :mod:`~repro.service.models` -- versioned request/response wire
  models with strict validation and typed error envelopes
- :mod:`~repro.service.queue`  -- the admission gate: bounded FIFO
  queue, in-flight cap, per-client token-bucket solve-time budgets
- :mod:`~repro.service.server` -- the HTTP endpoints (blocking verify,
  streamed JSONL verdicts, registry, metrics, health) and the graceful
  drain-then-exit lifecycle
"""

from .models import (
    SERVICE_SCHEMA_VERSION,
    ServiceError,
    ValidationError,
    VerifyRequest,
    VerifyResponse,
    schema_doc,
)
from .queue import (
    AdmissionError,
    AdmissionQueue,
    BudgetExhausted,
    Draining,
    QueueFull,
    QueueTimeout,
    TokenBucket,
)
from .server import ReproServer, ServeConfig, make_server, run_server

__all__ = [
    "SERVICE_SCHEMA_VERSION",
    "ServiceError",
    "ValidationError",
    "VerifyRequest",
    "VerifyResponse",
    "schema_doc",
    "AdmissionError",
    "AdmissionQueue",
    "BudgetExhausted",
    "Draining",
    "QueueFull",
    "QueueTimeout",
    "TokenBucket",
    "ReproServer",
    "ServeConfig",
    "make_server",
    "run_server",
]
