"""The verification engine: parallel scheduling, VC caching, backends.

The paper's "predictable verification" guarantee -- every VC is
quantifier-free, decidable and independent -- makes verification
embarrassingly parallel and replayable.  This package turns that into
infrastructure:

- :mod:`repro.engine.tasks`     -- VCs as self-contained picklable work units
- :mod:`repro.engine.codec`     -- intern-safe wire format for term DAGs
- :mod:`repro.engine.scheduler` -- one supervised worker process per unit
  (per-task timeouts, crash retry, portfolio races), streaming one result
  per VC as verdicts land; ``jobs=1`` with no timeout, budget, portfolio
  or worker-fault plan solves in-process instead
- :mod:`repro.engine.cache`     -- persistent verdict cache keyed by formula hash
- :mod:`repro.engine.plancache` -- persistent plan cache (simplified VCs + subst
  logs keyed on program text, config, and planner code version)
- :mod:`repro.engine.cachectl`  -- cache lifecycle: access-time index, per-tier
  stats, age/LRU sweeps under size budgets, poison verification
- :mod:`repro.engine.benchdb`   -- sqlite3 bench trajectory DB + the rolling
  median/MAD regression gate over run history
- :mod:`repro.engine.backends`  -- pluggable solver backends (in-tree, SMT-LIB2
  subprocess, cross-check)
- :mod:`repro.engine.events`    -- typed per-VC events and the structured
  result/diagnostic model
- :mod:`repro.engine.diagnostics` -- countermodels mapped back to the original
  VC vocabulary through the simplifier's substitution log
- :mod:`repro.engine.session`   -- :class:`VerificationSession`, the front door
- :mod:`repro.engine.api`       -- :class:`VerificationEngine`, the deprecated
  blocking shim over the session
"""

from .api import VerificationEngine
from .backends import (
    BackendUnavailable,
    CrossCheckMismatch,
    SolverBackend,
    UnknownBackendError,
    available_backends,
    make_backend,
    register_backend,
)
from .benchdb import BenchDB, rolling_gate
from .cache import VcCache, formula_key
from .cachectl import AccessIndex, cache_stats, sweep, verify_caches
from .plancache import PlanCache, code_fingerprint, plan_key
from .diagnostics import diagnose
from .events import (
    Diagnostic,
    VcEvent,
    VcVerdict,
    VerificationResult,
    build_result,
)
from .scheduler import solve_batch, solve_one, solve_tasks, stream_tasks
from .session import VerificationRequest, VerificationRun, VerificationSession
from .tasks import (
    BatchEntry,
    BatchTask,
    SolveTask,
    TaskResult,
    assemble_report,
    batches_from_plan,
    tasks_from_plan,
)

__all__ = [
    "BatchEntry",
    "BatchTask",
    "batches_from_plan",
    "solve_batch",
    "VerificationSession",
    "VerificationRequest",
    "VerificationRun",
    "VcEvent",
    "VcVerdict",
    "VerificationResult",
    "Diagnostic",
    "diagnose",
    "build_result",
    "stream_tasks",
    "VerificationEngine",
    "SolverBackend",
    "UnknownBackendError",
    "BackendUnavailable",
    "CrossCheckMismatch",
    "available_backends",
    "make_backend",
    "register_backend",
    "VcCache",
    "formula_key",
    "AccessIndex",
    "cache_stats",
    "sweep",
    "verify_caches",
    "BenchDB",
    "rolling_gate",
    "PlanCache",
    "plan_key",
    "code_fingerprint",
    "solve_one",
    "solve_tasks",
    "SolveTask",
    "TaskResult",
    "tasks_from_plan",
    "assemble_report",
]
