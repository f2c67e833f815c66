"""Legacy blocking engine API -- a thin shim over the session API.

.. deprecated::
    ``VerificationEngine`` is superseded by
    :class:`repro.engine.session.VerificationSession`, which exposes the
    same verification as a stream of typed per-VC events plus a
    structured :class:`~repro.engine.events.VerificationResult` (with
    countermodel diagnostics in original-VC vocabulary).  This class
    remains so existing callers keep working unchanged: ``verify``
    delegates to a private session and degrades its result to the
    historical :class:`~repro.core.verifier.MethodReport`.

    Migration is mechanical::

        engine = VerificationEngine(jobs=4, cache_dir=".vc-cache")
        report = engine.verify(program, ids, "bst_insert")
        # becomes
        session = VerificationSession(jobs=4, cache_dir=".vc-cache")
        result = session.verify(program, ids, "bst_insert")
        report = result.to_report()   # if the legacy shape is still needed
"""

from __future__ import annotations

import time
import warnings
from dataclasses import replace
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.ids import IntrinsicDefinition
from ..core.verifier import MethodReport
from ..lang.ast import Program
from .scheduler import solve_tasks
from .session import VerificationSession
from .tasks import (
    BatchTask,
    TaskUnit,
    assemble_report,
    flatten_units,
)

__all__ = ["VerificationEngine"]


class VerificationEngine:
    """Deprecated blocking facade; use ``VerificationSession`` instead."""

    def __init__(
        self,
        jobs: int = 1,
        backend: str = "intree",
        cache_dir: Optional[str] = None,
        timeout_s: Optional[float] = None,
        method_budget_s: Optional[float] = None,
        encoding: str = "decidable",
        memory_safety: bool = True,
        conflict_budget: Optional[int] = 200000,
        simplify: bool = True,
        batch: bool = True,
        batch_size: int = 16,
        batch_node_limit: int = 200,
    ):
        # Diagnostics are recomputed per failed VC; the legacy report has
        # nowhere to put them, so the shim's session skips the work.
        self._session = VerificationSession(
            jobs=jobs,
            backend=backend,
            cache_dir=cache_dir,
            timeout_s=timeout_s,
            method_budget_s=method_budget_s,
            encoding=encoding,
            memory_safety=memory_safety,
            conflict_budget=conflict_budget,
            simplify=simplify,
            batch=batch,
            batch_size=batch_size,
            batch_node_limit=batch_node_limit,
            diagnostics=False,
        )

    def __getattr__(self, name: str):
        # The historical public attributes (jobs, cache, backend_spec,
        # timeout_s, ...) delegate to the session so existing callers
        # keep working -- and new session attributes are visible here
        # automatically instead of silently diverging.
        if name == "_session":  # guard: __init__ not yet run
            raise AttributeError(name)
        return getattr(self._session, name)

    def verify(
        self, program: Program, ids: IntrinsicDefinition, method: str
    ) -> MethodReport:
        """Two-phase verification of one method (deprecated shim)."""
        warnings.warn(
            "VerificationEngine is deprecated; use VerificationSession "
            "(streaming events + structured results)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._session.verify(program, ids, method).to_report()

    def verify_many(
        self,
        work: Iterable[Tuple[Program, IntrinsicDefinition, str]],
    ) -> List[MethodReport]:
        """Verify a batch of (program, ids, method) triples.

        Plans are generated eagerly and their units solved through one
        shared scheduler pass, so VCs of *different* methods fill the
        worker slots together -- the whole suite is one big task bag.
        ``method_budget_s`` here bounds the whole batch (it is one bag).
        """
        session = self._session
        work = list(work)
        started = time.perf_counter()
        plans = []
        all_units: List[TaskUnit] = []
        counts: List[Tuple[int, List[int]]] = []  # (n slots, original indices)
        for program, ids, method in work:
            plan = session._verifier(program, ids).plan(method)
            units = session._units(plan, session.timeout_s)
            orig = [ix for ix, _label in flatten_units(units)]
            plans.append(plan)
            counts.append((len(orig), orig))
            all_units.extend(units)

        # Tag every VC slot with a globally unique position so the one
        # shared bag can route results back to its method.
        results = solve_tasks(
            _reindexed(all_units),
            jobs=session.jobs,
            cache=session.cache,
            deadline_s=session.method_budget_s,
        )
        reports: List[MethodReport] = []
        cursor = 0
        for plan, (n, orig) in zip(plans, counts):
            chunk = results[cursor : cursor + n]
            cursor += n
            for res, orig_ix in zip(chunk, orig):
                res.index = orig_ix  # restore per-method VC index
            report = assemble_report(plan, chunk, started, jobs=session.jobs)
            # Batch wall clock is shared; report the method's own solve time.
            report.time_s = sum(r.time_s for r in chunk)
            reports.append(report)
        return reports


def _reindexed(units: Sequence[TaskUnit]) -> List[TaskUnit]:
    """Globally unique VC indices for a multi-method unit bag."""
    out: List[TaskUnit] = []
    counter = 0
    for unit in units:
        if isinstance(unit, BatchTask):
            entries = []
            for entry in unit.entries:
                entries.append(replace(entry, index=counter))
                counter += 1
            out.append(replace(unit, entries=tuple(entries)))
        else:
            out.append(replace(unit, index=counter))
            counter += 1
    return out
