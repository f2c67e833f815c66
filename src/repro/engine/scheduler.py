"""Parallel solve scheduler with per-task wall-clock timeouts.

Shards work units across worker *processes* (one process per unit, at
most ``jobs`` in flight).  A unit is either a single
:class:`~repro.engine.tasks.SolveTask` or a
:class:`~repro.engine.tasks.BatchTask` of N VCs sharing a hypothesis
prefix; batch workers stream one result per VC back through their pipe
as each goal is decided, so per-VC verdicts, timings and timeout
attribution survive batching.  No ``signal.SIGALRM``, so the same code
path works inside CI containers, on macOS/Windows ``spawn`` start
methods, and in threads.

Before anything launches, every VC is keyed by its canonical formula
hash: persistent-cache hits short-circuit, and *in-flight duplicates*
(two VCs in the same bag with identical canonical formulas -- common
once the simplifier has normalized them) are solved exactly once, with
the verdict fanned out to the duplicate siblings and the cache written
once.  Only *definitive* verdicts (valid/invalid) fan out: a timeout or
error is a fact about this machine and schedule, not about the formula,
so duplicates of a failed owner are re-queued as standalone tasks
(mirroring :class:`~repro.engine.cache.VcCache`'s cacheability rule).

Units whose backend spec is a ``portfolio:`` race (see
:mod:`repro.engine.backends`) are scheduled specially: one worker per
member backend is launched on the *same* unit, the first definitive
verdict settles each VC slot (attributed via ``TaskResult.winner``),
losers are terminated and reaped as soon as the unit's last slot
settles, and a non-definitive answer from one member leaves the slot
open for the others.  The race lives here rather than inside a
``SolverBackend`` because ``check_validity`` is synchronous and members
may be subprocess-bound -- only the scheduler can run them truly
concurrently and cancel the losers.

One rule picks the execution path.  ``jobs=1`` with no per-VC timeout,
no bag deadline, no portfolio backend and no worker-killing fault plan
runs in-process, byte-for-byte the sequential ``Verifier.verify``
verdict computation (the "same-verdict sequential fallback").  Every
other bag runs through the supervised process-per-unit loop: each unit
gets a fresh worker that dies with it, so deadlines, crash retry and
races apply uniformly and no worker outlives the call.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import replace
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional, Sequence, Tuple

from ..smt.solver import SolverError
from ..smt.terms import Term
from . import faults
from .backends import BackendError, SolverBackend, make_backend, portfolio_members
from .cache import VcCache, formula_text, key_for_text
from .codec import encode_term
from .tasks import (
    BatchTask,
    SolveTask,
    TaskResult,
    TaskUnit,
    flatten_units,
    unit_slots as _unit_slots,
)

__all__ = ["stream_tasks", "solve_tasks", "solve_one", "solve_batch"]

_POLL_S = 0.05
_DEFINITIVE = ("valid", "invalid")
# Exit code for fault-injected worker deaths (distinguishable from real
# crashes in logs, handled identically by the supervised-retry policy).
_FAULT_EXIT = 98
# Retry backoff: base * 2**attempt, capped.
_BACKOFF_BASE_S = 0.1
_BACKOFF_CAP_S = 2.0


def _unit_token(unit: TaskUnit) -> str:
    """Stable per-unit token for deterministic fault decisions."""
    slots = _unit_slots(unit)
    return f"{unit.structure}|{unit.method}|{slots[0][0]}"


def solve_one(task: SolveTask, backend: Optional[SolverBackend] = None) -> TaskResult:
    """Solve a single task in this process (no timeout enforcement)."""
    if backend is None:
        backend = make_backend(task.backend_spec)
    start = time.perf_counter()
    try:
        verdict = backend.check_validity(
            task.formula(), task.conflict_budget, pre_simplified=task.pre_simplified
        )
        return TaskResult(
            index=task.index,
            label=task.label,
            verdict=verdict.status,
            detail=verdict.detail,
            time_s=time.perf_counter() - start,
        )
    except (SolverError, BackendError) as e:
        return TaskResult(
            index=task.index,
            label=task.label,
            verdict="error",
            detail=str(e),
            time_s=time.perf_counter() - start,
        )


def solve_batch(batch: BatchTask, backend: Optional[SolverBackend] = None):
    """Solve a batch in this process, yielding one TaskResult per entry
    (in entry order) as each goal is decided.

    Per-goal solver failures become per-entry ``error`` results; a
    context-level failure (prefix ingestion, dead external solver)
    errors every not-yet-answered entry.
    """
    if backend is None:
        backend = make_backend(batch.backend_spec)
    prefix, remainders, _formulas = batch.decode()
    gen = backend.batch_check_validity(
        prefix, remainders, batch.conflict_budget, pre_simplified=batch.pre_simplified
    )
    done = 0
    last = time.perf_counter()
    try:
        for entry, verdict in zip(batch.entries, gen):
            now = time.perf_counter()
            yield TaskResult(
                index=entry.index,
                label=entry.label,
                verdict=verdict.status,
                detail=verdict.detail,
                time_s=now - last,
            )
            last = now
            done += 1
    except (SolverError, BackendError) as e:
        # A context-level failure kills every remaining entry at once:
        # the wall clock since the last yield was spent *once*, so it is
        # charged to the first errored entry and the rest are explicitly
        # zero -- not re-measured per entry, which would attribute the
        # elapsed time to the first and ~0 to the rest by accident.
        elapsed = time.perf_counter() - last
        for entry in batch.entries[done:]:
            yield TaskResult(
                index=entry.index,
                label=entry.label,
                verdict="error",
                detail=str(e),
                time_s=elapsed,
            )
            elapsed = 0.0


def _requeue_singles(batch: BatchTask, remaining: Dict[int, str]) -> List[SolveTask]:
    """Standalone tasks for batch entries that were never attempted."""
    _prefix, _remainders, formulas = batch.decode()
    by_index = {e.index: f for e, f in zip(batch.entries, formulas)}
    return [
        SolveTask(
            structure=batch.structure,
            method=batch.method,
            index=ix,
            label=label,
            nodes=encode_term(by_index[ix]),
            encoding=batch.encoding,
            conflict_budget=batch.conflict_budget,
            backend_spec=batch.backend_spec,
            timeout_s=batch.timeout_s,
            pre_simplified=batch.pre_simplified,
        )
        for ix, label in remaining.items()
    ]


def _waiter_task(unit: TaskUnit, index: int, label: str, formula: Term) -> SolveTask:
    """A standalone task for a dedup waiter whose owner failed to produce
    a definitive verdict."""
    return SolveTask(
        structure=unit.structure,
        method=unit.method,
        index=index,
        label=label,
        nodes=encode_term(formula),
        encoding=unit.encoding,
        conflict_budget=unit.conflict_budget,
        backend_spec=unit.backend_spec,
        timeout_s=unit.timeout_s,
        pre_simplified=unit.pre_simplified,
    )


def _worker(conn, unit: TaskUnit) -> None:
    """Worker entry point: solve one unit, stream results, exit.

    Protocol: one ``TaskResult`` message per VC (batches stream them as
    goals are decided), then a ``None`` sentinel.
    """
    # A forked worker inherits the parent's signal handlers: a handler
    # that raises (``repro verify`` maps SIGTERM to KeyboardInterrupt) or
    # ignores the signal (``repro serve`` drains on it) would turn the
    # parent's terminate() into a traceback or a worker that outlives
    # its deadline.  Workers die on SIGTERM/SIGINT, quietly.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    def ship(obj) -> bool:
        try:
            conn.send(obj)
            return True
        except (BrokenPipeError, OSError):
            return False

    # Chaos plane: a worker re-derives the fault plan from the inherited
    # REPRO_FAULTS env var.  ``worker_crash`` dies before solving (the
    # parent sees a clean death with zero progress); ``worker_stream``
    # dies between streamed batch results (progress, then death).  Both
    # use os._exit because the except-BaseException nets below would
    # otherwise convert an injected exception into polite error results.
    plan = faults.active()
    attempt = getattr(unit, "attempt", 0)
    if plan is not None and plan.fire(
        "worker_crash", token=_unit_token(unit), attempt=attempt
    ):
        os._exit(_FAULT_EXIT)

    if isinstance(unit, BatchTask):
        reported = 0
        try:
            for res in solve_batch(unit):
                if not ship(res):
                    break
                reported += 1
                if plan is not None and plan.fire(
                    "worker_stream",
                    token=f"{_unit_token(unit)}|{reported}",
                    attempt=attempt,
                ):
                    os._exit(_FAULT_EXIT)
        except BaseException as e:  # noqa: BLE001 - must never die silently
            for entry in unit.entries[reported:]:
                ship(
                    TaskResult(
                        entry.index, entry.label, "error", f"worker crash: {e!r}"
                    )
                )
    else:
        try:
            res = solve_one(unit)
        except BaseException as e:  # noqa: BLE001
            res = TaskResult(unit.index, unit.label, "error", f"worker crash: {e!r}")
        ship(res)
    ship(None)
    try:
        conn.close()
    except OSError:
        pass


class _Race:
    """One portfolio unit's worker group, racing member backends on the
    same slots.

    The first definitive (valid/invalid) verdict settles a slot and is
    attributed to the member that produced it; once every slot is
    settled the surviving siblings are terminated and reaped.  A
    non-definitive answer (error/unknown) from one member leaves the
    slot open for the others; only when no live member can still answer
    a slot is it settled with the first fallback result seen.
    """

    __slots__ = ("unit", "runs", "remaining", "fallback", "started", "deadline")

    def __init__(self, unit: TaskUnit):
        self.unit = unit
        self.runs: List[_Running] = []
        self.remaining: Dict[int, str] = dict(_unit_slots(unit))
        self.fallback: Dict[int, TaskResult] = {}
        self.started = time.perf_counter()
        # The race shares one summed timeout bank (see _Running): racing
        # changes who answers first, not how long the unit may take.
        if unit.timeout_s is None:
            self.deadline = None
        else:
            self.deadline = self.started + unit.timeout_s * len(self.remaining)


class _Running:
    __slots__ = (
        "proc",
        "conn",
        "unit",
        "remaining",
        "started",
        "deadline",
        "race",
        "member",
        "active",
        "delivered",
    )

    def __init__(self, proc, conn, unit: TaskUnit, race=None, member=None):
        self.proc = proc
        self.conn = conn
        self.unit = unit
        self.remaining: Dict[int, str] = dict(_unit_slots(unit))
        self.started = time.perf_counter()
        self.race: Optional[_Race] = race
        self.member: Optional[str] = member  # member backend spec in the race
        self.active = True
        # Results this worker streamed back before dying/finishing: the
        # retry policy's transient-vs-deterministic signal (a crash after
        # progress is not the same crash happening again).
        self.delivered = 0
        # A batch is granted the summed budget of its entries up front:
        # a non-streaming backend (one smtlib2 subprocess answers all N
        # goals at once) must not be killed after a single slice.  When
        # the bank runs out, only the in-flight entry timed out; the
        # never-attempted rest are re-queued as standalone tasks.  Race
        # members share their group's bank (race.deadline) instead of
        # each carrying their own.
        if unit.timeout_s is None or race is not None:
            self.deadline = None
        else:
            self.deadline = self.started + unit.timeout_s * len(self.remaining)


def solve_tasks(
    units: Sequence[TaskUnit],
    jobs: int = 1,
    cache: Optional[VcCache] = None,
    deadline_s: Optional[float] = None,
    max_retries: int = 2,
) -> List[TaskResult]:
    """Solve every unit; returns per-VC results in unit/entry order.

    The collecting face of :func:`stream_tasks`: results are gathered
    and re-sorted into scheduling order, so the list is deterministic
    under any parallel completion order.
    """
    flat = flatten_units(units)
    results = {
        res.index: res
        for res in stream_tasks(
            units,
            jobs=jobs,
            cache=cache,
            deadline_s=deadline_s,
            max_retries=max_retries,
        )
    }
    return [results[ix] for ix, _label in flat]


def stream_tasks(
    units: Sequence[TaskUnit],
    jobs: int = 1,
    cache: Optional[VcCache] = None,
    deadline_s: Optional[float] = None,
    max_retries: int = 2,
):
    """Solve every unit, *yielding* one :class:`TaskResult` per VC slot
    as each verdict lands (completion order, not submission order).

    This generator is the engine's event source: cache hits and in-flight
    dedup fan-outs are yielded up front, then worker results are pushed
    out as the streaming worker protocol delivers them -- consumers see
    progress per VC instead of waiting for the whole bag.

    Cache hits short-circuit before any process is spawned; in-flight
    duplicates (same canonical ``formula_key``) are solved once, with
    definitive verdicts fanned out and failed owners' duplicates
    re-queued standalone; definitive verdicts of misses are written back
    exactly once per key.  ``jobs`` bounds worker concurrency;
    ``timeout_s`` is enforced by termination from the parent -- a batch
    is granted the summed budget of its entries up front (non-streaming
    backends answer every goal in one call), and on expiry the worker's
    pipe is drained first (already-streamed verdicts are real), then the
    in-flight entry is the timeout while never-attempted entries are
    re-queued standalone.  ``deadline_s`` additionally bounds the *whole
    bag's* wall clock (the per-method budget of the benchmark
    harnesses): when it expires, pipes are drained, then every
    unfinished VC is reported as ``timeout`` instead of being started.
    ``portfolio:`` units launch one worker per member backend and settle
    each slot on the first definitive verdict (``TaskResult.winner``
    names the member), terminating losers once the unit settles; raced
    verdicts are additionally cached under the winning member's key so a
    warm single-backend run replays them.  Workers are spawned only for
    cache-missing units, so a fully warm-cache run spawns no processes.

    Worker deaths are *supervised*: a dead
    worker's unsettled slots are retried up to ``max_retries`` times
    with bounded exponential backoff.  A crash is classified transient
    when it is the unit's first, or when the worker streamed progress
    before dying; a unit that crashes twice in a row with no progress
    (a deterministic crash -- retrying would loop) or exhausts the
    retry budget is quarantined: its slots settle as ``error`` verdicts
    carrying ``retries``/``quarantined`` attribution.  Race members are
    exempt (a dead member just leaves the race, as before).
    """
    key_of: Dict[int, Optional[str]] = {}
    attrib: Dict[int, Tuple[str, str, str]] = {}
    waiters: Dict[int, List[Tuple[int, str, Term, TaskUnit]]] = {}
    owner_of_key: Dict[str, int] = {}
    pending: List[TaskUnit] = []
    # index -> (canonical smtlib text, encoding, budget) for portfolio
    # slots, so a raced verdict can be re-keyed under its winning member.
    portfolio_text: Dict[int, Tuple[str, str, Optional[int]]] = {}
    # Dedup waiters orphaned by a non-definitive owner verdict, waiting
    # to be re-queued as standalone tasks.
    retry_tasks: List[SolveTask] = []

    members_of: Dict[str, Optional[List[str]]] = {}

    def portfolio_of(spec: str) -> Optional[List[str]]:
        """Probed member specs of a portfolio spec (memoized), else None."""
        if spec not in members_of:
            members_of[spec] = portfolio_members(spec)
        return members_of[spec]

    for unit in units:
        is_batch = isinstance(unit, BatchTask)
        # Keying a non-pre-simplified formula costs a full
        # rewrite+simplify pass here in the parent; only pay it (and the
        # decode it needs) when a cache can actually replay the verdict.
        keyed = cache is not None or unit.pre_simplified
        if is_batch:
            formulas = unit.decode()[2] if keyed else [None] * len(unit.entries)
            slots = list(zip(unit.entries, formulas))
        else:
            slots = [(unit, unit.formula() if keyed else None)]
        kept = []
        for slot, formula in slots:
            index, label = slot.index, slot.label
            attrib[index] = (unit.structure, unit.method, label)
            if not keyed:
                key_of[index] = None
                kept.append(slot)
                continue
            text = formula_text(formula, canonical=unit.pre_simplified)
            key = key_for_text(
                text, unit.encoding, unit.conflict_budget, unit.backend_spec
            )
            key_of[index] = key
            if cache is not None and portfolio_of(unit.backend_spec):
                portfolio_text[index] = (text, unit.encoding, unit.conflict_budget)
            if cache is not None:
                record = cache.get(key)
                if record is not None:
                    yield TaskResult(
                        index=index,
                        label=label,
                        verdict=record["verdict"],
                        detail=record.get("detail", ""),
                        time_s=0.0,
                        cached=True,
                        deduped=key in cache.session_keys,
                    )
                    continue
            owner = owner_of_key.get(key)
            if owner is not None:
                # In-flight duplicate: solve the canonical formula once,
                # fan the verdict out when the owner's result lands.
                waiters.setdefault(owner, []).append((index, label, formula, unit))
                continue
            owner_of_key[key] = index
            kept.append(slot)
        if not kept:
            continue
        if is_batch and len(kept) < len(unit.entries):
            unit = replace(unit, entries=tuple(kept))
        pending.append(unit)

    def settle(res: TaskResult, fanout_all: bool = False) -> List[TaskResult]:
        """A landed result plus its dedup fan-out (cache written once).

        Only definitive verdicts fan out to waiters: a timeout/error
        owner's duplicates are re-queued as standalone tasks instead of
        inheriting the machine-dependent failure.  ``fanout_all`` forces
        the fan-out regardless (the bag-deadline path, where a re-queued
        waiter could never run anyway).
        """
        out = [res]
        key = key_of.get(res.index)
        definitive = res.verdict in _DEFINITIVE
        if cache is not None and key is not None and not res.cached:
            structure, method, label = attrib[res.index]
            cache.put(
                key,
                res.verdict,
                res.detail,
                label=label,
                structure=structure,
                method=method,
                time_s=res.time_s,
            )
            if definitive and res.winner is not None:
                # A raced verdict is also published under the winning
                # member's own key, so a warm single-backend run of that
                # member replays it without re-racing.
                meta = portfolio_text.get(res.index)
                if meta is not None:
                    text, encoding, budget = meta
                    cache.put(
                        key_for_text(text, encoding, budget, res.winner),
                        res.verdict,
                        res.detail,
                        label=label,
                        structure=structure,
                        method=method,
                        time_s=res.time_s,
                    )
        for w_ix, w_label, w_formula, w_unit in waiters.pop(res.index, ()):
            if definitive or fanout_all:
                out.append(
                    TaskResult(
                        index=w_ix,
                        label=w_label,
                        verdict=res.verdict,
                        detail=res.detail,
                        time_s=0.0,
                        deduped=True,
                        winner=res.winner,
                    )
                )
            else:
                retry_tasks.append(_waiter_task(w_unit, w_ix, w_label, w_formula))
        return out

    fault_plan = faults.active()
    in_process = (
        jobs <= 1
        and deadline_s is None
        and all(u.timeout_s is None for u in pending)
        # A race needs real concurrent workers to win and losers to
        # cancel, so portfolio units always take the process path.
        and not any(portfolio_of(u.backend_spec) for u in pending)
        # Worker-killing fault plans need a worker to kill.
        and not (fault_plan is not None and fault_plan.wants_worker_isolation())
    )
    if in_process:
        # Sequential fallback: identical to Verifier.verify's solve loop.
        for unit in pending:
            if isinstance(unit, BatchTask):
                for res in solve_batch(unit):
                    yield from settle(res)
            else:
                yield from settle(solve_one(unit))
        while retry_tasks:
            yield from settle(solve_one(retry_tasks.pop(0)))
        return

    queue: List[TaskUnit] = list(pending)
    running: List[_Running] = []
    # Crash-retried units parked until their backoff expires:
    # (not_before, unit) pairs drained back into the queue by the loop.
    delayed: List[Tuple[float, TaskUnit]] = []
    bag_deadline = (
        time.perf_counter() + deadline_s if deadline_s is not None else None
    )

    def spawn(unit: TaskUnit, race=None, member=None) -> _Running:
        parent_conn, child_conn = mp.Pipe(duplex=False)
        proc = mp.Process(target=_worker, args=(child_conn, unit), daemon=True)
        proc.start()
        child_conn.close()
        run = _Running(proc, parent_conn, unit, race=race, member=member)
        running.append(run)
        return run

    def launch(unit: TaskUnit) -> None:
        members = portfolio_of(unit.backend_spec)
        if not members:
            spawn(unit)
            return
        # Portfolio: race one worker per member backend on the same unit
        # (each member occupies a worker slot while the race lasts).
        race = _Race(unit)
        for member in members:
            race.runs.append(
                spawn(replace(unit, backend_spec=member), race=race, member=member)
            )

    def retire(run: _Running) -> None:
        """Terminate/join one worker and close its pipe (idempotent)."""
        if not run.active:
            return
        run.active = False
        if run.proc.is_alive():
            run.proc.terminate()
        run.proc.join()
        try:
            run.conn.close()
        except OSError:
            pass

    def deliver(run: _Running, msg: TaskResult) -> List[TaskResult]:
        """Route one worker message: plain units settle directly; race
        members settle a slot only on its first definitive verdict."""
        run.remaining.pop(msg.index, None)
        run.delivered += 1
        race = run.race
        if race is None:
            if run.unit.attempt and not msg.retries:
                msg.retries = run.unit.attempt
            return settle(msg)
        if msg.index not in race.remaining:
            return []  # a sibling already won this slot
        if msg.verdict in _DEFINITIVE:
            del race.remaining[msg.index]
            msg.winner = run.member
            out = settle(msg)
            if not race.remaining:
                # Last slot settled: cancel the losers promptly.
                for sib in race.runs:
                    retire(sib)
            return out
        # Error/unknown from one member falls through to the others.
        race.fallback.setdefault(msg.index, msg)
        return race_sweep(race, time.perf_counter())

    def drain(run: _Running) -> List[TaskResult]:
        """Deliver whatever results already sit in a run's pipe.  The
        worker may be dead or about to be killed -- verdicts it streamed
        are real (and cacheable) and must not be discarded."""
        out: List[TaskResult] = []
        try:
            while run.conn.poll():
                msg = run.conn.recv()
                if msg is None:
                    break
                out.extend(deliver(run, msg))
                if not run.active:
                    break
        except (EOFError, OSError):
            pass
        return out

    def race_sweep(race: _Race, now: float) -> List[TaskResult]:
        """Settle race slots that no live member can still answer."""
        out: List[TaskResult] = []
        alive = [r for r in race.runs if r.active]
        for ix in list(race.remaining):
            if any(ix in r.remaining for r in alive):
                continue
            label = race.remaining.pop(ix)
            res = race.fallback.get(ix)
            if res is None:
                res = TaskResult(
                    ix,
                    label,
                    "error",
                    "every portfolio member ended without a verdict",
                    time_s=now - race.started,
                )
            out.extend(settle(res))
        if not race.remaining:
            for sib in race.runs:
                retire(sib)
        return out

    def fail_slots(
        group, verdict: str, detail: str, now: float, fanout_all: bool = False, **extra
    ) -> List[TaskResult]:
        """Settle every unsettled slot of a worker or race ``group`` with
        one failure verdict (``extra`` is TaskResult attribution)."""
        out: List[TaskResult] = []
        for ix, label in group.remaining.items():
            res = TaskResult(
                ix, label, verdict, detail, time_s=now - group.started, **extra
            )
            out.extend(settle(res, fanout_all=fanout_all))
        group.remaining.clear()
        return out

    def expire(group, now: float) -> List[TaskResult]:
        """A worker's or race's budget bank ran out (its workers are
        already drained and retired).  Only the entry being solved when
        the bank ran out actually timed out; a batch's never-attempted
        rest is re-queued as standalone tasks with fresh budgets (the
        bag deadline still bounds the whole method)."""
        detail = f"budget {group.unit.timeout_s:g}s"
        if isinstance(group.unit, BatchTask) and len(group.remaining) > 1:
            in_flight = next(iter(group.remaining))
            label = group.remaining.pop(in_flight)
            queue.extend(_requeue_singles(group.unit, group.remaining))
            group.remaining.clear()
            return settle(
                TaskResult(
                    in_flight, label, "timeout", detail, time_s=now - group.started
                )
            )
        return fail_slots(group, "timeout", detail, now)

    def crash_retry(run: _Running, now: float, detail: str) -> List[TaskResult]:
        """Supervised retry for a dead worker's unsettled slots.

        Transient crashes (the unit's first, or a death after streamed
        progress) respawn the remainder after a bounded exponential
        backoff; a unit that crashes twice in a row with no progress,
        or exhausts ``max_retries``, is quarantined: retrying a
        deterministic crash would loop forever.
        """
        if not run.remaining:
            return []
        unit = run.unit
        progressed = run.delivered > 0
        streak = 1 if progressed else unit.crash_streak + 1
        total = unit.attempt + 1
        if streak >= 2 or total > max_retries:
            why = (
                "crashed repeatedly with no progress"
                if streak >= 2
                else f"retry budget ({max_retries}) exhausted"
            )
            return fail_slots(
                run,
                "error",
                f"quarantined after {total} worker crash(es), {why}: {detail}",
                now,
                retries=unit.attempt,
                quarantined=True,
            )
        backoff = min(_BACKOFF_BASE_S * (2 ** unit.attempt), _BACKOFF_CAP_S)
        if isinstance(unit, BatchTask) and len(run.remaining) < len(unit.entries):
            # Partial progress: only the unsettled entries come back, as
            # standalone tasks (the shared-prefix context died with the
            # worker anyway).
            retry_units: List[TaskUnit] = [
                replace(t, attempt=total, crash_streak=streak)
                for t in _requeue_singles(unit, run.remaining)
            ]
        else:
            retry_units = [replace(unit, attempt=total, crash_streak=streak)]
        run.remaining.clear()
        for retry_unit in retry_units:
            delayed.append((now + backoff, retry_unit))
        return []

    def bury(run: _Running, now: float) -> List[TaskResult]:
        """A worker died: a race member just leaves its race; a plain
        unit's unsettled slots go to the supervised retry."""
        retire(run)
        if run.race is not None:
            return race_sweep(run.race, now)
        return crash_retry(
            run, now, f"worker died (exitcode {run.proc.exitcode})"
        )

    try:
        while queue or running or retry_tasks or delayed:
            if delayed:
                now0 = time.perf_counter()
                due = [u for t, u in delayed if t <= now0]
                if due:
                    delayed[:] = [(t, u) for t, u in delayed if t > now0]
                    queue.extend(due)
            if retry_tasks:
                # Orphaned dedup waiters go back into the bag standalone.
                queue.extend(retry_tasks)
                del retry_tasks[:]
            if bag_deadline is not None and time.perf_counter() > bag_deadline:
                detail = f"method budget {deadline_s:g}s"
                # Queued units, and crash-retried units still waiting out
                # their backoff, have no budget left.
                for unit in queue + [u for _not_before, u in delayed]:
                    for ix, label in _unit_slots(unit):
                        yield from settle(
                            TaskResult(ix, label, "timeout", detail), fanout_all=True
                        )
                queue.clear()
                del delayed[:]
                # Workers may have streamed verdicts the parent has not
                # received yet.  Those are real -- drain every pipe (as
                # the dead-worker path does) before terminating, so they
                # are reported and cached instead of misreported as
                # timeouts.
                for run in running:
                    if run.active:
                        yield from drain(run)
                # Draining may have orphaned dedup waiters (their owner
                # streamed a non-definitive verdict); there is no budget
                # left to re-run them, so they time out here.
                for t in retry_tasks:
                    yield from settle(
                        TaskResult(t.index, t.label, "timeout", detail),
                        fanout_all=True,
                    )
                del retry_tasks[:]
                now = time.perf_counter()
                groups = {id(r.race or r): r.race or r for r in running}
                for group in groups.values():
                    yield from fail_slots(
                        group, "timeout", detail, now, fanout_all=True
                    )
                for run in running:
                    retire(run)
                running = []
                break
            while queue and len(running) < max(1, jobs):
                launch(queue.pop(0))
            ready = conn_wait(
                [r.conn for r in running if r.active], timeout=_POLL_S
            )
            now = time.perf_counter()
            for run in running:
                if not run.active:
                    continue  # retired mid-pass (e.g. a race sibling won)
                finished = died = False
                if run.conn in ready:
                    try:
                        while True:
                            msg = run.conn.recv()
                            if msg is None:
                                finished = True
                                break
                            yield from deliver(run, msg)
                            if not run.active or not run.conn.poll():
                                break
                    except (EOFError, OSError):
                        died = True
                if not run.active:
                    continue
                # A race shares one summed timeout bank across its
                # members (their own deadline is None); a plain unit
                # carries its own.
                group = run.race or run
                if died:
                    yield from bury(run, now)
                elif finished:
                    retire(run)
                    if run.race is not None:
                        # A member ending early just leaves the race.
                        yield from race_sweep(run.race, now)
                    else:
                        # Defensive: a sentinel without all results errors the gap.
                        yield from fail_slots(
                            run, "error", "worker ended without result", now
                        )
                elif group.deadline is not None and now > group.deadline:
                    # Budget expiry.  Drain every member's pipe first
                    # (streamed verdicts survive the kill), then kill the
                    # group and split in-flight from never-attempted.
                    members = run.race.runs if run.race is not None else [run]
                    for member in members:
                        if member.active:
                            yield from drain(member)
                    for member in members:
                        retire(member)
                    yield from expire(group, now)
                elif not run.proc.is_alive():
                    # The worker exited but conn_wait did not surface the
                    # pipe (or it held nothing): drain any results that
                    # made it out, then report the death for the rest.
                    # (An exited worker's pipe polls ready on EOF too, so
                    # ``poll()`` alone cannot prove results are pending.)
                    yield from drain(run)
                    if run.active:
                        yield from bury(run, now)
            running = [r for r in running if r.active]
    finally:
        for run in running:
            retire(run)
