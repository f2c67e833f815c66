"""Command-line entry point: ``python -m repro`` (or the ``repro`` script).

Subcommands:

- ``repro list``    -- show the structure/method registry
- ``repro lint``    -- run the multi-pass static analyzer (no solver):
  structured diagnostics with stable codes (``WB001``, ``GHOST002``,
  ``FLOW005``, ...), ``--format json`` for machine consumption,
  ``--fail-on`` severity gating
- ``repro verify``  -- verify methods through the session engine
  (``--format json`` for the structured result schema, ``--events PATH``
  to stream typed per-VC events as JSON Lines)
- ``repro bench``   -- regenerate the paper's tables with a machine-readable
  ``bench_results.json`` report (schema v8); ``--db PATH`` appends the
  run to a bench trajectory database (``benchmarks/db.py``)
- ``repro serve``   -- the verification-as-a-service daemon: stdlib-only
  HTTP with blocking (``POST /v1/verify``) and streamed-JSONL
  (``POST /v1/verify/stream``) verdicts, an admission-controlled
  request queue, per-client solve-time budgets (``X-Client-Id``), and
  one shared hot-cache session across tenants (see ``repro.service``)
- ``repro cache``   -- cache lifecycle: ``stats`` (per-tier entry
  counts/bytes/hit rates), ``gc`` (age/LRU sweep under ``--cache-max-mb``
  / ``--cache-max-age-days`` budgets), ``verify`` (validate every entry,
  purge poison)

Examples::

    repro lint --all --format json
    repro lint --structure "Singly-Linked List" --fail-on warning
    repro verify --all --jobs 4 --cache-dir .vc-cache
    repro verify --structure "Binary Search Tree" --method bst_insert
    repro verify --method sll_find --format json --events events.jsonl
    repro bench --suite table2 --budget 10 --limit 3 --output bench_results.json
    repro bench --method sll_find --db bench_trajectory.db
    repro serve --port 8765 --cache-dir .vc-cache --max-inflight 2 \\
        --max-queue 16 --client-budget-s 30
    repro lint --explain GHOST002
    repro cache stats --cache-dir .vc-cache --format json
    repro cache gc --cache-dir .vc-cache --cache-max-mb 256

Exit-code contract (tested in ``tests/test_session.py``):

- **0** -- every selected method verified;
- **1** -- at least one method was refuted or ran out of budget
  (verification *failed*, meaningfully);
- **2** -- usage error: unknown selection, unknown backend, bad flags;
- **3** -- internal error: a solver error verdict, a crashed worker, or
  a crash in VC generation (the run itself is untrustworthy).

``repro lint`` reuses the same numbers with its own meanings (tested in
``tests/test_lint.py``): **0** -- no finding at or above the
``--fail-on`` severity threshold (default ``error``); **1** -- at least
one finding at/above the threshold; **2** -- usage error; **3** -- the
analyzer itself crashed.

Carve-outs: ``bench`` without ``--check`` returns 0 when the only
failures are budget timeouts (a partial table is still a successful
bench run); ``--check`` promotes any shortfall to exit 1.  The rq3
suite's *quantified* column is experimental data, not a gate: the
quantified baseline refusing to verify is the result the suite exists
to demonstrate, so only crashes there (exit 3) affect the code, never
its refutations.  Decidable-column refutations and internal errors are
nonzero regardless.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import List, Optional, Tuple

from .engine import VerificationResult, VerificationSession
from .engine.backends import BackendError, available_backends
from .engine.faults import FaultSpecError
from .engine.faults import install as install_faults
from .engine.journal import JournalReplay
from .engine.session import VerificationRequest
from .structures.registry import EXPERIMENTS, Experiment, method_sizes

__all__ = ["main"]

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

class SelectionError(ValueError):
    """A ``--structure``/``--method`` name matched nothing in the registry."""


def _select(
    structure: Optional[str], methods: List[str], all_: bool
) -> List[Tuple[Experiment, str]]:
    """Resolve the CLI selection; unmatched names are an error, not a
    silently smaller run (``--method bst_insert --method tyop`` must not
    quietly verify only ``bst_insert``)."""
    chosen: List[Tuple[Experiment, str]] = []
    matched_methods = set()
    structure_seen = False
    for exp in EXPERIMENTS:
        if structure and exp.structure != structure:
            continue
        structure_seen = True
        for m in exp.methods:
            if methods and m not in methods:
                continue
            matched_methods.add(m)
            chosen.append((exp, m))
    problems = []
    if structure and not structure_seen:
        known = ", ".join(sorted(e.structure for e in EXPERIMENTS))
        problems.append(f"unknown structure {structure!r} (known: {known})")
    unmatched = [m for m in methods if m not in matched_methods]
    if unmatched:
        problems.append(
            "unknown method(s): " + ", ".join(repr(m) for m in unmatched)
            + " (see `repro list`)"
        )
    if problems:
        raise SelectionError("; ".join(problems))
    if not all_ and not structure and not methods:
        return []
    return chosen


def _session_from_args(
    args,
    timeout_s: Optional[float] = None,
    method_budget_s: Optional[float] = None,
    encoding: Optional[str] = None,
    diagnostics: bool = True,
    resume: Optional[JournalReplay] = None,
) -> VerificationSession:
    # Install the fault plan before the session touches any fault site;
    # a bad spec is a usage error (FaultSpecError) handled by callers.
    install_faults(getattr(args, "faults", None))
    return VerificationSession(
        jobs=args.jobs,
        backend=args.backend,
        cache_dir=args.cache_dir,
        timeout_s=timeout_s if timeout_s is not None else args.timeout,
        method_budget_s=method_budget_s,
        encoding=encoding or getattr(args, "encoding", "decidable"),
        conflict_budget=args.conflict_budget,
        simplify=args.simplify,
        batch=args.batch,
        batch_size=args.batch_size,
        batch_node_limit=args.batch_node_limit,
        diagnostics=diagnostics,
        plan_cache=args.plan_cache,
        cache_max_mb=args.cache_max_mb,
        cache_max_age_days=args.cache_max_age_days,
        max_retries=getattr(args, "max_retries", 2),
        journal=getattr(args, "journal", True),
        resume=resume,
    )


def _status(result) -> str:
    if result.ok:
        return "verified"
    if result.timeouts:
        return "budget"
    return "FAILED"


def _crash_result(exp: Experiment, method: str, exc: Exception, session, start: float):
    return VerificationResult(
        structure=exp.structure,
        method=method,
        encoding=session.encoding,
        ok=False,
        n_vcs=0,
        verdicts=[],
        failed=[f"{method}: {type(exc).__name__}: {exc}"],
        notes=[],
        wb_ok=True,
        ghost_ok=True,
        time_s=time.perf_counter() - start,
        jobs=session.jobs,
        errors=1,
    )


def _safe_verify(
    session: VerificationSession,
    exp: Experiment,
    method: str,
    events_sink=None,
    timeout_s: Optional[float] = None,
    method_budget_s: Optional[float] = None,
):
    """Verify one method; a crash (e.g. in VC generation) becomes an
    ``error:`` row instead of killing the whole run, like the historical
    table2 harness.  ``events_sink`` receives each VcEvent as it lands
    (the ``--events`` JSONL stream and the service's stream endpoint);
    ``timeout_s``/``method_budget_s`` are per-request budget overrides
    (the service's, taking precedence over the session defaults)."""
    start = time.perf_counter()
    try:
        run = session.submit(
            VerificationRequest(
                exp.program_factory(),
                exp.ids_factory(),
                method,
                timeout_s=timeout_s,
                method_budget_s=method_budget_s,
            )
        )
        for event in run:
            if events_sink is not None:
                events_sink(event)
        result = run.results()[0]
        return result, _status(result)
    except Exception as e:  # noqa: BLE001 - report, don't crash the table
        result = _crash_result(exp, method, e, session, start)
        return result, f"error: {type(e).__name__}"


def _exit_code(rows) -> int:
    """The documented exit-code contract over a run's rows.

    ``rows`` yield (result, status) pairs; internal errors dominate
    refutations, refutations dominate success.
    """
    code = EXIT_VERIFIED
    for result, status in rows:
        if status.startswith("error:") or result.errors:
            return EXIT_INTERNAL
        if status != "verified":
            code = EXIT_REFUTED
    return code


class _EventWriter:
    """JSON Lines event sink for ``--events PATH`` (``-`` = stdout)."""

    def __init__(self, path: str):
        self.path = path
        self._cm = (
            nullcontext(sys.stdout)
            if path == "-"
            else open(path, "w", encoding="utf-8")
        )
        self.handle = None

    def __enter__(self):
        self.handle = self._cm.__enter__()
        return self

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)

    def __call__(self, event) -> None:
        json.dump(event.to_json(), self.handle, separators=(",", ":"))
        self.handle.write("\n")
        self.handle.flush()


# -- repro list --------------------------------------------------------------


def cmd_list(args) -> int:
    for exp in EXPERIMENTS:
        print(exp.structure)
        for m in exp.methods:
            print(f"  {m}")
    print(f"\n{sum(len(e.methods) for e in EXPERIMENTS)} methods, "
          f"backends: {', '.join(available_backends())}")
    return 0


# -- repro lint --------------------------------------------------------------


def cmd_lint(args) -> int:
    from .analysis import lint_program

    if args.explain:
        from .analysis.diagnostics import CODES, explain_code

        code = args.explain
        if code not in CODES:
            known = ", ".join(sorted(CODES))
            print(f"lint: unknown diagnostic code {code!r} (known: {known})",
                  file=sys.stderr)
            return EXIT_USAGE
        print(explain_code(code))
        return EXIT_VERIFIED

    try:
        chosen = _select(args.structure, args.method, args.all)
    except SelectionError as e:
        print(f"selection error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if not chosen:
        print("nothing selected: pass --all, --structure or --method", file=sys.stderr)
        return EXIT_USAGE

    # Group the selection per experiment so structure-level checks (LC /
    # impact templates, unused ghost fields) run once per structure.
    by_structure: dict = {}
    for exp, m in chosen:
        by_structure.setdefault(exp.structure, (exp, []))[1].append(m)

    start = time.perf_counter()
    findings = []
    try:
        for _structure, (exp, methods) in by_structure.items():
            findings.extend(
                lint_program(
                    exp.program_factory(),
                    exp.ids_factory(),
                    methods=methods,
                    structure=exp.structure,
                )
            )
    except Exception as e:  # noqa: BLE001 - analyzer crash is exit 3
        print(f"lint internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    findings.sort(key=lambda d: d.sort_key)
    wall = time.perf_counter() - start

    from .analysis import SEVERITIES

    counts = {sev: 0 for sev in SEVERITIES}
    for d in findings:
        counts[d.severity] += 1

    if args.format == "json":
        json.dump(
            {
                "schema_version": 8,
                "command": "lint",
                "fail_on": args.fail_on,
                "wall_s": round(wall, 3),
                "n_methods": len(chosen),
                "n_findings": len(findings),
                "severity_counts": counts,
                "findings": [d.to_json() for d in findings],
            },
            sys.stdout,
            indent=2,
        )
        sys.stdout.write("\n")
    else:
        for d in findings:
            where = f"{d.structure}." if d.structure else ""
            print(f"{where}{d.render()}")
        print(
            f"\n{len(findings)} finding(s) "
            f"({counts['error']} errors, {counts['warning']} warnings, "
            f"{counts['info']} infos) over {len(chosen)} method(s) "
            f"in {wall:.2f}s"
        )

    if args.fail_on == "never":
        return EXIT_VERIFIED
    threshold = SEVERITIES.index(args.fail_on)
    if any(SEVERITIES.index(d.severity) <= threshold for d in findings):
        return EXIT_REFUTED
    return EXIT_VERIFIED


# -- repro verify ------------------------------------------------------------


def _sigterm_to_interrupt(_signum, _frame):
    raise KeyboardInterrupt


def cmd_verify(args) -> int:
    # A polite SIGTERM gets the same clean unwind as Ctrl-C: the
    # KeyboardInterrupt runs every finally on the way out (workers
    # reaped, journal flushed, session lock released) and main() maps
    # it to exit 130 -- never exit 3, the interrupt is not an internal
    # error.  The previous disposition is restored on the way out, so
    # embedded callers (tests driving main() in-process) do not keep
    # the handler.  Solver workers reset SIGTERM to the default on
    # entry, so the scheduler's terminate() still kills them quietly.
    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    except ValueError:
        pass  # not the main thread (embedded use, e.g. the service)
    try:
        return _cmd_verify(args)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _cmd_verify(args) -> int:
    try:
        chosen = _select(args.structure, args.method, args.all)
    except SelectionError as e:
        print(f"selection error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if not chosen:
        print("nothing selected: pass --all, --structure or --method", file=sys.stderr)
        return EXIT_USAGE
    resume = None
    if args.resume:
        if not args.cache_dir:
            print("--resume needs --cache-dir (journals live under it)",
                  file=sys.stderr)
            return EXIT_USAGE
        try:
            resume = JournalReplay.load(args.cache_dir, args.resume)
        except (FileNotFoundError, ValueError) as e:
            print(f"resume error: {e}", file=sys.stderr)
            return EXIT_USAGE
    try:
        session = _session_from_args(args, resume=resume)
    except BackendError as e:
        print(f"backend error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FaultSpecError as e:
        print(f"faults error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:  # resume config mismatch
        print(f"resume error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if resume is not None:
        print(
            f"resume: run {resume.run_id} replays {resume.n_slots} settled "
            f"slot(s)"
            + (f", {resume.skipped_lines} damaged line(s) skipped"
               if resume.skipped_lines else ""),
            file=sys.stderr,
        )
    if session.run_journal is not None:
        print(
            f"journal: run {session.run_journal.run_id} "
            f"({session.run_journal.path})",
            file=sys.stderr,
        )

    events_on_stdout = args.events == "-"
    if events_on_stdout and args.format == "json":
        print(
            "--events - and --format json both claim stdout; "
            "write one of them to a file",
            file=sys.stderr,
        )
        return EXIT_USAGE
    text_mode = args.format == "text"
    # Keep stdout pure: it carries exactly one machine surface -- the
    # event stream (--events -), the json document (--format json), or
    # the human rows (text) -- everything else goes to stderr.
    out = sys.stdout if text_mode and not events_on_stdout else sys.stderr
    start = time.perf_counter()
    rows = []
    try:
        sink_cm = _EventWriter(args.events) if args.events else nullcontext(None)
    except OSError as e:
        print(f"cannot open --events {args.events}: {e}", file=sys.stderr)
        return EXIT_USAGE
    with sink_cm as sink, session:
        for exp, m in chosen:
            result, status = _safe_verify(session, exp, m, events_sink=sink)
            rows.append((exp.structure, m, result, status))
            if not args.quiet:
                print(
                    f"{exp.structure:36s} {m:26s} {result.n_vcs:4d} VCs "
                    f"{result.time_s:7.2f}s  hits={result.cache_hits:<4d} {status}",
                    file=out,
                )
                if text_mode and not result.ok:
                    for diag in result.diagnostics:
                        print("  " + diag.render().replace("\n", "\n  "), file=out)
    wall = time.perf_counter() - start
    ok = sum(1 for *_x, s in rows if s == "verified")
    print(
        f"\n{ok}/{len(rows)} methods verified "
        f"(jobs={session.jobs}, backend={session.backend_spec}, wall={wall:.1f}s)",
        file=out,
    )
    if args.format == "json":
        json.dump(_verify_doc(args, rows, wall), sys.stdout, indent=2)
        sys.stdout.write("\n")
    if args.json:
        _dump_json(args.json, "verify", args, rows, wall)
        print(f"wrote {args.json}", file=out)
    return _exit_code((result, status) for _s, _m, result, status in rows)


def _verify_doc(args, rows, wall) -> dict:
    """The ``verify --format json`` document: structured session results."""
    return {
        "schema_version": 8,
        "command": "verify",
        "jobs": args.jobs,
        "backend": args.backend,
        "simplify": args.simplify,
        "batch": args.batch,
        "wall_s": round(wall, 3),
        "n_methods": len(rows),
        "n_verified": sum(1 for *_x, s in rows if s == "verified"),
        "results": [
            dict(result.to_json(), status=status)
            for _structure, _m, result, status in rows
        ],
    }


# -- repro bench -------------------------------------------------------------


def cmd_bench(args) -> int:
    budget = args.budget
    if budget is None:
        budget = float(os.environ.get("REPRO_BENCH_BUDGET_S", "120"))
    try:
        # The budget bounds each VC *and* each method's total wall clock,
        # matching the historical per-method SIGALRM semantics portably.
        # Diagnostics stay off: bench rows are timings, and re-deriving
        # countermodels for the suite's known-failing methods would bill
        # their methods twice.
        session = _session_from_args(
            args, timeout_s=budget, method_budget_s=budget, diagnostics=False
        )
    except BackendError as e:
        print(f"backend error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FaultSpecError as e:
        print(f"faults error: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        chosen = _select(args.structure, args.method, True)
    except SelectionError as e:
        print(f"selection error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.limit:
        chosen = chosen[: args.limit]

    rows = []
    wall_start = time.perf_counter()
    # Sessions are closed (ExitStack) so the lifecycle sweep hook runs
    # when --cache-max-mb / --cache-max-age-days budgets are set.
    with ExitStack() as stack:
        stack.enter_context(session)
        if args.suite == "table2":
            for exp, m in chosen:
                lc, loc, spec, ann = method_sizes(exp, m)
                result, status = _safe_verify(session, exp, m)
                rows.append((exp.structure, m, result, status, (lc, loc, spec, ann)))
                shrink = f"  shrink={result.shrink_pct:4.1f}%" if result.simplify else ""
                plan_note = f" plan={result.plan_s:.2f}s" + ("*" if result.plan_cached else "")
                print(
                    f"{exp.structure:36s} {m:26s} {result.n_vcs:4d} VCs "
                    f"{result.time_s:7.2f}s{plan_note}  hits={result.cache_hits:<4d} "
                    f"{status}{shrink}"
                )
        else:  # rq3
            quant_session = _session_from_args(
                args,
                timeout_s=budget,
                method_budget_s=budget,
                encoding="quantified",
                diagnostics=False,
            )
            stack.enter_context(quant_session)
            for exp, m in chosen:
                dec, dec_status = _safe_verify(session, exp, m)
                quant, quant_status = _safe_verify(quant_session, exp, m)
                # Keep _safe_verify's status verbatim: recomputing it via
                # _status() would relabel a crash ("error: X") as a plain
                # FAILED and defeat the crash gate below.
                rows.append((exp.structure, m, dec, dec_status, None, quant, quant_status))
                print(
                    f"{m:26s} decidable {dec.time_s:7.2f}s {dec_status:8s} "
                    f"quantified {quant.time_s:7.2f}s {quant_status}"
                )
        wall = time.perf_counter() - wall_start
    verified = sum(1 for row in rows if row[3] == "verified")
    print(f"\n{verified}/{len(rows)} methods verified (budget={budget:g}s/VC, "
          f"jobs={session.jobs}, wall={wall:.1f}s)")

    # Aggregate over every session the suite used (rq3 plans each method
    # through both the decidable and the quantified session).
    sessions = [session]
    if args.suite == "rq3":
        sessions.append(quant_session)
    caches = [s.plan_cache for s in sessions if s.plan_cache is not None]
    plan_cache_stats = {
        "enabled": bool(caches),
        "hits": sum(c.hits for c in caches),
        "misses": sum(c.misses for c in caches),
    }
    out = args.output or "bench_results.json"
    doc = _dump_json(out, args.suite, args, rows, wall, budget=budget,
                     plan_cache_stats=plan_cache_stats)
    print(f"wrote {out}")
    if args.db:
        from .engine.benchdb import BenchDB

        with BenchDB(args.db) as db:
            run_id = db.ingest(
                doc, commit=args.db_commit or _detect_commit(), label=args.db_label
            )
        print(f"recorded run {run_id} in {args.db}")
    if any(
        row[3].startswith("error:") or row[2].errors
        or (len(row) > 6 and (row[6].startswith("error:") or row[5].errors))
        for row in rows
    ):
        return EXIT_INTERNAL  # crashes are never an acceptable bench outcome
    if args.check and verified != len(rows):
        print(f"--check: only {verified}/{len(rows)} methods verified", file=sys.stderr)
        return EXIT_REFUTED
    # Without --check a partial table is still a *successful bench*
    # unless a method actually refuted (status FAILED, not budget).
    # Only the decidable column gates: a refuted *quantified* baseline
    # is the rq3 suite's expected experimental outcome, not a failure.
    if any(row[3] == "FAILED" for row in rows):
        return EXIT_REFUTED
    return EXIT_VERIFIED


def _detect_commit() -> str:
    """Best-effort commit stamp for ``bench --db``: CI env, then git."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _cache_block(cache_dir) -> dict:
    """The schema-v6 ``cache`` lifecycle block: per-tier entry counts,
    byte totals and cumulative hit rates from the access index."""
    if not cache_dir:
        return {"enabled": False}
    from .engine.cachectl import cache_stats

    return {"enabled": True, "tiers": cache_stats(cache_dir)}


def _dump_json(path, suite, args, rows, wall, budget=None, plan_cache_stats=None) -> dict:
    results = []
    for row in rows:
        structure, m, report, status = row[0], row[1], row[2], row[3]
        entry = {
            "structure": structure,
            "method": m,
            "status": status,
            "ok": report.ok,
            "n_vcs": report.n_vcs,
            "time_s": round(report.time_s, 4),
            "plan_s": round(report.plan_s, 4),
            "simplify_s": round(report.simplify_s, 4),
            "solve_s": round(report.solve_s, 4),
            "plan_cached": report.plan_cached,
            "cache_hits": report.cache_hits,
            "dedup_hits": report.dedup_hits,
            "timeouts": report.timeouts,
            "errors": report.errors,
            # Robustness attribution (schema v8): total supervised worker
            # retries behind this row, and how many VCs were quarantined
            # to an error verdict after exhausting the retry policy.
            "retries": report.retries,
            "quarantined": report.quarantined,
            "encoding": report.encoding,
            "failed": report.failed,
            # Per-VC event-kind counts of this method's session stream
            # (schema v4): planned == n_vcs, and the terminal kinds
            # (cache_hit/dedup/solved/timeout/error) partition the VCs.
            "events": dict(report.event_counts),
        }
        if report.simplify:
            entry["simplify"] = {
                "nodes_before": report.nodes_before,
                "nodes_after": report.nodes_after,
                "shrink_pct": round(report.shrink_pct, 2),
            }
        # Portfolio race attribution (schema v7): per-member win counts
        # for methods solved under a ``portfolio:`` backend spec.
        if report.portfolio_wins:
            entry["portfolio"] = {"wins": dict(report.portfolio_wins)}
        if len(row) > 4 and row[4] is not None:
            lc, loc, spec, ann = row[4]
            entry.update({"lc_size": lc, "loc": loc, "spec": spec, "ann": ann})
        if len(row) > 5:
            quant = row[5]
            entry["quantified"] = {
                "ok": quant.ok,
                "time_s": round(quant.time_s, 4),
                "status": row[6] if len(row) > 6 else _status(quant),
            }
        results.append(entry)
    n_vcs_total = sum(r["n_vcs"] for r in results)
    dedup_total = sum(r["dedup_hits"] for r in results)
    event_totals: dict = {}
    for r in results:
        for kind, count in r["events"].items():
            event_totals[kind] = event_totals.get(kind, 0) + count
    doc = {
        "schema_version": 8,
        "suite": suite,
        "jobs": args.jobs,
        "backend": args.backend,
        "simplify": args.simplify,
        "batch": getattr(args, "batch", True),
        "batch_size": getattr(args, "batch_size", None),
        "budget_s": budget,
        "cache_dir": args.cache_dir,
        "python": platform.python_version(),
        "wall_s": round(wall, 3),
        "n_methods": len(results),
        "n_verified": sum(1 for r in results if r["status"] == "verified"),
        # Cross-method/in-flight dedup: VCs whose canonical formula was
        # already decided elsewhere in this run and replayed, not re-solved.
        "n_vcs_total": n_vcs_total,
        "dedup_hits_total": dedup_total,
        "dedup_rate": round(dedup_total / n_vcs_total, 4) if n_vcs_total else 0.0,
        "event_totals": event_totals,
        # Persistent plan-cache effectiveness for this run (hits are
        # methods whose plan+simplify phase was replayed from disk).
        "plan_cache": plan_cache_stats
        or {"enabled": False, "hits": 0, "misses": 0},
        # Cache lifecycle stats (schema v6): per-tier entry counts,
        # bytes and cumulative hit rates of the cache dir's tiers.
        "cache": _cache_block(args.cache_dir),
        "results": results,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
    return doc


# -- repro serve -------------------------------------------------------------


def cmd_serve(args) -> int:
    from .service.server import ServeConfig, run_server

    try:
        session = _session_from_args(args)
    except BackendError as e:
        print(f"backend error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FaultSpecError as e:
        print(f"faults error: {e}", file=sys.stderr)
        return EXIT_USAGE
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        client_budget_s=args.client_budget_s,
        budget_window_s=args.budget_window_s,
        queue_timeout_s=args.queue_timeout_s,
        drain_timeout_s=args.drain_timeout_s,
        quiet=args.quiet,
    )
    return run_server(session, config)


# -- repro cache -------------------------------------------------------------


def _cache_root(args) -> Optional[Path]:
    root = Path(args.cache_dir)
    if not root.is_dir():
        print(f"cache: no such cache dir: {args.cache_dir}", file=sys.stderr)
        return None
    return root


def cmd_cache_stats(args) -> int:
    from .engine.cachectl import cache_stats

    root = _cache_root(args)
    if root is None:
        return EXIT_USAGE
    tiers = cache_stats(root)
    if args.format == "json":
        json.dump({"cache_dir": str(root), "tiers": tiers}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_VERIFIED
    print(f"{'tier':6s} {'entries':>8s} {'bytes':>12s} {'hits':>8s} "
          f"{'misses':>8s} {'hit rate':>9s}")
    for name, stats in tiers.items():
        print(f"{name:6s} {stats['entries']:8d} {stats['bytes']:12d} "
              f"{stats['hits']:8d} {stats['misses']:8d} {stats['hit_rate']:9.1%}")
    total = sum(s["bytes"] for s in tiers.values())
    print(f"\ntotal {total / (1024 * 1024):.2f} MiB in {root}")
    return EXIT_VERIFIED


def cmd_cache_gc(args) -> int:
    from .engine.cachectl import sweep

    root = _cache_root(args)
    if root is None:
        return EXIT_USAGE
    if args.cache_max_mb is None and args.cache_max_age_days is None:
        print("cache gc: pass --cache-max-mb and/or --cache-max-age-days",
              file=sys.stderr)
        return EXIT_USAGE
    report = sweep(
        root,
        max_mb=args.cache_max_mb,
        max_age_days=args.cache_max_age_days,
        protect_s=args.protect_minutes * 60.0,
        dry_run=args.dry_run,
    )
    if args.format == "json":
        json.dump(report.to_json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_VERIFIED
    verb = "would evict" if args.dry_run else "evicted"
    print(f"cache gc: {verb} {report.evicted}/{report.examined} entries "
          f"({report.evicted_bytes / (1024 * 1024):.2f} MiB), "
          f"{report.bytes_before / (1024 * 1024):.2f} -> "
          f"{report.bytes_after / (1024 * 1024):.2f} MiB"
          + (f", {report.protected} protected kept" if report.protected else ""))
    return EXIT_VERIFIED


def cmd_cache_verify(args) -> int:
    from .engine.cachectl import verify_caches

    root = _cache_root(args)
    if root is None:
        return EXIT_USAGE
    report = verify_caches(root)
    if args.format == "json":
        json.dump(report.to_json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_VERIFIED
    print(f"cache verify: {report.entries} valid entries, "
          f"{report.poison} poison purged, {report.stale_index} stale index "
          f"rows dropped, {report.unindexed} entries (re)indexed")
    return EXIT_VERIFIED


# -- argument parsing --------------------------------------------------------


def _add_engine_args(p: argparse.ArgumentParser, selection: bool = True) -> None:
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes for VC solving (default 1)")
    p.add_argument("--backend", default="intree",
                   help="solver backend spec: intree | smtlib2[:CMD] | "
                        "crosscheck:A,B | portfolio:A,B[,...] (portfolio "
                        "races the members per VC, first definitive verdict "
                        "wins; default intree)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent VC verdict cache directory (also hosts "
                        "the plan cache under <dir>/plan)")
    p.add_argument("--plan-cache", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="persistently cache finished method plans (simplified "
                        "VC formulas + substitution logs) keyed on program "
                        "text, config and code version, so warm runs skip "
                        "plan+simplify entirely; needs --cache-dir "
                        "(default on; --no-plan-cache disables)")
    p.add_argument("--conflict-budget", type=int, default=200000,
                   help="in-tree solver conflict budget per VC")
    p.add_argument("--simplify", action=argparse.BooleanOptionalAction, default=True,
                   help="run the verdict-preserving VC simplification pipeline "
                        "before solving (default on; --no-simplify disables)")
    p.add_argument("--batch", action=argparse.BooleanOptionalAction, default=True,
                   help="factor each method's VCs into a shared hypothesis "
                        "prefix + per-VC goals and solve them through one "
                        "incremental solver context per batch (default on; "
                        "--no-batch solves every VC from scratch)")
    p.add_argument("--batch-size", type=int, default=16,
                   help="max VCs per incremental batch (default 16)")
    p.add_argument("--batch-node-limit", type=int, default=2400,
                   help="max summed post-simplify formula nodes per batch "
                        "(default 2400; retired-goal GC in the incremental "
                        "solver keeps big batches cheap)")
    p.add_argument("--cache-max-mb", type=float, default=None,
                   help="cache lifecycle budget: sweep the cache dir down to "
                        "this many MiB (LRU, both tiers) when the session "
                        "closes; entries written by the run are never evicted")
    p.add_argument("--cache-max-age-days", type=float, default=None,
                   help="cache lifecycle budget: evict entries not accessed "
                        "for this many days when the session closes")
    p.add_argument("--max-retries", type=int, default=2,
                   help="supervised retry budget per work unit: a unit whose "
                        "worker dies is requeued with exponential backoff up "
                        "to this many times; repeated crashes with no "
                        "progress quarantine the unit to an error verdict "
                        "(default 2; 0 disables retries)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="deterministic fault-injection plan, e.g. "
                        "'worker_crash:p=0.3,seed=7;cache_write:errno=ENOSPC'"
                        " (also via the REPRO_FAULTS env var; see README "
                        "'Robustness' for the grammar and the site table)")
    if selection:
        p.add_argument("--structure", default=None, help="restrict to one structure")
        p.add_argument("--method", action="append", default=[],
                       help="restrict to named method(s); repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Predictable verification using intrinsic definitions "
                    "(PLDI 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the structure/method registry")
    p_list.set_defaults(func=cmd_list)

    p_lint = sub.add_parser(
        "lint", help="run the multi-pass static analyzer (solver-free)")
    p_lint.add_argument("--all", action="store_true",
                        help="lint every registry method")
    p_lint.add_argument("--structure", default=None,
                        help="restrict to one structure")
    p_lint.add_argument("--method", action="append", default=[],
                        help="restrict to named method(s); repeatable")
    p_lint.add_argument("--format", choices=["text", "json"], default="text",
                        help="human-readable findings (text) or the "
                             "structured lint document (json)")
    p_lint.add_argument("--fail-on", choices=["error", "warning", "info", "never"],
                        default="error",
                        help="exit 1 when a finding at/above this severity "
                             "exists (default error; never = always exit 0)")
    p_lint.add_argument("--explain", default=None, metavar="CODE",
                        help="print a diagnostic code's description, detection "
                             "logic and a minimal example, then exit (exit 2 "
                             "on unknown codes)")
    p_lint.set_defaults(func=cmd_lint)

    p_verify = sub.add_parser("verify", help="verify methods via the engine")
    _add_engine_args(p_verify)
    p_verify.add_argument("--all", action="store_true", help="verify every registry method")
    p_verify.add_argument("--encoding", choices=["decidable", "quantified"],
                          default="decidable")
    p_verify.add_argument("--timeout", type=float, default=None,
                          help="per-VC wall-clock timeout in seconds")
    p_verify.add_argument("--format", choices=["text", "json"], default="text",
                          help="stdout format: human rows (text) or the "
                               "structured session-result document (json); "
                               "with json, progress rows go to stderr")
    p_verify.add_argument("--events", default=None, metavar="PATH",
                          help="stream typed per-VC events as JSON Lines to "
                               "PATH ('-' = stdout) while verifying")
    p_verify.add_argument("--json", default=None,
                          help="write a bench-style JSON report here "
                               "(legacy; prefer --format json)")
    p_verify.add_argument("--journal", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="append every settled slot to a crash-safe run "
                               "journal under <cache-dir>/journal/ so a killed "
                               "run can be resumed (default on; needs "
                               "--cache-dir; --no-journal disables)")
    p_verify.add_argument("--resume", default=None, metavar="RUN_ID",
                          help="replay the settled slots of a previous run's "
                               "journal and solve only the remainder (the "
                               "session config must match; needs --cache-dir)")
    p_verify.add_argument("--quiet", "-q", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    _add_engine_args(p_bench)
    p_bench.add_argument("--suite", choices=["table2", "rq3"], default="table2")
    p_bench.add_argument("--budget", type=float, default=None,
                         help="per-VC timeout in seconds "
                              "(default: REPRO_BENCH_BUDGET_S or 120)")
    p_bench.add_argument("--limit", type=int, default=None,
                         help="only the first N registry methods")
    p_bench.add_argument("--output", "-o", default=None,
                         help="bench report path (default bench_results.json)")
    p_bench.add_argument("--check", action="store_true",
                         help="exit nonzero unless every selected method verifies "
                              "(for CI smoke jobs)")
    p_bench.add_argument("--db", default=None, metavar="PATH",
                         help="append this run to a bench trajectory database "
                              "(sqlite3; see benchmarks/db.py and the "
                              "check_regression.py --history gate)")
    p_bench.add_argument("--db-commit", default=None, metavar="SHA",
                         help="commit stamp for --db (default: GITHUB_SHA or "
                              "git rev-parse HEAD)")
    p_bench.add_argument("--db-label", default="", metavar="L",
                         help="trajectory label for --db: runs are only "
                              "compared within one label (e.g. smoke, avl-cold)")
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="run the verification-as-a-service daemon (stdlib-only HTTP: "
             "blocking + streamed JSONL verdicts, admission control, "
             "per-client budgets; see README 'Service')")
    _add_engine_args(p_serve, selection=False)
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="bind port (default 8765; 0 = ephemeral)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="default per-VC wall-clock timeout in seconds "
                              "(requests may override with 'timeout_s')")
    p_serve.add_argument("--max-inflight", type=int, default=2,
                         help="requests verifying concurrently (default 2); "
                              "methods still serialize on the shared session's "
                              "submission lock, this bounds admitted requests")
    p_serve.add_argument("--max-queue", type=int, default=16,
                         help="waiting requests beyond --max-inflight before "
                              "the daemon sheds load with 429 (default 16)")
    p_serve.add_argument("--client-budget-s", type=float, default=None,
                         help="per-client solve-second budget: each X-Client-Id "
                              "gets this many wall seconds of verification per "
                              "--budget-window-s, continuously refilled; "
                              "exhausted clients get 429 + Retry-After "
                              "(default: no budgets)")
    p_serve.add_argument("--budget-window-s", type=float, default=60.0,
                         help="refill window for --client-budget-s (default 60)")
    p_serve.add_argument("--queue-timeout-s", type=float, default=30.0,
                         help="max seconds a request may wait in the admission "
                              "queue before 503 queue_timeout (default 30)")
    p_serve.add_argument("--drain-timeout-s", type=float, default=60.0,
                         help="max seconds to wait for in-flight requests on "
                              "SIGTERM/SIGINT before exiting (default 60)")
    p_serve.add_argument("--quiet", "-q", action="store_true",
                         help="suppress per-request access logging")
    p_serve.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="cache lifecycle: stats, gc (age/LRU sweep), verify")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for name, func, doc in (
        ("stats", cmd_cache_stats,
         "per-tier entry counts, byte totals and hit rates"),
        ("gc", cmd_cache_gc,
         "age/LRU sweep under size/age budgets (never evicts fresh entries)"),
        ("verify", cmd_cache_verify,
         "validate every entry, purge poison, heal the access index"),
    ):
        p = cache_sub.add_parser(name, help=doc)
        p.add_argument("--cache-dir", required=True,
                       help="the cache directory (VC tier at the root, plan "
                            "tier under <dir>/plan)")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if name == "gc":
            p.add_argument("--cache-max-mb", type=float, default=None,
                           help="size budget for the whole dir (both tiers)")
            p.add_argument("--cache-max-age-days", type=float, default=None,
                           help="evict entries not accessed for this many days")
            p.add_argument("--protect-minutes", type=float, default=10.0,
                           help="never evict entries accessed within the last "
                                "M minutes (default 10; shields the current "
                                "run's working set)")
            p.add_argument("--dry-run", action="store_true",
                           help="report what would be evicted, delete nothing")
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
