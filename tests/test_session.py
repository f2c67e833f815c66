"""Session-API tests: event-stream contract, result parity with the
sequential reference and the legacy engine shim, countermodel
diagnostics in original-VC vocabulary, the CLI exit-code contract, and
the schema-v4 validator.

Event-stream invariants (the contract ``benchmarks/check_schema.py``
also enforces in CI):

- every VC slot emits exactly one ``planned`` event and exactly one
  terminal event, with ``planned`` strictly first;
- under ``jobs=1`` the stream is deterministic end to end;
- under ``jobs=4`` only the per-VC partial order is promised, and the
  final verdicts are identical to ``jobs=1``;
- the worker-death and batch-timeout paths still settle every VC with
  exactly one terminal event.
"""

import importlib.util
import json
import multiprocessing as mp
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro import cli
from repro.core.verifier import PlannedVC, Verifier
from repro.engine import (
    VerificationEngine,
    VerificationRequest,
    VerificationSession,
)
from repro.engine.backends import (
    _REGISTRY,
    BackendVerdict,
    SolverBackend,
    register_backend,
)
from repro.engine.diagnostics import diagnose
from repro.engine.events import TERMINAL_KINDS
from repro.engine.tasks import TaskResult
from repro.smt import terms as T
from repro.smt.simplify import apply_inverse_subst, simplify
from repro.smt.solver import SolverError
from repro.smt.sorts import INT, LOC, MapSort
from repro.structures.registry import EXPERIMENTS

OK_METHOD = ("Singly-Linked List", "sll_find")
FAILING_METHOD = ("Scheduler Queue (overlaid SLL+BST)", "sched_list_remove_first")


def _experiment(structure):
    return next(e for e in EXPERIMENTS if e.structure == structure)


@pytest.fixture(scope="module")
def loaded():
    out = {}
    for structure, _m in (OK_METHOD, FAILING_METHOD):
        exp = _experiment(structure)
        out[structure] = (exp.program_factory(), exp.ids_factory())
    return out


@pytest.fixture(scope="module")
def reference(loaded):
    """Sequential Verifier verdicts: the ground truth both APIs must match."""
    out = {}
    for structure, method in (OK_METHOD, FAILING_METHOD):
        program, ids = loaded[structure]
        out[method] = Verifier(program, ids).verify(method)
    return out


def _events_of(session, program, ids, method):
    run = session.submit(VerificationRequest(program, ids, method))
    events = list(run)
    return events, run.results()[0]


# -- parity with the sequential reference and across configs -----------------


@pytest.mark.parametrize("structure,method", [OK_METHOD, FAILING_METHOD])
@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("batch", [True, False])
def test_session_matches_sequential_reference(loaded, reference, structure, method, jobs, batch):
    program, ids = loaded[structure]
    ref = reference[method]
    before = set(mp.active_children())
    with VerificationSession(jobs=jobs, batch=batch, diagnostics=False) as session:
        result = session.verify(program, ids, method)
        # Every worker is reaped before verify() returns.
        assert set(mp.active_children()) <= before
    report = result.to_report()
    assert (report.ok, report.n_vcs, report.failed, report.wb_ok, report.ghost_ok) == (
        ref.ok, ref.n_vcs, ref.failed, ref.wb_ok, ref.ghost_ok
    )


def test_legacy_engine_shim_matches_session(loaded, reference):
    program, ids = loaded[OK_METHOD[0]]
    engine = VerificationEngine(jobs=1)
    with pytest.warns(DeprecationWarning):
        report = engine.verify(program, ids, OK_METHOD[1])
    ref = reference[OK_METHOD[1]]
    assert (report.ok, report.n_vcs, report.failed) == (ref.ok, ref.n_vcs, ref.failed)


def test_cache_warm_and_cold_runs_agree(loaded, tmp_path):
    program, ids = loaded[FAILING_METHOD[0]]
    method = FAILING_METHOD[1]
    with VerificationSession(cache_dir=str(tmp_path), diagnostics=False) as s1:
        cold_events, cold = _events_of(s1, program, ids, method)
    with VerificationSession(cache_dir=str(tmp_path), diagnostics=False) as s2:
        warm_events, warm = _events_of(s2, program, ids, method)
    assert [v.status for v in warm.verdicts] == [v.status for v in cold.verdicts]
    assert (warm.ok, warm.failed) == (cold.ok, cold.failed)
    # Every solvable VC replays from the persistent cache on the warm run.
    warm_terminals = [e for e in warm_events if e.is_terminal]
    assert warm_terminals and all(e.kind == "cache_hit" for e in warm_terminals)
    assert warm.cache_hits == len(warm_terminals)


# -- event-stream contract ---------------------------------------------------


def _check_stream_contract(events, n_vcs):
    planned_seq = {}
    terminal_seq = {}
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    for event in events:
        if event.kind == "planned":
            assert event.index not in planned_seq, "duplicate planned"
            planned_seq[event.index] = event.seq
        else:
            assert event.kind in TERMINAL_KINDS
            assert event.index not in terminal_seq, "two terminal events for one VC"
            terminal_seq[event.index] = event.seq
            assert event.verdict in ("valid", "invalid", "timeout", "error")
    assert set(planned_seq) == set(terminal_seq) == set(range(n_vcs))
    for index in planned_seq:
        assert planned_seq[index] < terminal_seq[index], "terminal before planned"


def test_event_stream_contract_and_jobs1_determinism(loaded):
    program, ids = loaded[FAILING_METHOD[0]]
    method = FAILING_METHOD[1]

    def run_once():
        with VerificationSession(jobs=1, diagnostics=False) as session:
            return _events_of(session, program, ids, method)

    events_a, result_a = run_once()
    events_b, _result_b = run_once()
    _check_stream_contract(events_a, result_a.n_vcs)
    key = lambda evs: [(e.kind, e.index, e.label, e.verdict) for e in evs]
    assert key(events_a) == key(events_b), "jobs=1 stream must be deterministic"
    # Counts in the result mirror the stream.
    assert result_a.event_counts["planned"] == result_a.n_vcs
    assert sum(result_a.event_counts.get(k, 0) for k in TERMINAL_KINDS) == result_a.n_vcs


def test_event_partial_order_under_parallelism(loaded):
    program, ids = loaded[FAILING_METHOD[0]]
    method = FAILING_METHOD[1]
    with VerificationSession(jobs=1, diagnostics=False) as seq_session:
        _seq_events, seq_result = _events_of(seq_session, program, ids, method)
    with VerificationSession(jobs=4, diagnostics=False) as par_session:
        par_events, par_result = _events_of(par_session, program, ids, method)
    _check_stream_contract(par_events, par_result.n_vcs)
    # Verdict per VC is schedule-independent even though event order is not.
    verdict_of = lambda evs: {
        e.index: e.verdict for e in evs if e.is_terminal
    }
    assert verdict_of(par_events) == verdict_of(_seq_events)
    assert [v.status for v in par_result.verdicts] == [
        v.status for v in seq_result.verdicts
    ]


def test_multi_method_request_streams_in_order(loaded):
    program, ids = loaded[OK_METHOD[0]]
    with VerificationSession(diagnostics=False) as session:
        run = session.submit(
            VerificationRequest(program, ids, ["sll_find", "sll_insert_front"])
        )
        events = list(run)
        results = run.results()
    assert [r.method for r in results] == ["sll_find", "sll_insert_front"]
    methods_seen = [e.method for e in events]
    switch = methods_seen.index("sll_insert_front")
    assert all(m == "sll_find" for m in methods_seen[:switch])
    assert all(m == "sll_insert_front" for m in methods_seen[switch:])
    assert all(r.ok for r in results)


def test_seq_is_session_scoped_across_requests(loaded):
    """The seq counter belongs to the session, not the request: a later
    submit continues where the previous one stopped (the daemon relies
    on this for globally ordered streams), and single-threaded use stays
    dense from zero."""
    program, ids = loaded[OK_METHOD[0]]
    with VerificationSession(diagnostics=False) as session:
        first, _ = _events_of(session, program, ids, OK_METHOD[1])
        second, _ = _events_of(session, program, ids, OK_METHOD[1])
    seqs = [e.seq for e in first + second]
    assert seqs == list(range(len(seqs)))
    assert second[0].seq == first[-1].seq + 1


def test_concurrent_submits_share_one_session(loaded, reference):
    """Thread-safety contract: concurrent submit() calls from multiple
    threads serialize on the submission lock, every thread gets verdicts
    identical to the sequential reference, and seq values are globally
    unique and per-stream increasing."""
    program, ids = loaded[OK_METHOD[0]]
    ref = reference[OK_METHOD[1]]
    outcomes = {}
    errors = []
    barrier = threading.Barrier(4)

    with VerificationSession(diagnostics=False) as session:

        def worker(name):
            try:
                barrier.wait(timeout=10)
                events, result = _events_of(session, program, ids, OK_METHOD[1])
                outcomes[name] = (events, result)
            except Exception as e:  # surfaced below; threads must not die silently
                errors.append((name, e))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert errors == []
    assert len(outcomes) == 4
    all_seqs = []
    for events, result in outcomes.values():
        assert (result.ok, result.n_vcs, result.failed) == (
            ref.ok, ref.n_vcs, ref.failed
        )
        stream_seqs = [e.seq for e in events]
        assert stream_seqs == sorted(stream_seqs)
        all_seqs.extend(stream_seqs)
    assert len(set(all_seqs)) == len(all_seqs)  # globally unique


def test_vcevent_json_round_trip(loaded):
    program, ids = loaded[OK_METHOD[0]]
    with VerificationSession(diagnostics=False) as session:
        events, _ = _events_of(session, program, ids, OK_METHOD[1])
    from repro.engine.events import VcEvent

    for event in events:
        doc = event.to_json()
        assert VcEvent.from_json(doc).to_json() == doc


def test_warm_cache_run_spawns_no_pool(loaded, tmp_path, monkeypatch):
    program, ids = loaded[OK_METHOD[0]]
    starts = []
    real_start = mp.process.BaseProcess.start

    def counting_start(self):
        starts.append(self.name)
        return real_start(self)

    monkeypatch.setattr(mp.process.BaseProcess, "start", counting_start)
    with VerificationSession(
        jobs=2, cache_dir=str(tmp_path), diagnostics=False
    ) as cold:
        cold.verify(program, ids, OK_METHOD[1])
    assert starts, "the cold jobs=2 run solves in workers"
    del starts[:]
    with VerificationSession(
        jobs=2, cache_dir=str(tmp_path), diagnostics=False
    ) as warm:
        result = warm.verify(program, ids, OK_METHOD[1])
        assert result.cache_hits > 0
    assert starts == [], "fully cached runs must not fork workers"


# -- worker-death and batch-timeout event paths ------------------------------


class _ExitBackend(SolverBackend):
    name = "session-die-exit"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        os._exit(3)


@pytest.fixture
def exit_backend():
    register_backend("session-die-exit", lambda arg=None: _ExitBackend())
    yield
    _REGISTRY.pop("session-die-exit", None)


def test_worker_death_still_settles_every_vc(loaded, exit_backend):
    program, ids = loaded[OK_METHOD[0]]
    with VerificationSession(
        backend="session-die-exit", timeout_s=30.0, diagnostics=False
    ) as session:
        events, result = _events_of(session, program, ids, OK_METHOD[1])
    _check_stream_contract(events, result.n_vcs)
    terminals = [e for e in events if e.is_terminal]
    assert all(e.verdict == "error" for e in terminals)
    assert any("worker died (exitcode 3)" in e.detail for e in terminals)
    assert not result.ok and result.errors == result.n_vcs


class _SleepySecondBackend(SolverBackend):
    """First goal answers; the second call (same worker process) hangs."""

    name = "session-sleepy-second"
    calls = 0

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        cls = _SleepySecondBackend
        cls.calls += 1
        if cls.calls == 2:
            time.sleep(30)
        return BackendVerdict("valid")


@pytest.fixture
def sleepy_second_backend():
    register_backend(
        "session-sleepy-second", lambda arg=None: _SleepySecondBackend()
    )
    yield
    _REGISTRY.pop("session-sleepy-second", None)


def test_batch_timeout_event_attribution(loaded, sleepy_second_backend):
    """A batch whose second goal hangs: the in-flight VC gets the one
    timeout event, never-attempted entries are re-queued (fresh worker,
    fresh call counter) and still settle with solved events."""
    program, ids = loaded[OK_METHOD[0]]
    with VerificationSession(
        backend="session-sleepy-second",
        timeout_s=0.3,
        batch=True,
        diagnostics=False,
    ) as session:
        events, result = _events_of(session, program, ids, OK_METHOD[1])
    _check_stream_contract(events, result.n_vcs)
    terminals = [e for e in events if e.is_terminal]
    timeouts = [e for e in terminals if e.verdict == "timeout"]
    assert timeouts and all("budget" in e.detail for e in timeouts if e.kind == "timeout")
    assert any(e.kind == "solved" and e.verdict == "valid" for e in terminals)
    assert result.timeouts == len(timeouts)


# -- workers die at their deadline, whatever the parent's handlers ------------

_HANG_S = 5.0


class _HangBackend(SolverBackend):
    """Every VC hangs far past the per-VC budget under test."""

    name = "session-hang"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        time.sleep(_HANG_S)
        return BackendVerdict("valid")


@pytest.fixture
def hang_backend():
    register_backend("session-hang", lambda arg=None: _HangBackend())
    yield
    _REGISTRY.pop("session-hang", None)


def test_worker_deadline_fires_under_parent_sigterm_handler(loaded, hang_backend):
    """``repro serve`` holds a SIGTERM handler that only starts a drain.
    A forked worker that kept it would shrug off terminate() at its
    deadline and hang on to a verdict: every slot must time out, and
    the whole solve must end before a single hang could."""
    program, ids = loaded[OK_METHOD[0]]
    previous = signal.signal(signal.SIGTERM, lambda _signum, _frame: None)
    try:
        with VerificationSession(
            jobs=2,
            backend="session-hang",
            timeout_s=0.2,
            batch=False,
            diagnostics=False,
        ) as session:
            start = time.perf_counter()
            result = session.verify(program, ids, OK_METHOD[1])
            wall = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert result.n_vcs > 0
    assert [v.status for v in result.verdicts] == ["timeout"] * result.n_vcs
    assert wall < _HANG_S


def test_cli_verify_workers_print_nothing_under_sigterm_trap(capfd):
    """``repro verify`` maps SIGTERM to KeyboardInterrupt; a worker that
    inherited that trap printed a traceback when reaped."""
    code = cli.main(
        ["verify", "--method", "sll_find", "--jobs", "2", "--timeout", "60", "-q"]
    )
    assert code == 0
    assert capfd.readouterr().err == ""


class _RaisingBackend(SolverBackend):
    name = "session-raise"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        raise SolverError("synthetic solver failure")


@pytest.fixture
def raising_backend():
    register_backend("session-raise", lambda arg=None: _RaisingBackend())
    yield
    _REGISTRY.pop("session-raise", None)


# -- diagnostics: countermodels in original vocabulary -----------------------


def _synthetic_refuted_vc():
    """A VC the simplifier rewrites (select-chain collapsed to ``y``)
    and the solver refutes -- small enough to pin golden diagnostics."""
    M = T.mk_const("M_glen", MapSort(LOC, INT))
    x = T.mk_const("x", LOC)
    sel = T.mk_select(M, x)
    y = T.mk_const("y", INT)
    zero = T.mk_int(0)
    vc = T.mk_implies(
        T.mk_and(T.mk_eq(sel, y), T.mk_le(zero, sel)),
        T.mk_lt(zero, sel),
    )
    log = []
    simplified = simplify(vc, subst_log=log)
    return PlannedVC(
        0, "assert demo", simplified,
        nodes_before=9, nodes_after=7, subst=tuple(log),
    )


def test_simplifier_records_oriented_substitutions():
    pvc = _synthetic_refuted_vc()
    assert [(t.pretty(), r.pretty()) for t, r in pvc.subst] == [
        ("(select M_glen x)", "y")
    ]


def test_golden_countermodel_in_original_vocabulary():
    """GOLDEN: the refuted VC's countermodel atoms, rendered both as
    solved (post-simplification vocabulary, mentioning ``y``) and mapped
    back through the inverse substitution (original vocabulary,
    mentioning ``select M_glen x``)."""
    pvc = _synthetic_refuted_vc()
    res = TaskResult(0, "assert demo", "invalid", "countermodel found")
    diag = diagnose(pvc, res)
    assert diag.kind == "countermodel"
    assert diag.substitutions == [("(select M_glen x)", "y")]
    assert diag.atoms == [
        "(le 0 (select M_glen x))",
        "(not (le 1 y))",
    ]
    assert diag.original_atoms == [
        "(le 0 (select M_glen x))",
        "(not (le 1 (select M_glen x)))",
    ]
    rendered = diag.render()
    assert "countermodel (original VC vocabulary):" in rendered
    assert "(not (le 1 (select M_glen x)))" in rendered


def test_apply_inverse_subst_resolves_chains_and_skips_self_referential():
    a = T.mk_const("ch_a", INT)
    b = T.mk_const("ch_b", INT)
    c = T.mk_const("ch_c", INT)
    f = T.mk_add(a, T.mk_int(1))
    # Chain: f(a) -> b, then b -> c: c maps back to f(a) in two passes.
    out = apply_inverse_subst(c, [(f, b), (b, c)])
    assert out is f
    # Self-referential pair (target contains its replacement) is skipped.
    assert apply_inverse_subst(a, [(f, a)]) is a


def test_failing_method_diagnostics_end_to_end(loaded):
    program, ids = loaded[FAILING_METHOD[0]]
    with VerificationSession(jobs=1) as session:
        result = session.verify(program, ids, FAILING_METHOD[1])
    assert not result.ok
    counters = [d for d in result.diagnostics if d.kind == "countermodel"]
    assert counters, "refuted VCs must carry countermodel diagnostics"
    for diag in counters:
        assert diag.atoms and len(diag.atoms) == len(diag.original_atoms)
        # Original-vocabulary atoms never leak solver-internal symbols.
        assert all("!" not in atom for atom in diag.original_atoms)
        assert diag.substitutions, "the simplifier rewrote these VCs"
    # JSON face carries both vocabularies.
    doc = result.to_json()
    assert doc["diagnostics"][0]["original_atoms"]


def test_valid_methods_have_no_diagnostics(loaded):
    program, ids = loaded[OK_METHOD[0]]
    with VerificationSession(jobs=1) as session:
        result = session.verify(program, ids, OK_METHOD[1])
    assert result.ok and result.diagnostics == []


# -- CLI: exit-code contract, --format json, --events ------------------------


def test_cli_exit_0_when_verified(capsys):
    assert cli.main(["verify", "--method", "sll_find", "-q"]) == 0


def test_cli_exit_1_when_refuted_and_prints_diagnostics(capsys):
    code = cli.main(["verify", "--method", "sched_list_remove_first"])
    assert code == 1
    out = capsys.readouterr().out
    assert "countermodel (original VC vocabulary):" in out


def test_cli_exit_2_on_usage_errors(capsys):
    assert cli.main(["verify", "--method", "no_such_method"]) == 2
    assert cli.main(["verify", "--method", "sll_find", "--backend", "nope"]) == 2
    assert cli.main(["verify"]) == 2  # nothing selected


def test_cli_exit_3_on_solver_error(capsys, raising_backend):
    code = cli.main(
        ["verify", "--method", "sll_find", "--backend", "session-raise", "-q"]
    )
    assert code == 3


def test_cli_events_to_stdout_is_pure_jsonl(capsys):
    assert cli.main(["verify", "--method", "sll_find", "--events", "-"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines, "events stream must not be empty"
    for line in lines:
        event = json.loads(line)  # every stdout line is one event
        assert event["kind"] in (
            "planned", "cache_hit", "dedup", "solved", "timeout", "error"
        )


def test_cli_events_stdout_conflicts_with_format_json(capsys):
    code = cli.main(
        ["verify", "--method", "sll_find", "--events", "-", "--format", "json"]
    )
    assert code == 2


def test_cli_unwritable_events_path_is_usage_error(capsys):
    code = cli.main(
        ["verify", "--method", "sll_find",
         "--events", "/no-such-dir/events.jsonl"]
    )
    assert code == 2
    assert "cannot open --events" in capsys.readouterr().err


def test_bench_exit_codes(tmp_path, capsys, raising_backend):
    out = str(tmp_path / "bench.json")
    ok = cli.main(
        ["bench", "--method", "sll_find", "--budget", "60", "--output", out]
    )
    assert ok == 0
    refuted = cli.main(
        ["bench", "--method", "sched_list_remove_first", "--budget", "60",
         "--output", str(tmp_path / "bench_refuted.json")]
    )
    assert refuted == 1
    internal = cli.main(
        ["bench", "--method", "sll_find", "--budget", "60",
         "--backend", "session-raise", "--output", str(tmp_path / "bench_err.json")]
    )
    assert internal == 3


# -- schema validator --------------------------------------------------------


def _load_check_schema():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "check_schema.py"
    spec = importlib.util.spec_from_file_location("check_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_json_is_schema_v6_with_event_counts(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert cli.main(
        ["bench", "--method", "sll_find", "--method", "sorted_find",
         "--budget", "60", "--output", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 8
    for entry in doc["results"]:
        assert entry["events"]["planned"] == entry["n_vcs"]
        # v5 phase split: generation (incl. simplify) + solve stay within
        # the method wall clock, and simplify is part of generation.
        assert 0.0 <= entry["simplify_s"] <= entry["plan_s"]
        assert entry["plan_s"] + entry["solve_s"] <= entry["time_s"] + 0.05
        assert entry["plan_cached"] is False  # no --cache-dir in this run
    checker = _load_check_schema()
    errs = checker.SchemaErrors()
    checker.check_report(doc, errs)
    assert errs.problems == []


def test_verify_format_json_and_events_jsonl_validate(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    code = cli.main(
        ["verify", "--method", "sll_find", "--method", "sched_list_remove_first",
         "--format", "json", "--events", str(events_path), "-q"]
    )
    assert code == 1  # the failing method refutes
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 8 and doc["command"] == "verify"
    checker = _load_check_schema()
    errs = checker.SchemaErrors()
    checker.check_report(doc, errs)
    assert errs.problems == []
    with open(events_path, encoding="utf-8") as handle:
        checker.check_events_jsonl(handle, errs)
    assert errs.problems == []
    # The refuted method's JSON results carry original-vocabulary atoms.
    failing = next(r for r in doc["results"] if r["method"] == "sched_list_remove_first")
    assert failing["diagnostics"] and failing["diagnostics"][0]["original_atoms"]


def test_schema_validator_rejects_corrupt_documents(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert cli.main(
        ["bench", "--method", "sll_find", "--budget", "60", "--output", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    doc["n_methods"] = 99
    doc["results"][0]["events"]["planned"] += 1
    checker = _load_check_schema()
    errs = checker.SchemaErrors()
    checker.check_report(doc, errs)
    assert any("n_methods" in p for p in errs.problems)
    assert any("planned" in p for p in errs.problems)
