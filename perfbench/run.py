#!/usr/bin/env python3
"""The repository benchmark: one workload, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload verify_inproc --seed 1 --seconds 30 --trace 0

Workloads, the request pool and the paper's expected verdicts live in
``perfbench/manifest.json``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer metrics (see ``spans.py``).

A run sends ``round(seconds / 10)`` rounds of its workload's mix, each in
its own seeded order, to one long-lived session or daemon.  ``wall_s``
and ``cpu_s`` are the measured time to drain all of them; latencies are
taken over every request.

A traced run sends its rounds in passes, traced and untraced in the
order U T T U U T ..., each pass to a fresh session or daemon (with a
fresh cache dir when the workload's ``trace`` entry asks for one), and
reports the layer metrics of the traced passes; ``trace.overhead``
compares the median traced and untraced pass.

All clients are closed loop: each sends its next request when the reply
to the previous one is in.  A mutant that comes back verified, or a
request that crashes the engine or the daemon, aborts the run with exit
status 1.  A request that ends without its expected verdict (a timeout,
an ``error`` verdict, a non-200 reply, or a refutation of a method the
paper verifies) counts toward ``failed_share``.

Exit status: 0 measured, 1 correctness abort, 2 usage or missing source.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_MANIFEST = os.path.join(HERE, "manifest.json")
# A run sends one round of its mix per this many requested seconds.
ROUND_SECONDS = 10
# Fresh interpreters timed per run for setup_s (the median is reported).
SETUP_REPS = 9
COVERAGE_FLOOR = 0.9


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=0,
                    help="send only the first N requests of the first round (smoke runs)")
    ap.add_argument("--manifest", default=DEFAULT_MANIFEST,
                    help="pool manifest with the expected verdicts")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- workloads ------------------------------------------------------------


def _verdict(ok: bool, timeouts: int, errors: int) -> str:
    if ok:
        return "verified"
    if timeouts:
        return "timeout"
    if errors:
        return "error"
    return "refuted"


def _inputs(manifest):
    """``{pool name: (program, ids, method)}``: registry methods and mutants."""
    from repro.structures.registry import EXPERIMENTS

    from mutants import build_mutants

    inputs = build_mutants()
    for exp in EXPERIMENTS:
        wanted = [m for m in exp.methods if m in manifest["pool"]]
        if wanted:
            program, ids = exp.program_factory(), exp.ids_factory()
            inputs.update({m: (program, ids, m) for m in wanted})
    missing = sorted(set(manifest["pool"]) - set(inputs))
    if missing:
        raise ValueError(f"pool names no registry method or mutant: {missing}")
    return inputs


class InProcess:
    """One client calling a long-lived ``VerificationSession`` directly."""

    clients = 1

    def __init__(self, manifest, config, cache_dir=None):
        from repro.engine.session import VerificationSession

        self.inputs = _inputs(manifest)
        self.session = VerificationSession(**config["session"], cache_dir=cache_dir)

    def send(self, _client, name):
        program, ids, method = self.inputs[name]
        result = self.session.verify(program, ids, method)
        return _verdict(result.ok, result.timeouts, result.errors), 200

    def close(self):
        self.session.close()


class Served:
    """An in-process ``repro serve`` daemon on an ephemeral port, with
    one HTTP connection per client thread."""

    def __init__(self, _manifest, config, cache_dir=None):
        import http.client

        from repro.engine.session import VerificationSession
        from repro.service.server import ServeConfig, make_server

        self.clients = config["clients"]
        self.session = VerificationSession(**config["session"], cache_dir=cache_dir)
        self.server = make_server(self.session, ServeConfig(port=0, quiet=True))
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.conns = [
            http.client.HTTPConnection(host, port, timeout=170)
            for _ in range(self.clients)
        ]

    def send(self, client, name):
        conn = self.conns[client]
        conn.request(
            "POST", "/v1/verify", body=json.dumps({"methods": [name]}),
            headers={"Content-Type": "application/json",
                     "X-Client-Id": f"bench-{client}"},
        )
        reply = conn.getresponse()
        body = reply.read()
        if reply.status == 500:
            raise RuntimeError(f"daemon error: {body[:300]!r}")
        if reply.status != 200:
            return "non200", reply.status
        row = json.loads(body)["results"][0]
        if row["status"].startswith("error:"):
            raise RuntimeError(f"engine crash: {row['status']} {row['notes']}")
        return _verdict(row["ok"], row["timeouts"], row["errors"]), 200

    def close(self):
        for conn in self.conns:
            conn.close()
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.session.close()


def _open(manifest, workload, cache_dir=None):
    config = manifest["workloads"][workload]
    kind = {"inprocess": InProcess, "served": Served}[config["kind"]]
    return kind(manifest, config, cache_dir)


# -- driving --------------------------------------------------------------


class Abort(Exception):
    """A correctness violation: the run's numbers are not reported."""


def _drive(bench, requests, expected, rec):
    """Send one round from ``bench.clients`` closed-loop clients.

    Returns ``[(name, verdict, http_status, latency_s)]`` in schedule
    order; raises Abort on a soundness hole or a crash.
    """
    results = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    stop = threading.Event()
    problems = []

    def client(k):
        if rec is not None:
            rec.tag(f"bench-{k}")
        while not stop.is_set():
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            name = requests[i]
            if rec is not None:
                rec.begin("request")
            start = time.perf_counter()
            try:
                verdict, status = bench.send(k, name)
            except Exception as e:  # noqa: BLE001 - any crash aborts the run
                problems.append(f"{name} crashed: {e!r}")
                stop.set()
                return
            finally:
                if rec is not None:
                    rec.end()
            results[i] = (name, verdict, status, time.perf_counter() - start)
            if verdict == "verified" and expected[name] == "refuted":
                problems.append(
                    f"soundness: {name} came back verified, expected refuted"
                )
                stop.set()

    if bench.clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(bench.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if problems:
        raise Abort("; ".join(problems))
    return results


def _cpu_s() -> float:
    """CPU seconds of this process and its children, the live ones too
    (a persistent worker pool is reaped only when the session closes)."""
    t = os.times()
    total = t.user + t.system + t.children_user + t.children_system
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited meanwhile: counted in children_* once reaped
        total += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return total


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # Linux reports KiB


def _setup_s(args) -> float:
    """Median time from spawning a fresh interpreter until it could send
    its first request (imports, inputs, session, server bind)."""
    times = []
    for _ in range(SETUP_REPS):
        cmd = [sys.executable, os.path.abspath(__file__), "--probe",
               "--workload", args.workload, "--manifest", args.manifest]
        start = time.perf_counter()
        probe = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE)
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdin.close()
        probe.stdout.close()
        if probe.wait(timeout=120) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed (exit {probe.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def _probe(args, manifest) -> int:
    bench = _open(manifest, args.workload)
    print("ready", flush=True)
    sys.stdin.read()
    bench.close()
    return 0


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _report(results, metrics, units):
    return json.dumps({
        "correct": True,
        "attempted": len(results),
        "failed": sum(1 for r in results if r[1] in ("timeout", "error", "non200")),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def _untraced(manifest, workload, schedule, expected):
    """Drain every round on one session or daemon: the results, and the
    wall and CPU seconds the drain took."""
    bench = _open(manifest, workload)
    try:
        cpu0, start = _cpu_s(), time.perf_counter()
        results = [r for requests in schedule
                   for r in _drive(bench, requests, expected, None)]
        wall_s = time.perf_counter() - start
        cpu_s = _cpu_s() - cpu0
    finally:
        bench.close()
    return results, wall_s, cpu_s


def _traced(manifest, workload, schedule, expected, cache_root):
    """Send each round as a pass to a fresh session or daemon, untraced
    and traced in the order U T T U U T ..., so a drift in machine speed
    during the run biases neither side.  Returns ``[(traced, results,
    wall_s)]`` per pass and the recorder holding the traced spans."""
    import spans

    rec = spans.Recorder()
    spans.install(rec)
    passes = []
    for i, requests in enumerate(schedule):
        on = "UTTU"[i % 4] == "T"
        cache_dir = None if cache_root is None else os.path.join(cache_root, str(i))
        bench = _open(manifest, workload, cache_dir)
        try:
            rec.enabled = on
            start = time.perf_counter()
            results = _drive(bench, requests, expected, rec if on else None)
            passes.append((on, results, time.perf_counter() - start))
        finally:
            rec.enabled = False
            bench.close()
    return passes, rec


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no engine source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from schedule import build_schedule, load_manifest

    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: bad manifest {args.manifest}: {e!r}", file=sys.stderr)
        return 2
    if args.workload not in manifest["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(manifest['workloads'])})", file=sys.stderr)
        return 2
    if args.probe:
        return _probe(args, manifest)

    config = manifest["workloads"][args.workload]
    expected = {m: e["expect"] for m, e in manifest["pool"].items()}
    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    if args.trace:
        # One round per pass, twice the timed run's rounds unless the
        # workload's trace entry names the number of passes.
        rounds = config.get("trace", {}).get("passes", 2 * rounds)
    schedule = build_schedule(manifest, args.workload, args.seed, rounds)
    if args.requests:
        schedule = [r[:args.requests] for r in schedule[:1 + args.trace]]
    end_units, layer_units = _units()
    cache_root = None
    if config.get("trace", {}).get("cache") and args.trace:
        cache_root = os.path.join(ROOT, ".bench_build", f"trace-cache-{os.getpid()}")
    try:
        if args.trace:
            passes, rec = _traced(manifest, args.workload, schedule, expected, cache_root)
            results = [r for _on, rs, _wall in passes for r in rs]
        else:
            setup_s = _setup_s(args)
            results, wall_s, cpu_s = _untraced(manifest, args.workload, schedule, expected)
    except Abort as e:
        print(f"perfbench: ABORT on {args.workload}: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": sum(map(len, schedule)), "failed": 0,
                          "metrics": {}}))
        return 1
    finally:
        if cache_root is not None:
            shutil.rmtree(cache_root, ignore_errors=True)

    if args.trace:
        import spans

        requests = [(tag, start, end, thread)
                    for name, tag, thread, start, end, *_ in rec.spans
                    if name == "request"]
        non200 = sum(1 for on, rs, _wall in passes if on for r in rs if r[1] == "non200")
        metrics = spans.layer_metrics(rec, requests, non200)
        on_wall = [wall for on, _rs, wall in passes if on]
        off_wall = [wall for on, _rs, wall in passes if not on]
        metrics["trace.overhead"] = statistics.median(on_wall) / statistics.median(off_wall) - 1
        if metrics["trace.coverage"] < COVERAGE_FLOOR:
            print(f"perfbench: WARNING {args.workload}: layer spans cover "
                  f"{metrics['trace.coverage']:.1%} of request wall time "
                  f"(< {COVERAGE_FLOOR:.0%}); the rest is unmeasured",
                  file=sys.stderr)
        units = layer_units
    else:
        ordered = sorted(r[3] for r in results)
        misses = sum(1 for r in results if r[1] != expected[r[0]])
        p90 = statistics.quantiles(ordered, n=10)[8] if len(ordered) > 1 else ordered[0]
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": _peak_rss_mb(),
            "latency_s.p50": statistics.median(ordered),
            "latency_s.p90": p90,
            "failed_share": misses / len(results),
        }
        above = sum(1 for x in ordered if x > p90)
        print(f"perfbench: {args.workload} seed={args.seed}: {len(results)} requests, "
              f"{above} above p90, {misses} without the expected verdict",
              file=sys.stderr)
        units = end_units
    print(_report(results, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
