#!/usr/bin/env python3
"""Smoke check of the benchmark itself (under a minute).

    python3 perfbench/smoke.py

With a fixed seed, runs the first three requests of every workload,
untraced and traced, and checks that each result names exactly the
metrics of ``BENCHMARK.json`` with their units.  Then checks the
correctness abort (a manifest that expects a verified method to be
refuted must stop the run with exit status 1), and that the benchmark
fails without printing a result in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.  Exit status 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench-smoke")
SEED = 7
REQUESTS = 3


def _run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(SEED),
           "--seconds", "30", "--requests", str(REQUESTS), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)


def _check_result(done, wanted, label, problems):
    if done.returncode != 0:
        problems.append(f"{label}: exit {done.returncode}: {done.stderr.decode()[-500:]}")
        return
    doc = json.loads(done.stdout.decode().strip().splitlines()[-1])
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(doc)}")
    if doc.get("correct") is not True or doc.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={doc.get('correct')} attempted={doc.get('attempted')}")
    got = {name: m.get("unit") for name, m in doc["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, "
                        f"units {[n for n in wanted if got.get(n) not in (None, wanted[n])]}")
    if not all(isinstance(m.get("value"), (int, float)) for m in doc["metrics"].values()):
        problems.append(f"{label}: a metric value is not a number")


def main() -> int:
    sys.path.insert(0, HERE)
    from schedule import build_schedule, load_manifest

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        layers = json.load(handle)["metrics"]
    end_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if set(layers) != set(layer_units):
        problems.append(f"layers.json and BENCHMARK.json per_layer differ: "
                        f"{sorted(set(layers) ^ set(layer_units))}")

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            _check_result(_run(["--workload", workload, "--trace", "0"]),
                          end_units, f"{workload} --trace 0", problems)
            _check_result(_run(["--workload", workload, "--trace", "1"]),
                          layer_units, f"{workload} --trace 1", problems)

        # A wrong expected verdict: the first verified method of the
        # schedule is declared refuted, so its verdict must trip the abort.
        manifest = load_manifest(os.path.join(HERE, "manifest.json"))
        requests = build_schedule(manifest, "verify_inproc", SEED, 1)[0][:REQUESTS]
        first = next(m for m in requests if manifest["pool"][m]["expect"] == "verified")
        manifest["pool"][first]["expect"] = "refuted"
        wrong = os.path.join(WORK, "wrong-manifest.json")
        with open(wrong, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        done = _run(["--workload", "verify_inproc", "--trace", "0", "--manifest", wrong])
        if done.returncode != 1 or b"soundness" not in done.stderr:
            problems.append(f"wrong expected verdict for {first} did not abort: "
                            f"exit {done.returncode}")

        # Only BENCHMARK.json and perfbench/: no engine source, no result.
        bare = os.path.join(WORK, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = _run(["--workload", "verify_inproc", "--trace", "0"], cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"bare directory: exit {done.returncode}, "
                            f"stdout {done.stdout[-200:]!r}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for problem in problems:
        print(f"smoke: FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
