#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at quick size, every check on.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

For each workload it runs one untraced and two traced quick runs and checks
that each is correct with no failed operation, that the metric names and
units are those of BENCHMARK.json, and that the two traced runs give
identical count metrics. It then checks that the benchmark refuses to run,
without printing a result, in a directory holding only BENCHMARK.json and
the benchmark's own files. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _run(cwd: str, workload: str, trace: int, seed: int = 5) -> tuple[int, str]:
    cmd = [sys.executable, os.path.relpath(RUN, ROOT), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        results = []
        for trace in (0, 1, 1):
            code, out = _run(ROOT, w, trace)
            r = _result(out)
            results.append(r)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if code != 0 or not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{w} trace={trace}: exit {code}, result {r}")
            if got != want[trace]:
                problems.append(f"{w} trace={trace}: metrics {sorted(got)} differ from BENCHMARK.json")
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in results[1:]]
        if counts[0] != counts[1]:
            problems.append(f"{w}: traced counts differ: {counts[0]} vs {counts[1]}")
        print(f"{w}: {'ok' if not problems else 'problems so far'}", flush=True)

    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "_results"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("_results", "__pycache__"))
        code, out = _run(bare, bench["workloads"][0]["name"], 0)
        if code == 0 or out.strip():
            problems.append(f"benchmark without sources exited {code} with output {out!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
