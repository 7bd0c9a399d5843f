#!/usr/bin/env python3
"""Benchmark of the factorlens CLI: four workloads, end-to-end and per-layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload calibrate-p20 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --quick --seconds 1

The package is imported from ``src/`` of the checkout, never from an
installed copy. One run sets up several times, then repeats whole rounds of
its workload for ``--seconds`` and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_results")
WORKLOADS = ("calibrate-p20", "calibrate-p100", "power-s1", "empirical")
SETUPS = 3  # set-ups per run, each an import in a fresh interpreter plus input preparation


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small sizes, every check on")
    return parser.parse_args(argv)


def _blas() -> dict:
    """OpenBLAS builds bundled with numpy and scipy, with their thread counts."""
    import ctypes
    import glob

    info = {}
    for pkg in ("numpy", "scipy"):
        mod = __import__(pkg)
        libs = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), f"{pkg}.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for suffix in ("64_", ""):  # numpy bundles the ILP64 build, scipy the LP64 one
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if config and threads:
                    config.restype = ctypes.c_char_p
                    info[pkg] = {"config": config().decode().strip(), "threads": int(threads())}
                    break
    return info


def _import_seconds() -> float:
    """Import time of the CLI module in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import factorlens.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], stdout=subprocess.PIPE,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def _run_all(args) -> int:
    """Each workload in a fresh process, so that one peak RSS does not carry over."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(f"== {name}\n{proc.stdout}", end="", flush=True)
        status = status or proc.returncode
    return status


def _median(values):
    return statistics.median(values) if values else 0.0  # no sample: the first operation failed


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not os.path.isfile(os.path.join(SRC, "factorlens", "__init__.py")):
        print(f"perfbench: no factorlens sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import factorlens.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported factorlens from {cli.__file__}", file=sys.stderr)
        return 2

    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    wl = workloads.make(args.workload, args.seed, args.quick, work, cli)
    tracer = spans.Tracer() if args.trace else None
    correct, problem = True, None
    try:
        setup_s = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            wl.prepare()
            setup_s.append(time.perf_counter() - t0 + _import_seconds())
        wl.reset()
        if tracer:
            tracer.install()
            wl.begin_op, wl.untraced = tracer.begin_op, tracer.paused
        began = time.perf_counter()
        rounds = 0
        try:
            while rounds == 0 or time.perf_counter() - began < args.seconds:
                wl.round()
                rounds += 1
        except workloads.CheckFailed as exc:
            correct, problem = False, str(exc)
        finally:
            if tracer:
                tracer.uninstall()
        measured_s = time.perf_counter() - began
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "cmd_ms_p50": (_median(wl.cmd_ms), "ms"),
        "items_per_s": (_median(wl.items_per_s), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    detail = {f"raw_{k}_p50": _median(v) for k, v in wl.raw.items()}
    if len(wl.cmd_ms) >= 100:
        detail["raw_cmd_ms_p90"] = _percentile(wl.raw["cmd_ms"], 90)
    metrics = spans.layer_metrics(tracer, wl.sizes) if tracer else end_to_end

    label = "traced" if tracer else "untraced"
    print(f"{args.workload} seed={args.seed} {label}: {rounds} rounds in {measured_s:.2f} s, "
          f"{wl.attempted} operations, {wl.failed} failed, {len(wl.cmd_ms)} cmd_ms samples")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name} = {value:.6g} {unit}" + ("  (traced)" if tracer else ""))
    for name, value in detail.items():
        print(f"  detail {name} = {value:.6g}")
    if tracer:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    if problem:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
                   "detail": detail, "rounds": rounds, "quick": args.quick,
                   "versions": {"python": sys.version.split()[0],
                                "numpy": __import__("numpy").__version__,
                                "scipy": __import__("scipy").__version__},
                   "blas": _blas()}, fh, indent=1)
    if tracer:
        tracer.dump(stem + ".spans.json")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
