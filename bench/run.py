"""Pipeline benchmark for stgp: simulate -> estimate -> save/load -> query.

Run from the repository root:

  python3 bench/run.py --workload fig3 --seed 1 --seconds 30 --trace 0
  python3 bench/run.py --workload all

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(and writes the spans to .bench_out/).  `--workload all` runs every workload
of BENCHMARK.json, each in its own process, and exits non-zero if any output
check fails.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_WORKLOADS = ("fig3", "async", "long_rod")


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; numpy reads these
    variables when it is first imported.  STGP_THREADS stays unset so the
    solver runs its default single-threaded path."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ.pop("STGP_THREADS", None)
    return nproc


def machine(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": nproc, "cpu": cpu, "blas_threads": nproc,
            "stgp_threads": os.environ.get("STGP_THREADS", "unset"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "commit": commit}


def import_program():
    """Import stgp from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import stgp

    if not os.path.abspath(stgp.__file__).startswith(src + os.sep):
        raise ImportError(f"stgp imported from {stgp.__file__}, not {src}")


def run_one(args) -> int:
    nproc = cap_blas_threads()
    import_program()
    import pipeline

    out_dir = os.path.join(ROOT, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        ops, metrics, notes = pipeline.run(
            ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
            work, os.path.join(out_dir, f"spans-{tag}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = machine(nproc)
    print("machine: " + json.dumps(info, sort_keys=True))
    for note in notes:
        print(note)
    for msg in ops.messages:
        print("CHECK FAILED " + msg)
    units = declared_units()
    for name, value in metrics.items():
        print(f"{name:36s} {value:16.6f} {units[name]}")
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"machine": info, "result": result}, fh, indent=2)
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; non-zero exit on any failure."""
    summary, status = {}, 0
    for name in BENCH_WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            summary[name] = None
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=BENCH_WORKLOADS + ("smoke", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
