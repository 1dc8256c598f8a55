#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` package (see ``BENCHMARK.json``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload int_tapwise_f4 --seed 1 --seconds 30 --trace 0

Workloads: ``serve_saturated`` (closed loop, 32 requests outstanding, on
``Server``), ``int_tapwise_f4`` (``integer_winograd_conv2d`` over ResNet-20's
3x3 layers) and ``train_qat_dp`` (``DataParallelTrainer`` steps under tap-wise
F4 QAT).

Each measurement runs in a child process (``workloads.py``) whose
environment this script pins before numpy can load: one BLAS/OpenMP thread,
observability off, default backend and autotune mode, and empty plan and
codegen cache directories of its own inside the checkout.  With
``--trace 0`` the result carries the end-to-end metrics: ``setup_s`` is the
median over several fresh processes (interpreter start to first timed
operation); latency and throughput come from the last one's timed phase.
With ``--trace 1`` one child alternates untraced and traced phases and the
result carries the per-layer metrics.  The last line of standard output is
the result as JSON; the command exits non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_saturated", "int_tapwise_f4", "train_qat_dp")
SETUP_SAMPLES = 5
# Every child of one run must end within SETUP_SAMPLES set-up allowances
# plus twice the measured time (the timed phase, its warm-up and checks).
CHILD_SETUP_ALLOWANCE_S = 20.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
# Left unset so the library runs at its defaults: observability off, the
# default kernel backend, autotune mode and codegen settings.
UNSET = ("REPRO_OBS", "REPRO_TRACE", "REPRO_KERNEL_BACKEND", "REPRO_AUTOTUNE",
         "REPRO_CODEGEN", "REPRO_CODEGEN_EMITTER")


def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    for var in UNSET:
        env.pop(var, None)
    env["REPRO_PLAN_CACHE"] = str(cache_dir / "plans")
    env["REPRO_CODEGEN_CACHE"] = str(cache_dir / "codegen")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def run_child(args, role: str, work_dir: Path, index: int,
              deadline: float) -> dict:
    """One fresh process; returns its result, or raises if it failed.

    The child leads its own process group, so a child that overruns the
    run's deadline is killed together with any pool workers it forked.
    """
    cache_dir = Path(tempfile.mkdtemp(prefix=f"{role}{index}-", dir=work_dir))
    out = cache_dir / "result.json"
    env = child_env(cache_dir)
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--role", role, "--out", str(out)]
    t0 = time.monotonic()
    proc = subprocess.Popen(command + ["--t0", repr(t0)], env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(deadline - t0, 0.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{role} process overran the run's time budget")
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(out.read_text())


def report(name: str, value, unit: str) -> None:
    print(f"{name:44s} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro package.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    deadline = (time.monotonic() + SETUP_SAMPLES * CHILD_SETUP_ALLOWANCE_S
                + 2 * args.seconds)
    try:
        # Bytecode is compiled once up front, so no set-up sample pays for it.
        compileall.compile_dir(str(ROOT / "src"), quiet=1)
        compileall.compile_dir(str(HERE), quiet=1)
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(run_child(args, "setup", work_dir, i,
                                        deadline)["setup_s"])
        result = run_child(args, "run", work_dir, SETUP_SAMPLES, deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    setups.append(result["setup_s"])
    e2e = dict(result["end_to_end"], setup_s=statistics.median(setups))
    print(f"\nworkload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment:", json.dumps(result["environment"]))
    print(f"operations: attempted {result['attempted']}, succeeded "
          f"{result['attempted'] - result['failed']}, failed {result['failed']}")
    print("checks:", *result["checks"], sep="\n  ")
    print("diagnostics:", json.dumps(result["diagnostics"]))
    print(f"setup samples (s): {setups}")
    print("end-to-end metrics" + (" (untraced phases of the traced run)"
                                  if args.trace else ""))
    for name, value in e2e.items():
        report(name, value, units[name])
    metrics = e2e
    if args.trace:
        print("per-layer metrics (traced phases)")
        for name, value in result["per_layer"].items():
            report(name, value, units[name])
        metrics = result["per_layer"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
