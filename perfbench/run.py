"""Benchmark launcher: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs one workload in a fresh child process with a pinned environment
(``PYTHONHASHSEED=0``, one BLAS/OpenMP thread, ``src/`` on the path),
so every run starts from the same interpreter state and its peak RSS is
its own.  The child's stdout passes through; its last line is the JSON
result.  Workloads, metrics and their meaning are described in
``perfbench/README.md``.

Exit status: the child's (0 = all correctness checks passed), 2 when
the repository sources are missing, 3 when the child overran its time
limit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("adapt_ckpt", "adapt_exact", "serve_chaos")
#: the child is killed past this; a run must end within 180 s
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test switches: smallest sizes; corrupt one reference decision
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tamper-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(work),
        PYTHONPATH=os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p
        ),
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work / "run"),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.tamper_reference:
        cmd.append("--tamper-reference")
    # a terminated launcher still stops its child (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: {args.workload} overran {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
