"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload <syk_route|lattice_io|oracle_small> \
        --seed <n> --seconds <s> --trace <0|1>

The workload runs in a child process of its own, so that its peak memory
is that workload's alone, with the OpenBLAS/OpenMP thread count pinned to
the CPUs this process may use.  The child's output passes through; its last
line is the result object.  fermigraph is read from ``src/``, with no
install step.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: A run must end within 180 s; stop a child that would overrun.
TIMEOUT_S = 175


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "fermigraph", "__init__.py")):
        print(f"run.py: no fermigraph sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
