"""Check that the correctness gates can fail: a corrupted golden value
must give a non-zero fail_ratio.

    python3 perfbench/selfcheck.py

Runs a short syk_route (the N=16 items) and the smallest oracle_small case
through the same measurement code as a benchmark run: once against the
recorded golden values, where fail_ratio must be 0, and once against a
copy with one value changed, where it must be above 0.  Exits 0 when all
four hold.
"""

import os
import shutil
import sys

import bench
from workloads import SYK_ITEMS, OracleSmall, SykRoute, load_golden


def fail_ratio(wl) -> float:
    workdir = os.path.join(bench.OUT_DIR, f"selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, _, _ = bench.measure(wl, seed=1, seconds=0.1, trace=False, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result["failed"] / result["attempted"]


def main() -> int:
    golden = load_golden()
    rows = list(golden["syk_route_rows"])
    fields = rows[0].split(",")
    fields[4] = str(int(fields[4]) + 1)  # total_weight of the first row
    bad_rows = [",".join(fields)] + rows[1:]
    dims = dict(golden["oracle_codespace_dim"])
    bad_dims = dict(dims, square2x3_open_jw=dims["square2x3_open_jw"] + 1)

    syk_items = [item for item in SYK_ITEMS if item[1] == 16]
    cases = ["square2x3_open_jw"]
    checks = [
        ("syk_route, recorded golden", SykRoute(rows, syk_items), False),
        ("syk_route, corrupted golden", SykRoute(bad_rows, syk_items), True),
        ("oracle_small, recorded golden", OracleSmall(dims, cases), False),
        ("oracle_small, corrupted golden", OracleSmall(bad_dims, cases), True),
    ]
    ok = True
    for label, wl, expect_failure in checks:
        ratio = fail_ratio(wl)
        good = (ratio > 0) == expect_failure
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: fail_ratio {ratio:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
