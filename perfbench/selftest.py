"""Self-test of the benchmark: python3 perfbench/selftest.py [WORKLOAD...]

From the root of a checkout, for each workload (all by default):
  * a short run with --trace 0 and with --trace 1 must pass its output
    checks and emit exactly the metrics BENCHMARK.json names, with their
    units;
  * a run in which count_homs answers one too many must fail its output
    checks and exit non-zero; on the fuzz workloads also when only the
    sym4 counts are wrong, at the default seed and at another.
Finally, run.py must refuse, without printing a result, in a directory
holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def result_of(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_metrics(workload, spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=180)
        res = result_of(proc.stdout)
        assert proc.returncode == 0 and res and res["correct"], (workload, trace, proc.stderr[-2000:])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want, (workload, trace, set(got) ^ set(want))
        print(f"ok {workload} --trace {trace}: {len(got)} metrics")


def check_corruption_fails(workload, seed, group=None):
    """count_homs answers one too many (only into `group`, if given)."""
    load = run.load_linkgroups

    def corrupted():
        lg = load()
        count_homs = lg.homcount.count_homs
        lg.homcount.count_homs = lambda p, g, *a, **k: count_homs(p, g, *a, **k) + (group in (None, g.name))
        return lg

    run.load_linkgroups = corrupted
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1"])
    finally:
        run.load_linkgroups = load
    res = result_of(out.getvalue())
    assert code != 0 and res and not res["correct"] and res["failed"] > 0, (workload, seed, group, code, res)
    print(f"ok {workload} seed {seed}: count_homs +1 into {group or 'every group'} "
          f"fails {res['failed']} of {res['attempted']} items")


def check_refuses_without_package():
    with tempfile.TemporaryDirectory(dir=".") as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fuzz-welded", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and result_of(proc.stdout) is None, proc.stdout
    print(f"ok refuses without the package: exit {proc.returncode}: {proc.stderr.strip()}")


def main(argv):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    for workload in argv or run.WORKLOAD_NAMES:
        check_metrics(workload, spec)
        check_corruption_fails(workload, run.DEFAULT_SEED)
        if workload.startswith("fuzz-"):
            # the digests of the default seed and, at any seed, the oracle
            # must see a wrong count in a single group
            for seed in (run.DEFAULT_SEED, 7):
                check_corruption_fails(workload, seed, "sym4")
    check_refuses_without_package()


if __name__ == "__main__":
    main(sys.argv[1:])
