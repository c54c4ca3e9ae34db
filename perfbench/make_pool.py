"""Regenerate a workload's item pool, or the stored output digests:

    python3 perfbench/make_pool.py WORKLOAD COUNT
    python3 perfbench/make_pool.py digests

Runs COUNT candidate items REPEATS times, timed as run.py times them,
and writes perfbench/pool/WORKLOAD.json with each item's median cost in
reference ms.  An item still running after ABORT_S is stopped, not run
again and kept with status "aborted", so the pool records what the cost
cap in run.py leaves out.  run.py draws every run's items from this
pool, stratified on these costs; the costs are frozen inputs, not
results, so the pool is regenerated only when the workload itself is
redefined.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pipelines  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ABORT_S = 3.0
REPEATS = 3


class Aborted(Exception):
    pass


def _abort(signum, frame):
    raise Aborted


def candidates(workload: str, count: int):
    if workload == "fuzz-welded":
        kinds = [k for k, w in zip(workloads.WELDED_KINDS, workloads.WELDED_WEIGHTS) for _ in range(w)]
        return [[kinds[i % len(kinds)], i + 1] for i in range(count)]
    return [[i + 1] for i in range(count)]


def main(workload: str, count: int):
    lg = run.load_linkgroups()
    wl = run.make_workload(workload)
    runner = wl.runner

    def bounded(lg, item):
        signal.setitimer(signal.ITIMER_REAL, ABORT_S)
        try:
            return runner(lg, item)
        except Aborted:
            return "aborted", ""
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    signal.signal(signal.SIGALRM, _abort)
    wl.runner = bounded
    items = candidates(workload, count)
    costs = [[] for _ in items]
    status = [None] * len(items)
    live = list(range(len(items)))
    for _ in range(REPEATS):
        for i, r in zip(live, run.run_pass(lg, wl, [items[i] for i in live], [])):
            costs[i].append(r.ref_seconds * 1000.0)
            status[i] = r.status
        live = [i for i in live if status[i] != "aborted"]
    pool = [item + [round(statistics.median(c), 3), s] for item, c, s in zip(items, costs, status)]
    os.makedirs(os.path.join(HERE, "pool"), exist_ok=True)
    with open(os.path.join(HERE, "pool", f"{workload}.json"), "w") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")


def record_digests():
    """Digest each output of pass 1 at the default seed into digests.json.
    Record them only from a commit whose outputs are known good."""
    digests = {}
    for name in run.WORKLOAD_NAMES:
        wl = run.make_workload(name)
        lg, passes, _ = run.set_up(wl, run.DEFAULT_SEED)
        results = run.run_pass(lg, wl, passes[0], [])
        digests[name] = [run.digest(r.output) for r in results]
    outputs, errors, _ = pipelines.run_pipelines(pipelines.pipelines(run.DEFAULT_SEED))
    assert not errors, errors
    digests[run.CLI] = [run.digest(out) for out in outputs]
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["digests"]:
        record_digests()
    else:
        main(sys.argv[1], int(sys.argv[2]))
