"""The linkgroups benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a linkgroups checkout: it imports the package
from src/ and the independent oracle from tests/oracles.py.  Everything
runs in this one process, except the CLI processes that the traced run
of invariants-long starts to time the CLI layer (pipelines.py).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The exit status is 0 only when
every output check passed; 2 means the run could not be set up.

Items are drawn by --seed from perfbench/pool/<workload>.json (see
make_pool.py and NOTES.md): the pool is sorted by each item's reference
cost and cut into slots of neighbours, and a pass takes one item from
every slot, so every seed gets the same mix of cheap and costly items.
A run repeats whole passes until --seconds have gone.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from collections import Counter, namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pipelines  # noqa: E402
import refloop  # noqa: E402
import workloads  # noqa: E402
from spans import BATTERY, Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
# the reference loop is timed between units of this much work, and a
# unit is scaled by the mean loop time within REF_WINDOW_S of it: the
# host's speed changes within seconds, and of the windows tried (0.2-3 s,
# median or mean) this one repeated best
UNIT_S = 0.08
REF_WINDOW_S = 2.0
# pool items above this reference cost are left out, because one of them
# would outweigh the rest of a run (NOTES.md gives the share left out)
MAX_ITEM_MS = 1000.0
# output checks: counts into a battery group are checked against the
# brute-force oracle when the group's order ** generators is at most
# ORACLE_ASSIGNMENTS (sym3 and dihedral4 up to 4 generators, alt4 and sym4
# up to 3), for up to ORACLE_SAMPLE presentations with at most ORACLE_GENS
# generators per run
ORACLE_ASSIGNMENTS = 24 ** 3
ORACLE_GENS = 4
ORACLE_SAMPLE = 12
# the CLI pipelines' key in digests.json, and the workload whose traced
# run times and checks them
CLI = "cli-pipeline"
CLI_TRACED_ON = "invariants-long"

_MODULES = ("braid", "cli", "freegroup", "homcount", "markov", "present", "reps")
_CAP_ENV = "LINKGROUPS_HOM_CAP"


class SetupError(RuntimeError):
    """The benchmark cannot run here."""


def load_linkgroups():
    """Import linkgroups afresh from src/ and return its modules."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "linkgroups", "__init__.py")):
        raise SetupError("src/linkgroups not found; run from the root of a linkgroups checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "linkgroups" or n.startswith("linkgroups.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"linkgroups.{m}") for m in _MODULES})


def load_oracles():
    tests = os.path.abspath("tests")
    if not os.path.isfile(os.path.join(tests, "oracles.py")):
        raise SetupError("tests/oracles.py not found; run from the root of a linkgroups checkout")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    return importlib.import_module("oracles")


# ---------------------------------------------------------------------------
# corpus


def load_pool(workload: str):
    """Pool entries are [item fields..., reference ms, status when profiled]."""
    with open(os.path.join(HERE, "pool", f"{workload}.json")) as fh:
        return sorted(json.load(fh), key=lambda e: (e[-2], e))


def draw_passes(pool, slot: int, seed: int):
    """`slot` passes; pass j takes the j-th item of every shuffled slot of
    `slot` cost neighbours, so each pass is a cost-stratified sample."""
    rng = random.Random(seed)
    slots = [pool[i - slot : i] for i in range(len(pool), slot - 1, -slot)]
    for s in slots:
        rng.shuffle(s)
    passes = []
    for j in range(slot):
        p = [s[j] for s in slots]
        rng.shuffle(p)
        passes.append(p)
    return passes


# ---------------------------------------------------------------------------
# the workloads


class Workload:
    def __init__(self, name, runner, slot):
        self.name, self.runner, self.slot = name, runner, slot

    def passes(self, seed):
        pool = [e for e in load_pool(self.name) if e[-2] <= MAX_ITEM_MS]
        return draw_passes(pool, self.slot, seed)


# slot: a pass is 1/slot of the pool, about 5 reference seconds, so a run
# of 20 s overshoots by at most a quarter
WORKLOADS = {
    "fuzz-virtual": (workloads.fuzz_virtual_item, 32),
    "fuzz-welded": (workloads.fuzz_welded_item, 12),
    "invariants-long": (workloads.invariants_item, 34),
}
WORKLOAD_NAMES = tuple(WORKLOADS)


def make_workload(name):
    return Workload(name, *WORKLOADS[name])


# ---------------------------------------------------------------------------
# timing


# seconds as measured, and in reference seconds
Result = namedtuple("Result", "item seconds ref_seconds status output")


def timed_ref(refs):
    refs.append((time.perf_counter(), refloop.ref_ms()))


def run_pass(lg, wl, items, refs):
    """Run the items in units of about UNIT_S, timing the reference loop
    into refs, as (time, ms), between units.  A unit's seconds are scaled
    by NOMINAL_MS / the mean loop time within REF_WINDOW_S of it."""
    units, unit = [], []
    timed_ref(refs)
    start = time.perf_counter()
    for k, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            status, out = wl.runner(lg, item)
        except Exception:  # an unexpected exception fails the item, not the run
            status, out = "error", traceback.format_exc().strip().splitlines()[-1]
        unit.append((item, time.perf_counter() - t0, status, out))
        if sum(u[1] for u in unit) >= UNIT_S or k == len(items) - 1:
            units.append((start, time.perf_counter(), unit))
            timed_ref(refs)
            unit, start = [], time.perf_counter()
    stamps = [t for t, _ in refs]
    results = []
    for start, end, unit in units:
        near = refs[bisect.bisect_left(stamps, start - REF_WINDOW_S) : bisect.bisect_right(stamps, end + REF_WINDOW_S)]
        scale = refloop.NOMINAL_MS / statistics.fmean(ms for _, ms in near)
        results += [Result(it, dt, dt * scale, st, out) for it, dt, st, out in unit]
    return results


def measure(lg, wl, passes, seconds, refs):
    """Whole passes until `seconds` have gone; returns (results, passes run)."""
    results, n = [], 0
    start = time.perf_counter()
    while n == 0 or time.perf_counter() - start < seconds:
        results += run_pass(lg, wl, passes[n % len(passes)], refs)
        n += 1
    return results, n


def set_up(wl, seed):
    """Import the package, build the battery and draw the corpus, several
    times; return the last result and the median set-up time in
    reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = refloop.ref_ms()
        t0 = time.perf_counter()
        lg = load_linkgroups()
        lg.homcount.default_battery()
        passes = wl.passes(seed)
        dt = time.perf_counter() - t0
        times.append(dt * refloop.NOMINAL_MS * 2 / (before + refloop.ref_ms()))
    return lg, passes, statistics.median(times)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------
# output checks (untimed)


def oracle_groups(lg, p):
    return [g for g in BATTERY
            if lg.homcount.builtin_group(g).order ** len(p.generators) <= ORACLE_ASSIGNMENTS]


def brute_counts(oracles, lg, p, groups):
    relators = [r.letters for r in p.relators]
    return {g: oracles.brute_count_homs(p.generators, relators, lg.homcount.builtin_group(g))
            for g in groups}


def small(p):
    return p.relators and len(p.generators) <= ORACLE_GENS


def oracle_failures(lg, wl, oracles, first_pass):
    """Compare the counts of a sample of the workload's presentations with
    the brute-force oracle, in every battery group small enough for it;
    return failure reasons."""
    # the cheaper half of the pass, in pass order
    cheap = sorted(first_pass, key=lambda e: e[-2])[: max(1, len(first_pass) // 2)]
    sample = [e for e in first_pass if e in cheap]
    failures, checked = [], 0

    def compare(what, p, got):
        nonlocal checked
        checked += 1
        groups = oracle_groups(lg, p)
        want = brute_counts(oracles, lg, p, groups)
        got = {g: got[g] for g in groups}
        if got != want:
            failures.append(f"{what}: counts {got}, oracle {want}")

    for entry in sample:
        if checked >= ORACLE_SAMPLE:
            break
        if wl.name == "invariants-long":
            try:
                p = lg.present.tietze_simplify(workloads.build_invariant(lg, entry[0])).presentation
            except lg.freegroup.WordLengthError:
                continue
            if small(p):
                got = {g: lg.homcount.count_homs(p, lg.homcount.builtin_group(g)) for g in oracle_groups(lg, p)}
                compare(f"braid seed {entry[0]}", p, got)
            continue
        captured = []
        wl.runner(lg, entry, captured)
        for p, fp in captured:
            if small(p) and checked < ORACLE_SAMPLE:
                compare(f"item {entry[:-2]}", p, dict(fp.counts))
    return failures + ([] if checked else ["no presentation small enough for the oracle"])


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()[:16]


def digest_failures(name, outputs):
    """Indices of outputs whose digest differs from the one stored for
    `name` in digests.json, and reasons for failures no output owns."""
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return set(), [f"{path} is missing; re-record it with make_pool.py digests"]
    with open(path) as fh:
        want = json.load(fh).get(name)
    if want is None:
        return set(), [f"no digests stored for {name}"]
    got = [None if out is None else digest(out) for out in outputs]
    failed = {i for i, (a, b) in enumerate(zip(got, want)) if a != b}
    reasons = [f"{len(want)} stored digests for {len(got)} outputs of {name}"] if len(got) != len(want) else []
    return failed, reasons


def check(lg, wl, oracles, results, first_pass, seed):
    """Indices of failed results, and reasons for failures no single
    result owns."""
    failed = {i for i, r in enumerate(results) if r.status == "error"}
    reasons = oracle_failures(lg, wl, oracles, first_pass)
    if seed == DEFAULT_SEED:
        bad, why = digest_failures(wl.name, [r.output for r in results[: len(first_pass)]])
        failed |= bad
        reasons += why
    return failed, reasons


def cli_layer(lg, oracles, seed):
    """Run the README pipelines once as CLI processes and check what they
    print; returns (cli.* metrics, pipelines run, failure reasons)."""
    items = pipelines.pipelines(seed)
    outputs, errors, stage_s = pipelines.run_pipelines(items)
    metrics = pipelines.layer_metrics(stage_s, pipelines.import_ms())
    failures = pipelines.check_pipelines(
        lg, items, outputs, errors, lambda p: brute_counts(oracles, lg, p, ["sym3"])["sym3"])
    reasons = [failures[i] for i in sorted(failures)]
    if seed == DEFAULT_SEED:
        bad, why = digest_failures(CLI, outputs)
        reasons += [f"{items[i]}: output digest differs" for i in sorted(bad - set(failures))] + why
    return metrics, len(items), reasons


# ---------------------------------------------------------------------------
# reporting


def run_facts(lg):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    sha = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        if os.path.isdir(".git"):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "git_sha": sha,
        "DEFAULT_CAP": lg.homcount.DEFAULT_CAP,
        "effective_cap": lg.homcount.effective_cap(),
        "TIETZE_BUDGET": lg.present.TIETZE_BUDGET,
        "LETTER_LIMIT": lg.freegroup.LETTER_LIMIT,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def skip_reason(output):
    for name in ("CapExceeded", "WordLengthError"):
        if name in output:
            return name
    return "tietze budget exhausted"


def item_metrics(results, raw=False):
    ms = [(r.seconds if raw else r.ref_seconds) * 1000.0 for r in results]
    return {
        "items_per_s": (len(ms) * 1000.0 / sum(ms), "1/s"),
        "item_ms_p50": (statistics.median(ms), "ms"),
        "item_ms_p90": (quantile(ms, 90), "ms"),
    }


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if os.environ.get(_CAP_ENV):
        print(f"error: {_CAP_ENV} is set; it changes which trials skip, unset it", file=sys.stderr)
        return 2
    # One CPU for this process and the CLI processes it starts, so that the
    # reference loop runs where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = make_workload(args.workload)
    try:
        oracles = load_oracles()
        lg, passes, setup_s = set_up(wl, args.seed)
    except (SetupError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("facts: " + json.dumps(run_facts(lg)))

    refs, first_pass = [], passes[0]
    if args.trace:
        # pass 1 untraced, then traced
        plain = run_pass(lg, wl, first_pass, refs)
        tracer = Tracer()
        tracer.install(lg)
        try:
            traced = run_pass(lg, wl, first_pass, refs)
        finally:
            tracer.uninstall()
        results = plain + traced
        metrics = tracer.metrics(
            sum(r.ref_seconds for r in traced) / sum(r.seconds for r in traced))
        metrics["machine.ref_loop_ms"] = (statistics.median(ms for _, ms in refs), "ms")
        metrics["trace.overhead_ratio"] = (
            sum(r.ref_seconds for r in traced) / sum(r.ref_seconds for r in plain), "ratio")
        detail = {"items": len(first_pass), "active_generators": dict(sorted(tracer.active.items()))}
    else:
        results, n = measure(lg, wl, passes, args.seconds, refs)
        metrics = {"setup_s": (setup_s, "s")}
        metrics.update(item_metrics(results))
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        loop = [ms for _, ms in refs]
        detail = {
            "passes": n, "items": len(results),
            "raw": {k: v for k, (v, _) in item_metrics(results, raw=True).items()},
            "ref_loop_ms": {"median": statistics.median(loop), "min": min(loop), "max": max(loop),
                            "nominal": refloop.NOMINAL_MS},
            "p90_samples_beyond": len(results) // 10,
        }

    failed, reasons = check(lg, wl, oracles, results, first_pass, args.seed)
    cli_items, cli_reasons = 0, []
    if args.trace:
        cli_metrics = pipelines.layer_metrics({}, 0.0)
        if wl.name == CLI_TRACED_ON:
            cli_metrics, cli_items, cli_reasons = cli_layer(lg, oracles, args.seed)
        metrics.update(cli_metrics)
    for i in sorted(failed):
        print(f"FAILED item {results[i].item}: {results[i].output[:300]}", file=sys.stderr)
    for reason in reasons:
        print(f"FAILED check: {reason}", file=sys.stderr)
    for reason in cli_reasons:
        print(f"FAILED pipeline: {reason}", file=sys.stderr)
    # a failure no item owns counts once, unless items failed too
    attempted = len(results) + cli_items
    n_failed = min(len(failed) + (len(reasons) if not failed else 0) + len(cli_reasons), attempted)
    skips = [r for r in results if r.status == "skip"]
    error_ratio, skip_ratio = n_failed / attempted, len(skips) / len(results)
    if args.trace:
        metrics["error_ratio"] = (error_ratio, "ratio")
        metrics["skip_ratio"] = (skip_ratio, "ratio")
    print("detail: " + json.dumps({
        "workload": wl.name, "seed": args.seed, **detail,
        "error_ratio": error_ratio, "skip_ratio": skip_ratio,
        "skip_reasons": Counter(skip_reason(r.output) for r in skips),
    }))
    correct = not failed and not reasons and not cli_reasons
    emit(correct, attempted, n_failed, metrics)
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
