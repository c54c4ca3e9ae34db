"""The README pipelines as `python3 -m linkgroups.cli` processes.

The traced run of invariants-long runs one seeded set of them, stage by
stage, to time the CLI layer (`cli.import_ms`, `cli.run.<subcommand>.ms`)
and to check what each pipeline prints.  Their spread between seeds
(10-17%) kept them from being a workload of their own (NOTES.md).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import workloads

TREFOIL = ("present", "--theory", "virtual", "--strands", "2", "--word", "s1 s1 r1")
HOMCOUNT_SYM3 = ("homcount", "--group", "sym3")
EXAMPLES = ("examples",)
SUBCOMMANDS = ("present", "simplify", "abelianize", "homcount", "check-relations", "examples")
_REPS = ("artin", "virtual", "welded", "wada1", "wada2", "wada3", "wada4")


def pipelines(seed: int):
    """The trefoil's sym3 count, the worked examples, and two seeded
    instances each of present | simplify | abelianize, present | homcount
    --group sym3 and check-relations; a pipeline is a tuple of stages."""
    rng = random.Random(seed)

    def present_stage():
        theory = rng.choice(workloads.INVARIANT_THEORIES)
        n = rng.randint(2, 4)
        word = workloads.braid_text(workloads.braid_letters(rng, n, rng.randint(3, 8), theory))
        return ("present", "--theory", theory, "--strands", str(n), "--word", word)

    def check_stage():
        rep = rng.choice(_REPS)
        args = ("check-relations", "--rep", rep, "--strands", str(rng.randint(3, 5)))
        return args + ("--include-forbidden",) if rep == "virtual" and rng.random() < 0.5 else args

    items = [(TREFOIL, HOMCOUNT_SYM3), (EXAMPLES,)]
    for _ in range(2):
        items += [(present_stage(), ("simplify",), ("abelianize",)),
                  (present_stage(), HOMCOUNT_SYM3),
                  (check_stage(),)]
    rng.shuffle(items)
    return items


def cli_env():
    return dict(os.environ, PYTHONPATH=os.path.abspath("src"))


def run_pipelines(items):
    """Run each pipeline, feeding a stage the previous stage's stdout.
    Returns the outputs (the stages' stdout joined, or None with the error
    in errors) and each subcommand's stage times in seconds."""
    env, stage_s, outputs, errors = cli_env(), defaultdict(list), [], {}
    for i, item in enumerate(items):
        outs, data = [], ""
        for args in item:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "linkgroups.cli", *args], input=data,
                                  capture_output=True, text=True, env=env, timeout=120)
            stage_s[args[0]].append(time.perf_counter() - t0)
            if proc.returncode:
                errors[i] = f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()}"
                break
            outs.append(proc.stdout)
            data = proc.stdout
        outputs.append(None if i in errors else "".join(outs))
    return outputs, errors, stage_s


def in_process(lg, item):
    """The stdout the pipeline should print, from the package in this process."""
    outs, data = [], ""
    for args in item:
        out, saved = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(data)
        try:
            with contextlib.redirect_stdout(out):
                code = lg.cli.run(list(args))
        finally:
            sys.stdin = saved
        if code:
            return None
        outs.append(out.getvalue())
        data = out.getvalue()
    return "".join(outs)


def check_pipelines(lg, items, outputs, errors, oracle_sym3):
    """A failure reason for each pipeline that failed, by index: a stage
    exited non-zero, the stdout differs from the in-process output, the
    trefoil did not print 30, examples printed a line other than PASS, or
    a sym3 count differs from oracle_sym3(presentation)."""
    failures = dict(errors)
    for i, (item, out) in enumerate(zip(items, outputs)):
        if out is None:
            continue
        lines = out.splitlines()
        if out != in_process(lg, item):
            failures[i] = f"{item}: stdout differs from the in-process output"
        elif item[0] == TREFOIL and lines[-1:] != ["30"]:
            failures[i] = f"{item}: trefoil printed {lines[-1:]}, want 30"
        elif item == (EXAMPLES,) and not all(l.startswith("PASS") for l in lines):
            failures[i] = f"{item}: a worked example did not PASS"
        elif item[-1] == HOMCOUNT_SYM3:
            want = oracle_sym3(lg.present.parse_presentation(in_process(lg, item[:1])))
            if lines[-1:] != [str(want)]:
                failures[i] = f"{item}: sym3 count {lines[-1:]}, oracle {want}"
    return failures


def import_ms(repeats: int = 5):
    """Median self-and-children time of importing linkgroups.cli, in ms,
    from `python3 -X importtime`; 0.0 if it could not be read."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import linkgroups.cli"],
                              capture_output=True, text=True, env=cli_env(), timeout=60)
        for line in proc.stderr.splitlines():
            if line.rstrip().endswith("| linkgroups.cli"):
                samples.append(int(line.split("|")[1]) / 1000.0)
    return statistics.median(samples) if samples else 0.0


def layer_metrics(stage_s, import_time_ms):
    """cli.* per-layer metrics; all zero when no pipeline ran."""
    out = {"cli.import_ms": (import_time_ms, "ms")}
    for sub in SUBCOMMANDS:
        times = stage_s.get(sub)
        out[f"cli.run.{sub}.ms"] = (statistics.median(times) * 1000.0 if times else 0.0, "ms")
    return out
