"""Spans around the calls into each linkgroups layer, for the traced run.

The wrappers replace the bindings that callers actually look up:
`markov` imports fingerprint, tietze_simplify and the group builders by
name, `fingerprint` finds count_homs and abelian_invariants as homcount
globals, and the builders reach the free-group action through
`reps.Representation.evaluate`.  A layer's self time is its spans'
duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

BATTERY = ("sym3", "dihedral4", "alt4", "sym4")
_BUILDERS = ("group_of_virtual_link", "group_of_welded_link", "group_of_classical_link", "wada_group")


def active_generators(p) -> int:
    """The number of generators that occur in some relator."""
    return len({abs(v) for r in p.relators for v in r.letters})


class Tracer:
    def __init__(self):
        self._stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.call_s = defaultdict(list)
        self.presentations = set()
        self.active = Counter()  # fingerprint calls by generators occurring in relators
        self._undo = []

    def _wrap(self, name, fn, observe=None, label=None):
        """A wrapper that records a span of `name` (or of label(args)) and
        hands (args, result) to observe."""
        stack, self_s, calls, call_s = self._stack, self.self_s, self.calls, self.call_s

        def traced(*args, **kwargs):
            layer = label(args) if label else name
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self_s[layer] += dt - child
                calls[layer] += 1
                call_s[layer].append(dt)
            if observe:
                observe(args, result)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, lg):
        counts = self.counts

        def on_evaluate(args, e):
            counts["reps.evaluate.letters_out"] += sum(len(w) for w in e.images.values())

        def on_tietze(args, res):
            counts["present.tietze.steps"] += res.steps
            counts["present.tietze.letters_in"] += args[0].total_letters()
            counts["present.tietze.letters_out"] += res.presentation.total_letters()
            counts["present.tietze.exhausted"] += int(res.exhausted)

        def on_fingerprint(args, fp):
            p = args[0]
            self.presentations.add(p)
            self.active[active_generators(p)] += 1

        evaluate = lg.reps.Representation.evaluate
        self._patch(lg.reps.Representation, "evaluate", self._wrap("reps.evaluate", evaluate, on_evaluate))
        for module in (lg.present, lg.markov):
            for attr in _BUILDERS:
                if hasattr(module, attr):
                    self._patch(module, attr, self._wrap("present.build", getattr(module, attr)))
            self._patch(module, "tietze_simplify", self._wrap("present.tietze", module.tietze_simplify, on_tietze))
        for module in (lg.present, lg.homcount):
            self._patch(module, "abelian_invariants", self._wrap("present.snf", module.abelian_invariants))
        self._patch(lg.homcount, "count_homs", self._count_homs(lg.homcount))
        self._patch(lg.markov, "fingerprint", self._wrap("homcount.fingerprint", lg.markov.fingerprint, on_fingerprint))
        self._patch(lg.markov, "random_move", self._wrap("markov.random_move", lg.markov.random_move))

    def _count_homs(self, homcount):
        counts = self.counts
        count_homs, cap_exceeded = homcount.count_homs, homcount.CapExceeded
        traced = self._wrap(None, count_homs, label=lambda args: f"homcount.{args[1].name}")

        def wrapper(p, g, *args, **kwargs):
            counts[f"homcount.{g.name}.assignment_bound"] += g.order ** active_generators(p)
            try:
                return traced(p, g, *args, **kwargs)
            except cap_exceeded:
                counts[f"homcount.{g.name}.cap_exceeded"] += 1
                raise

        return wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, scale: float) -> dict:
        """Per-layer values; seconds are scaled to reference seconds."""
        out = {}
        for layer in ("reps.evaluate", "present.build", "present.tietze", "present.snf",
                      "homcount.fingerprint", "markov.random_move"):
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.s"] = (self.self_s[layer] * scale, "s")
        out["reps.evaluate.letters_out"] = (self.counts["reps.evaluate.letters_out"], "count")
        for key in ("steps", "letters_in", "letters_out", "exhausted"):
            out[f"present.tietze.{key}"] = (self.counts[f"present.tietze.{key}"], "count")
        fp_calls = self.calls["homcount.fingerprint"]
        out["homcount.fingerprint.distinct_ratio"] = (
            len(self.presentations) / fp_calls if fp_calls else 0.0, "ratio")
        for g in BATTERY:
            layer = f"homcount.{g}"
            ms = sorted(dt * scale * 1000.0 for dt in self.call_s[layer])
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.s"] = (self.self_s[layer] * scale, "s")
            out[f"{layer}.ms_p50"] = (ms[len(ms) // 2] if ms else 0.0, "ms")
            out[f"{layer}.ms_max"] = (ms[-1] if ms else 0.0, "ms")
            out[f"{layer}.assignment_bound"] = (self.counts[f"{layer}.assignment_bound"], "count")
            out[f"{layer}.cap_exceeded"] = (self.counts[f"{layer}.cap_exceeded"], "count")
        return out
