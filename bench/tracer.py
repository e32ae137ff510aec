"""Spans around the public functions of each cyclolab layer, recorded from
outside the package.

``Tracer.install()`` replaces every binding of a traced function, in every
``cyclolab`` module that holds it, with a wrapper that records a span: its
id, parent id, name, start, end, query id and amount.  A span opened on a
worker thread with nothing open on that thread takes as parent the span
the main thread has open, the call that started the workers.  Self time
is a span's duration minus the part of it that its children, on any
thread, cover.  Spans stay in memory until ``uninstall()`` and
``layer_metrics()`` at the end of the run.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

from cyclolab import cli, cyclotomic

# (module, attribute, span name, amount): ``amount(*args)`` adds to the
# span name's ``rows`` or ``points`` count.  Methods are given as
# "Class.method"; several functions may share one span name.
TRACED = (
    ("cyclotomic", "CyclotomicNumber.__mul__", "cyclotomic.mul", None),
    ("cyclotomic", "CyclotomicNumber.canonical", "cyclotomic.canonical", None),
    ("cyclotomic", "CyclotomicNumber.inverse", "cyclotomic.inverse", None),
    ("cyclotomic", "CyclotomicNumber.galois_conjugate", "cyclotomic.galois_conjugate", None),
    ("cyclotomic", "cyclotomic_polynomial", "cyclotomic.cyclotomic_polynomial", None),
    ("lattice", "lll_reduce", "lattice.lll_reduce", lambda basis, *a, **k: len(basis)),
    ("lattice", "hnf", "lattice.hnf", None),
    ("kummer", "root_membership_oracle", "kummer.root_membership_oracle", None),
    ("kummer", "rank1_failure", "kummer.rank1_failure", None),
    ("kummer", "sqrt_as_cyclotomic", "kummer.sqrt_as_cyclotomic", None),
    ("flatsums", "is_flat", "flatsums.is_flat", None),
    ("flatsums", "reduce_instance", "flatsums.reduce_instance", None),
    ("flatsums", "validate_definition", "flatsums.validate_definition", None),
    ("flatsums", "flat_search", "flatsums.flat_search", None),
    ("flatsums", "sn_survey", "flatsums.sn_survey", None),
    ("equidist", "arc_count", "equidist.arc_count", lambda orbit, *a, **k: orbit.m),
    ("equidist", "weyl_sum", "equidist.weyl_sum", None),
    ("radical", "orbit_moduli", "radical.orbit", lambda x, *a, **k: x.context.orbit_size()),
    ("radical", "d_gamma_eps", "radical.orbit", lambda x, *a, **k: x.context.orbit_size()),
    ("radical", "sigma_search", "radical.orbit", lambda x, *a, **k: x.context.orbit_size()),
    ("radical", "apply_galois", "radical.apply_galois", None),
    ("radical", "parse_radical_sum", "radical.parse_radical_sum", None),
    ("radical", "marginal_orbit_stats", "radical.marginal_orbit_stats", None),
    ("heights", "resultant", "heights.resultant", None),
    ("heights", "power_transform", "heights.power_transform", None),
    ("heights", "poly_roots", "heights.poly_roots", None),
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
)
ROOT = "bench.query"

# name, unit, better.  Counts repeat exactly between two traced runs with
# the same seed; self times and ratios are measured.
PER_LAYER = (
    ("cyclotomic.mul.calls", "count", "lower"),
    ("cyclotomic.mul.self_s", "s", "lower"),
    ("cyclotomic.canonical.calls", "count", "lower"),
    ("cyclotomic.canonical.self_s", "s", "lower"),
    ("cyclotomic.inverse.calls", "count", "lower"),
    ("cyclotomic.inverse.self_s", "s", "lower"),
    ("cyclotomic.galois_conjugate.calls", "count", "lower"),
    ("cyclotomic.galois_conjugate.self_s", "s", "lower"),
    ("cyclotomic.cyclotomic_polynomial.misses", "count", "lower"),
    ("cyclotomic.cyclotomic_polynomial.self_s", "s", "lower"),
    ("lattice.lll_reduce.calls", "count", "lower"),
    ("lattice.lll_reduce.rows", "count", "lower"),
    ("lattice.lll_reduce.self_s", "s", "lower"),
    ("lattice.hnf.calls", "count", "lower"),
    ("lattice.hnf.self_s", "s", "lower"),
    ("kummer.root_membership_oracle.calls", "count", "lower"),
    ("kummer.root_membership_oracle.self_s", "s", "lower"),
    ("kummer.oracle.lll_per_answer", "ratio", "lower"),
    ("kummer.rank1_failure.calls", "count", "lower"),
    ("kummer.rank1_failure.self_s", "s", "lower"),
    ("kummer.sqrt_as_cyclotomic.calls", "count", "lower"),
    ("kummer.known_defects.failed", "count", "lower"),
    ("flatsums.is_flat.calls", "count", "lower"),
    ("flatsums.is_flat.self_s", "s", "lower"),
    ("flatsums.reduce_instance.self_s", "s", "lower"),
    ("flatsums.validate_definition.self_s", "s", "lower"),
    ("flatsums.flat_search.calls", "count", "lower"),
    ("flatsums.flat_search.self_s", "s", "lower"),
    ("flatsums.sn_survey.self_s", "s", "lower"),
    ("equidist.arc_count.calls", "count", "lower"),
    ("equidist.arc_count.points", "count", "lower"),
    ("equidist.arc_count.self_s", "s", "lower"),
    ("equidist.weyl_sum.calls", "count", "lower"),
    ("equidist.weyl_sum.self_s", "s", "lower"),
    ("radical.orbit.points", "count", "lower"),
    ("radical.orbit.self_s", "s", "lower"),
    ("radical.apply_galois.calls", "count", "lower"),
    ("radical.apply_galois.self_s", "s", "lower"),
    ("radical.parse_radical_sum.self_s", "s", "lower"),
    ("radical.marginal_orbit_stats.self_s", "s", "lower"),
    ("heights.resultant.calls", "count", "lower"),
    ("heights.resultant.self_s", "s", "lower"),
    ("heights.power_transform.self_s", "s", "lower"),
    ("heights.poly_roots.calls", "count", "lower"),
    ("heights.poly_roots.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.build_parser.self_s", "s", "lower"),
    ("cli.handler.calls", "count", "lower"),
    ("cli.handler.self_s", "s", "lower"),
    ("cli.cache.hit_ratio", "ratio", "higher"),
    ("cli.cache.compute_skipped_ratio", "ratio", "higher"),
    ("bench.query.self_s", "s", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    qid: int | None
    amount: int  # adds to the span name's ``rows`` or ``points`` count


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.qid = None
        self._ids = itertools.count(1)
        self._main = []  # ids of the spans open on the main thread
        self._local = threading.local()
        self._undo = []
        self._poly_cache = cyclotomic.cyclotomic_polynomial  # the lru_cache object
        self._misses0 = 0

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, amount=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = amount(*args, **kwargs) if amount is not None else 0
            stack = tracer._stack()
            # a worker thread's outermost span belongs to the main thread's
            # open span, which waits for the workers
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else None)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, t0, t1, tracer.qid, n))

        return traced

    def _rebind(self, original, replacement):
        """Replace ``original`` wherever a cyclolab module binds it."""
        for modname, module in list(sys.modules.items()):
            if modname == "cyclolab" or modname.startswith("cyclolab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
                        self._undo.append((module, attr, original))

    def install(self):
        cls = cyclotomic.CyclotomicNumber
        for modname, attr, name, amount in TRACED:
            module = sys.modules[f"cyclolab.{modname}"]
            if "." in attr:
                _, method = attr.split(".")
                original = vars(cls)[method]
                wrapped = self.wrap(name, original, amount)
                # __rmul__ is the same function object as __mul__
                for other, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, other, wrapped)
                        self._undo.append((cls, other, original))
            else:
                original = getattr(module, attr)
                self._rebind(original, self.wrap(name, original, amount))
        for command, handler in list(cli.HANDLERS.items()):
            cli.HANDLERS[command] = self.wrap("cli.handler", handler)
            self._undo.append((cli.HANDLERS, command, handler))
        self._misses0 = self._poly_cache.cache_info().misses

    def uninstall(self):
        self.misses = self._poly_cache.cache_info().misses - self._misses0
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def query(self, qid: int, fn):
        """Run one query under a root span."""
        self.qid = qid
        try:
            return self.wrap(ROOT, fn)()
        finally:
            self.qid = None

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals,
        so workers running side by side are not subtracted twice."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        out = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for a, b in sorted(children[span.id]):
                a, b = max(a, reach), min(b, span.end)
                if b > a:
                    covered += b - a
                reach = max(reach, b)
            out[span.id] = span.end - span.start - covered
        return out

    def layer_metrics(self, loop_s: float, rerun_qids: set, cli_cached: list) -> dict:
        """The PER_LAYER metrics except the ones the caller measures
        (``trace.overhead_ratio`` and ``kummer.known_defects.failed``)."""
        own = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        amounts = defaultdict(int)
        parents = {}
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += own[span.id]
            amounts[span.name] += span.amount
            parents[span.id] = (span.parent, span.name)
        out = {}
        for metric, _, _ in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[layer]
            elif field == "self_s":
                out[metric] = self_s[layer]
            elif field in ("rows", "points"):
                out[metric] = amounts[layer]
        out["cyclotomic.cyclotomic_polynomial.misses"] = self.misses

        def under_oracle(sid):
            while sid is not None:
                sid, name = parents[sid]
                if name == "kummer.root_membership_oracle":
                    return True
            return False

        oracle_lll = sum(1 for span in self.spans
                         if span.name == "lattice.lll_reduce" and under_oracle(span.parent))
        answers = calls["kummer.root_membership_oracle"]
        out["kummer.oracle.lll_per_answer"] = oracle_lll / answers if answers else 0.0
        lookups = len(cli_cached)
        out["cli.cache.hit_ratio"] = sum(cli_cached) / lookups if lookups else 0.0
        handled = {span.qid for span in self.spans if span.name == "cli.handler"}
        cli_reruns = {span.qid for span in self.spans
                      if span.name == "cli.main" and span.qid in rerun_qids}
        out["cli.cache.compute_skipped_ratio"] = (
            len(cli_reruns - handled) / len(cli_reruns) if cli_reruns else 0.0)
        # the part of the loop that the layers' spans cover: query spans
        # minus the benchmark's own code inside them
        in_layers = sum(span.end - span.start - own[span.id]
                        for span in self.spans if span.name == ROOT)
        out["trace.layer_share"] = in_layers / loop_s
        return out
