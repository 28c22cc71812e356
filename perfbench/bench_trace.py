"""Span recording around calls into splitkit's six layers.

Tracing lives entirely in the benchmark: :class:`Tracer` replaces the
public entry points of each layer (module functions, the instances'
``triple`` methods, and the ``resolve``/``forward``/``prepare`` methods of
live operator instances) with wrappers that record one span per call, and
puts the originals back on :meth:`Tracer.uninstall`.  Spans carry a parent
link, stay in memory while the benchmark runs, and are written out once at
the end.
"""

import time
import weakref
from array import array

import numpy as np

#: A span: name id, index of the parent span (-1 for a root), start and
#: end in seconds of ``time.perf_counter``.
SPAN_DTYPE = [("name", "i4"), ("parent", "i8"), ("t0", "f8"), ("t1", "f8")]


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers.

    Spans are recorded into four typed arrays, one per SPAN_DTYPE field.
    Unlike a list of tuples they allocate no objects the garbage collector
    tracks, so tracing a call does not bring collections forward.
    ``counts`` accumulates work counts reported by result hooks
    (iterations, oracle counters, certified k, flow steps).
    """

    def __init__(self, splitkit):
        self.sk = splitkit
        self.names = []
        self._name_ids = {}
        self._fields = (array("i"), array("q"), array("d"), array("d"))
        self._stack = [-1]
        self.counts = {}
        self._saved = []
        self._wrapped_ops = []

    # -- recording -----------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self.name_id(name)
        names, parents, t0s, t1s = self._fields
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(t1s)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            push(idx)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_oracle(self, name, fn, arity):
        """:meth:`wrap` for an operator method called with ``arity`` (1 or
        2) positional arguments and no result hook.

        Fixed parameters spare the argument tuple and keyword dict that
        ``wrap`` builds per call, which makes the hottest spans about a
        third cheaper and allocates nothing the garbage collector tracks.
        """
        nid = self.name_id(name)
        names, parents, t0s, t1s = self._fields
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter

        # The two closures differ only in their parameters; the recording
        # is inlined in both, as a shared helper would cost a call.
        if arity == 1:
            def traced(a):
                idx = len(t1s)
                names.append(nid)
                parents.append(stack[-1])
                t1s.append(0.0)
                push(idx)
                t0s.append(clock())
                try:
                    return fn(a)
                finally:
                    t1s[idx] = clock()
                    pop()
        else:
            def traced(a, b):
                idx = len(t1s)
                names.append(nid)
                parents.append(stack[-1])
                t1s.append(0.0)
                push(idx)
                t0s.append(clock())
                try:
                    return fn(a, b)
                finally:
                    t1s[idx] = clock()
                    pop()
        return traced

    def _wrap_prepare(self, fn):
        """Span ``prepare`` unless an operator's own ``resolve`` calls it.

        ``resolve`` looks its factorization up through ``prepare`` on every
        call; that lookup stays in the resolve span, which halves the spans
        a traced solve records.
        """
        traced = self.wrap_oracle("operators.prepare", fn, 1)
        resolve_id = self.name_id("operators.resolve")
        names, stack = self._fields[0], self._stack

        def prepare(lam):
            top = stack[-1]
            if top >= 0 and names[top] == resolve_id:
                return fn(lam)
            return traced(lam)

        return prepare

    def calibrate(self, calls=20000, repeats=5):
        """Seconds one span adds to a call: ``(resolve, other)``.

        A probe operator whose ``resolve`` looks its factorization up
        through ``prepare``, as the affine and bilinear operators do, is
        wrapped like a live operator.  Each cost is the best of ``repeats``
        loops of ``calls`` traced calls (``resolve``, and ``forward`` for
        every other span) minus the best of as many plain ones, so that
        host noise, which only adds time, mostly cancels.  The calibration
        spans are discarded.
        """
        class Probe:
            def prepare(self, lam):
                return lam

            def resolve(self, lam, v):
                self.prepare(lam)
                return v

            def forward(self, v):
                return v

        plain, traced = Probe(), Probe()
        self.wrap_operator(traced)

        def best(fn, *args):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn(*args)
                times.append(time.perf_counter() - t0)
            return min(times)

        resolve = best(traced.resolve, 1.0, 2.0) - best(plain.resolve, 1.0,
                                                         2.0)
        other = best(traced.forward, 2.0) - best(plain.forward, 2.0)
        self.uninstall()
        self.take()
        return max(resolve, 0.0) / calls, max(other, 0.0) / calls

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def take(self):
        """Hand over and clear the spans (a SPAN_DTYPE array) and counts
        recorded so far."""
        spans = np.zeros(len(self._fields[3]), dtype=SPAN_DTYPE)
        for (field, dtype), values in zip(SPAN_DTYPE, self._fields):
            spans[field] = np.array(values, dtype=dtype)
            del values[:]
        counts = dict(self.counts)
        self.counts.clear()
        return spans, counts

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr, name, on_result=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def wrap_operator(self, op):
        """Wrap the oracle methods of one operator instance."""
        if "resolve" in vars(op):           # already wrapped
            return
        op.resolve = self.wrap_oracle("operators.resolve", op.resolve, 2)
        op.forward = self.wrap_oracle("operators.forward", op.forward, 1)
        op.prepare = self._wrap_prepare(op.prepare)
        self._wrapped_ops.append(weakref.ref(op))

    def wrap_operators(self, problem):
        """Wrap the oracle methods of the operators of ``problem``."""
        for op in (problem.A, problem.B, problem.C):
            self.wrap_operator(op)

    def install(self, problems=()):
        """Wrap every layer entry point the benchmark or the CLI calls."""
        sk = self.sk
        cli = sk.cli

        def on_run(trace):
            self.count("iterations", trace.iterations)
            self.count("forward_evals", trace.forward_evals)
            self.count("resolvent_evals", trace.resolvent_evals)
            self.count("unconverged", int(trace.status != "converged"))

        def on_certify(report):
            self.count("k_evaluated", report.summary["k_evaluated"])

        def on_flow(flow):
            self.count("flow_steps", len(flow.times) - 1)

        for owner in (sk, cli):
            self._patch(owner, "run", "solvers.run", on_run)
            self._patch(owner, "certify_trace", "certificates.certify",
                        on_certify)
            self._patch(owner, "omega_residual", "certificates.omega_residual")
            self._patch(owner, "simulate_dr_flow", "dynamics.simulate",
                        on_flow)
            self._patch(owner, "simulate_ppa", "dynamics.simulate", on_flow)
            self._patch(owner, "make_affine_instance", "problems.make")
            self._patch(owner, "make_saddle_instance", "problems.make")
        self._patch(cli, "load_instance", "problems.make")
        self._patch(cli, "main", "cli.main")
        for verb in ("run", "sweep", "flow"):
            self._patch(cli, f"cmd_{verb}", f"cli.{verb}")
        self._patch(cli, "build_problem", "problems.build")
        for cls in (sk.AffineInstance, sk.SaddleInstance):
            self._patch(cls, "triple", "problems.triple",
                        self.wrap_operators)
        for problem in problems:
            self.wrap_operators(problem)

    def uninstall(self):
        """Restore every patched attribute and unwrap live operators."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for ref in self._wrapped_ops:
            op = ref()
            if op is not None:
                for meth in ("resolve", "forward", "prepare"):
                    vars(op).pop(meth, None)
        self._wrapped_ops.clear()


def aggregate(names, spans):
    """Call counts, inclusive and self seconds per span name.

    Returns ``(stats, oracle)``: ``stats[name] = [calls, incl_s, self_s]``
    and ``oracle[(name, caller)]`` counts the ``operators.resolve`` and
    ``operators.forward`` calls by their nearest caller outside the
    operators layer (for example ``solvers.run``).
    """
    rows = spans.tolist()
    child = [0.0] * len(rows)
    for nid, parent, t0, t1 in rows:
        if parent >= 0:
            child[parent] += t1 - t0
    is_op = [name.startswith("operators.") for name in names]
    caller = [None] * len(rows)
    stats, oracle = {}, {}
    for i, (nid, parent, t0, t1) in enumerate(rows):
        name = names[nid]
        if parent >= 0:
            pid = rows[parent][0]
            caller[i] = caller[parent] if is_op[pid] else names[pid]
        if name in ("operators.resolve", "operators.forward"):
            key = (name, caller[i])
            oracle[key] = oracle.get(key, 0) + 1
        s = stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += t1 - t0
        s[2] += t1 - t0 - child[i]
    return stats, oracle


def below_roots(spans):
    """Seconds inside the spans whose parent is a root span."""
    parent = spans["parent"]
    inner = np.flatnonzero(parent >= 0)
    top = inner[parent[parent[inner]] < 0]
    return float(np.sum(spans["t1"][top] - spans["t0"][top]))
