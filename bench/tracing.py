"""Spans and counters around jetsplit's layers, for the traced run only.

``Tracer.install`` replaces functions and methods of the already imported
``jetsplit`` modules with wrappers, at the name each caller looks up: a module
function is replaced in every ``jetsplit`` module that imported it by name,
and a method on its class.  ``uninstall`` puts the originals back, so the
untimed and untraced parts of a run see the unmodified program.

A span is (id, parent id, request id, name, start ns, end ns); the request id
is the id of the enclosing ``cli.main`` span, one per CLI call.  Spans are
kept in memory and written once at the end.  A layer's self time is its
span time minus the time of its child spans.  A call into a layer that is
already the innermost open span (``normal_form`` calling ``diagonalize``,
``linalg.rank`` calling ``linalg.rref``) stays inside that span.

Counters (field operations, ``Jet`` constructions, term pairs of ``Jet``
products) cost no span.  The work of counting term pairs is taken out of
every self time; the rest of the tracing cost shows in ``trace.overhead_frac``.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

COMMANDS = ("split", "verify", "milnor", "determinacy", "ift", "transport", "quadform", "norm")

# layer name -> (module, class or None, attribute) of every function it covers
SPANS = {
    "cli.main": [("cli", None, "main")],
    "jet.substitute": [("jet", "Jet", "substitute")],
    "jet.mul": [("jet", "Jet", "__mul__")],
    "jet.add": [("jet", "Jet", "__add__")],
    "jet.compose": [("jet", "CoordinateChange", "compose")],
    "jet.partial": [("jet", "Jet", "partial")],
    "split.split": [("split", None, "split")],
    "split.iterate": [("split", None, "iterate_diagonal"), ("split", None, "iterate_arf")],
    "split.verify_split": [("split", None, "verify_split")],
    "quadform.normal_form": [("quadform", None, "normal_form"), ("quadform", None, "diagonalize"),
                             ("quadform", None, "arf_normal_form")],
    "jacobian.milnor_number": [("jacobian", None, "milnor_number")],
    "jacobian.verify_milnor": [("jacobian", None, "verify_milnor")],
    "jacobian.determinacy_certificate": [("jacobian", None, "determinacy_certificate")],
    "jacobian.verify_determinacy": [("jacobian", None, "verify_determinacy")],
    "expr.parse_jet": [("expr", None, "parse_jet")],
    "expr.serialize_jet": [("expr", None, "serialize_jet")],
    "ift.ift_solve": [("ift", None, "ift_solve")],
    "ift.residuals": [("ift", "ImplicitSystem", "residuals")],
    "transport.problem": [("transport", "TransportProblem", "__init__")],
    "transport.transport": [("transport", None, "transport")],
    "transport.split_shape": [("transport", None, "split_shape")],
    "linalg": [],  # every public function of jetsplit.linalg
}

SPAN_COLUMNS = ("id", "parent", "request", "name", "start_ns", "end_ns")

# field class -> metric key; method -> counted operation (add includes sub and neg)
FIELD_CLASSES = {"RationalField": "q", "PrimeField": "fp", "BinaryField": "f2k"}
FIELD_OPS = {"mul": "mul", "add": "add", "sub": "add", "neg": "add", "inv": "inv", "div": "inv"}

# The per-layer metrics, in the order they are printed.
PER_LAYER = (
    [f"cli.{c}.p50_ms" for c in COMMANDS]
    + ["jet.substitute.calls", "jet.substitute.self_s", "jet.mul.calls", "jet.mul.self_s",
       "jet.mul.term_pairs", "jet.add.calls", "jet.add.self_s", "jet.compose.calls",
       "jet.compose.self_s"]
    + [f"field.{k}.{op}.calls" for k in ("q", "fp", "f2k") for op in ("mul", "add", "inv")]
    + ["jet.init.calls", "jet.partial.calls", "jet.partial.self_s",
       "split.split.calls", "split.split.self_s", "split.iterate.self_s",
       "split.verify_split.self_s", "quadform.normal_form.calls", "quadform.normal_form.self_s",
       "jacobian.milnor_number.self_s", "jacobian.verify_milnor.self_s",
       "jacobian.determinacy_certificate.self_s", "jacobian.verify_determinacy.self_s",
       "expr.parse_jet.calls", "expr.parse_jet.self_s", "expr.serialize_jet.self_s",
       "ift.ift_solve.calls", "ift.ift_solve.self_s", "ift.residuals.self_s",
       "transport.problem.self_s", "transport.transport.self_s", "transport.split_shape.self_s",
       "linalg.calls", "linalg.self_s", "trace.overhead_frac"]
)


def unit_of(metric):
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def term_pairs(a, b):
    """Coefficient products a Jet product forms: term pairs within the precision."""
    prec = min(a.prec, b.prec)
    left = Counter(sum(alpha) for alpha in a.coeffs)
    right = Counter(sum(beta) for beta in b.coeffs)
    return sum(m * k for d, m in left.items() for e, k in right.items() if d + e <= prec)


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = Counter()
        self.stack = []  # open spans: [name id, span id, start ns, child ns]
        self.next_id = 0
        self.spans = array("q")  # SPAN_COLUMNS values of every closed span, flat
        self._restore = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, nid, fn):
        stack, spans, calls, self_ns = self.stack, self.spans, self.calls, self.self_ns

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id += 1
            frame = [nid, sid, perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[2]
                calls[nid] += 1
                self_ns[nid] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                spans.extend((sid, stack[-1][1] if stack else -1, stack[0][1] if stack else sid,
                              nid, frame[2], end))

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _pair_counter(self, fn):
        counts, stack = self.counts, self.stack

        def wrapper(a, b):
            t0 = perf_counter_ns()
            if getattr(b, "coeffs", None) is not None:
                counts["jet.mul.term_pairs"] += term_pairs(a, b)
            if stack:
                stack[-1][3] += perf_counter_ns() - t0
            return fn(a, b)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, js):
        """Wrap the layers of the imported package ``js`` (the ``jetsplit`` module)."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "jetsplit" or name.startswith("jetsplit."))]
        linalg = js.linalg
        targets = dict(SPANS)
        targets["linalg"] = [("linalg", None, name) for name, v in vars(linalg).items()
                             if callable(v) and not name.startswith("_")
                             and getattr(v, "__module__", None) == linalg.__name__]
        for nid, name in enumerate(self.names):
            for module, cls, attr in targets[name]:
                mod = sys.modules[f"jetsplit.{module}"]
                if cls is not None:
                    owner = getattr(mod, cls)
                    wrapped = self._span(nid, getattr(owner, attr))
                    if name == "jet.mul":
                        wrapped = self._pair_counter(wrapped)
                    self._patch(owner, attr, wrapped)
                    continue
                original = getattr(mod, attr)
                wrapped = self._span(nid, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapped)
        self._patch(js.Jet, "__init__", self._counter("jet.init", js.Jet.__init__))
        for cls_name, key in FIELD_CLASSES.items():
            cls = getattr(js, cls_name)
            for method, op in FIELD_OPS.items():
                if method in vars(cls):
                    self._patch(cls, method, self._counter(f"field.{key}.{op}", vars(cls)[method]))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def value(self, metric):
        """A span or counter metric of PER_LAYER, from what was recorded."""
        layer, _, stat = metric.rpartition(".")
        if stat == "self_s":
            return self.self_ns[self.names.index(layer)] / 1e9
        if stat == "calls" and layer in self.names:
            return self.calls[self.names.index(layer)]
        if stat == "term_pairs":
            return self.counts[metric]
        return self.counts[layer]

    def write_spans(self, path):
        s = self.spans
        width = len(SPAN_COLUMNS)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("\t".join(SPAN_COLUMNS) + "\n")
            for i in range(0, len(s), width):
                sid, parent, request, nid, start, end = s[i:i + width]
                out.write(f"{sid}\t{parent}\t{request}\t{self.names[nid]}\t{start}\t{end}\n")
