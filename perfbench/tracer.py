"""Traced run: wrap the package's public functions from outside and record spans.

Every public module-level function of the package is replaced, in every
package module that holds a reference to it, by a wrapper that records a
span; so are the methods listed in ``METHODS``.  A span has a name
("<layer>.<qualname>", the layer being the module that defines the
function), the request it belongs to, its parent span, its start and end,
and its busy time.  For a plain call busy time is end - start.  A function
that returns a generator (``enumerate_fillings``, the partition generators)
keeps its span open and adds the time of each ``__next__`` call to it; the
consumer's own work between yields (the weight fold, ``iota``) is not
counted, and spans opened inside a ``__next__`` call are its children.
A span's self time is its busy time minus its children's busy time.

Spans live in flat arrays in memory and are written out by ``dump`` after
the run.  A leaf call, one that opens no traced call of its own, folds into
the row of its earlier leaf siblings of the same name and request, so the
per-tableau calls cost one row per caller rather than one per call.  ``restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from types import GeneratorType

PACKAGE = "shifted_kschur"

# Per-entry helpers called inside the search's innermost loops.  A span per
# call would multiply the tracing cost; their time stays in the caller's.
UNTRACED = frozenset({"primed", "letter", "entry_str", "entry_from_str",
                      "cell_from_strs"})

METHODS = {
    ("shapes", "StrictPartition"): ("parse",),
    ("shapes", "SkewShape"): ("parse", "to_json"),
    ("tableaux", "Filling"): (
        "__init__", "__eq__", "__hash__", "__repr__", "size", "weight",
        "is_single_valued", "with_cell", "to_json", "from_json"),
    ("polyring", "LaurentPoly"): (
        "__init__", "zero", "const", "one", "variable", "beta", "monomial",
        "__add__", "__neg__", "__sub__", "__mul__", "scale",
        "scalar_beta_power", "__eq__", "__hash__", "__bool__",
        "subst_x_to_beta", "subst_beta_neg_inverse", "beta_slice",
        "eval_integers", "sorted_terms", "__str__", "__repr__", "parse",
        "to_json", "from_json"),
    ("involutions", "PairingCertificate"): ("to_json",),
}

# polyring work is reported in three parts; a polyring span without a part
# of its own (the constructor, say) belongs to its polyring parent's part.
POLY_PARTS = {
    "arith": ("__add__", "__neg__", "__sub__", "__mul__", "scale",
              "scalar_beta_power"),
    "subst": ("subst_x_to_beta", "subst_beta_neg_inverse", "beta_slice",
              "eval_integers"),
    "render": ("__str__", "__repr__", "sorted_terms", "to_json"),
}

SPAN_COLUMNS = ("name", "req", "parent", "start", "end", "busy", "calls")

# Argument keys whose distinct values give the repeat ratios.
KEYED = {
    "enumeration.enumerate_fillings": lambda args: args[0],
    "genfunc.compute": lambda args: args[0],
    "involutions.minimal_tableau": lambda args: tuple(args[:3]),
}


class _TracedGenerator:
    """Iterates a generator, adding each ``__next__`` to the span's busy time."""

    __slots__ = ("_tracer", "_gen", "_idx")

    def __init__(self, tracer: "Tracer", gen, idx: int):
        self._tracer, self._gen, self._idx = tracer, gen, idx

    def __iter__(self):
        return self

    def __next__(self):
        tr, idx = self._tracer, self._idx
        tr._stack.append(idx)
        t0 = perf_counter()
        try:
            item = next(self._gen)
        finally:
            t1 = perf_counter()
            tr._stack.pop()
            tr.end[idx] = t1
            tr.busy[idx] += t1 - t0
        tr.items[tr.name[idx]] += 1
        return item


class Tracer:
    """Span recorder for one traced run; ``install`` then ``restore``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name, self.req, self.parent = array("i"), array("i"), array("i")
        self.start, self.end, self.busy = array("d"), array("d"), array("d")
        self.calls = array("q")
        self._columns = tuple(getattr(self, c) for c in SPAN_COLUMNS)
        # the current request's folded leaf rows, by (parent, name)
        self._leaf_rows: dict[tuple[int, int], int] = {}
        self.items: Counter = Counter()    # generator items, by name id
        self.errors: Counter = Counter()   # raised exceptions, by name id
        self.keys: dict[int, set] = defaultdict(set)
        self.terms_out = 0
        self.pairs = 0
        self._stack = [-1]
        self._req = -1
        self._recording = False
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, request_no: int) -> None:
        self._req, self._recording = request_no, True
        self._leaf_rows.clear()

    def finish(self) -> None:
        self._recording = False

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.req.append(self._req)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.busy.append(0.0)
        self.calls.append(1)
        return idx

    def _close(self, idx: int, t0: float, t1: float, fold: bool) -> None:
        """End a span.  A leaf call (one that opened no traced call) folds
        into the row of its earlier leaf siblings of the same name: that
        row counts the call, adds its busy time and moves its end."""
        if fold and len(self.name) == idx + 1:
            sibling = (self.parent[idx], self.name[idx])
            row = self._leaf_rows.get(sibling)
            if row is not None:
                for column in self._columns:
                    del column[-1]
                self.end[row] = t1
                self.busy[row] += t1 - t0
                self.calls[row] += 1
                return
            self._leaf_rows[sibling] = idx
        self.start[idx] = t0
        self.end[idx] = t1
        self.busy[idx] = t1 - t0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        tracer, nid = self, self._name_id(name)
        key = KEYED.get(name)
        count_terms = name in ("polyring.LaurentPoly.__str__",
                               "polyring.LaurentPoly.__repr__",
                               "polyring.LaurentPoly.to_json")
        count_pairs = name == "involutions.pairing_certificate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            if key is not None:
                tracer.keys[nid].add(key(args))
            stack = tracer._stack
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                tracer._close(idx, t0, t1, fold=False)
                tracer.errors[nid] += 1
                raise
            t1 = perf_counter()
            stack.pop()
            if isinstance(result, GeneratorType):
                tracer._close(idx, t0, t1, fold=False)
                return _TracedGenerator(tracer, result, idx)
            tracer._close(idx, t0, t1, fold=True)
            if count_terms:
                tracer.terms_out += len(args[0].terms)
            elif count_pairs:
                tracer.pairs += len(result.pairs)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name where its callers look it up."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in UNTRACED
                        or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(
                        obj, f"{layer}.{obj.__qualname__}")
                self._patch(module, attr, wrappers[id(obj)])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    self._patch(cls, attr,
                                classmethod(self._wrap(raw.__func__, name)))
                else:
                    self._patch(cls, attr, self._wrap(raw, name))

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every object ``install`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = list(self.busy)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.busy[i]
        return own

    def layer_metrics(self, traced_wall: float) -> dict:
        """The per-layer metrics of this run (see the notes file)."""
        names, own = self.names, self.self_times()
        calls: Counter = Counter()
        for nid, k in zip(self.name, self.calls):
            calls[names[nid]] += k
        self_s: Counter = Counter()
        busy_s: Counter = Counter()
        parts: Counter = Counter()
        part_of = {f"polyring.LaurentPoly.{m}": part
                   for part, ms in POLY_PARTS.items() for m in ms}
        span_part: list[str | None] = []
        for i, nid in enumerate(self.name):
            name = names[nid]
            layer = name.split(".", 1)[0]
            self_s[layer] += own[i]
            busy_s[name] += self.busy[i]
            part = part_of.get(name)
            if part is None and layer == "polyring":
                p = self.parent[i]
                if p >= 0 and names[self.name[p]].startswith("polyring."):
                    part = span_part[p]
            span_part.append(part)
            if part is not None:
                parts[part] += own[i]

        def n(name):
            return calls[name]

        def ratio(name):
            distinct = len(self.keys.get(self._name_ids.get(name, -1), ()))
            return n(name) / distinct if distinct else 0.0

        def err(name):
            return self.errors[self._name_ids.get(name, -1)]

        enum = "enumeration.enumerate_fillings"
        metrics = {
            "enumeration.busy_s": (busy_s[enum], "s"),
            "enumeration.self_s": (self_s["enumeration"], "s"),
            "enumeration.fillings": (self.items[self._name_ids.get(enum, -1)],
                                     "count"),
            "enumeration.repeat_ratio": (ratio(enum), "ratio"),
            "tableaux.self_s": (self_s["tableaux"], "s"),
            "tableaux.fillings_built": (n("tableaux.Filling.__init__"),
                                        "count"),
            "genfunc.calls": (sum(c for k, c in calls.items()
                                  if k.startswith("genfunc.")), "count"),
            "genfunc.self_s": (self_s["genfunc"], "s"),
            "genfunc.repeat_ratio": (ratio("genfunc.compute"), "ratio"),
            "polyring.mul_calls": (n("polyring.LaurentPoly.__mul__"), "count"),
            "polyring.add_calls": (n("polyring.LaurentPoly.__add__"), "count"),
            "polyring.arith_s": (parts["arith"], "s"),
            "polyring.subst_s": (parts["subst"], "s"),
            "polyring.render_s": (parts["render"], "s"),
            "polyring.terms_out": (self.terms_out, "count"),
            "polyring.self_s": (self_s["polyring"], "s"),
            "involutions.iota_calls": (n("involutions.iota"), "count"),
            "involutions.minimal_tableau_calls": (
                n("involutions.minimal_tableau"), "count"),
            "involutions.minimal_per_shape": (
                ratio("involutions.minimal_tableau"), "ratio"),
            "involutions.pairs": (self.pairs, "count"),
            "involutions.empty_sets": (err("involutions.minimal_tableau"),
                                       "count"),
            "involutions.self_s": (self_s["involutions"], "s"),
            "cli.requests": (n("cli.main"), "count"),
            "cli.self_s": (self_s["cli"], "s"),
            "shapes.calls": (sum(c for k, c in calls.items()
                                 if k.startswith("shapes.")), "count"),
            "shapes.self_s": (self_s["shapes"], "s"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.layer_self_sum_s": (sum(self_s.values()), "s"),
            "trace.spans": (sum(self.calls), "count"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the raw columns.

        The header gives the span names, the row count and the column order
        with their array type codes; each column follows as native-endian
        binary.  A row is one span, or one folded run of leaf calls.
        """
        header = {"names": self.names, "rows": len(self.name),
                  "columns": [[c, getattr(self, c).typecode]
                              for c in SPAN_COLUMNS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in SPAN_COLUMNS:
                getattr(self, c).tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """The span names and columns written by ``Tracer.dump``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, code in header["columns"]:
            columns[name] = array(code)
            columns[name].fromfile(fh, header["rows"])
    return header["names"], columns
