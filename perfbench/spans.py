"""Spans around the public functions of cyclic_lrc, installed from outside.

The package imports its callees by name (``verify`` holds its own reference
to ``min_distance_exhaustive``, ``cli`` to ``construct`` and so on), so a
wrapper only takes effect where the callee is looked up.  ``Tracer.install``
therefore replaces every reference to a target function in every loaded
``cyclic_lrc`` module, and patches the two ``CyclicCode`` methods on the
class.  Spans stay in memory and are written as JSON lines by ``write``.

Each span records name, start, end (``time.monotonic_ns``, which is one
clock for every process on the machine), parent span id and trace id, plus
a few attributes measured at the same boundary (codewords scanned, locality
method, distance-versus-dual label, cold repair plan, raised error).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs wrapped wherever the package looks them up.
FUNCTIONS = (
    ("cli", "main"),
    ("verify", "verify_optimal"),
    ("cyclic", "min_distance_exhaustive"),
    ("kernels", "min_nonzero_weight"),
    ("kernels", "covering_witnesses"),
    ("kernels", "op_tables"),
    ("repair", "verify_locality"),
    ("repair", "repair_vector"),
    ("repair", "repair_erasure"),
    ("constructions", "construct"),
    ("constructions", "enumerate_valid_params"),
    ("field", "make_field"),
    ("field", "primitive_nth_root"),
    ("codefile", "load_code"),
)
# (module, class, method) triples patched on the class.
METHODS = (
    ("cyclic", "CyclicCode", "encode_systematic"),
    ("cyclic", "CyclicCode", "bch_lower_bound"),
)


class Span:
    __slots__ = ("id", "parent", "name", "start_ns", "end_ns", "trace", "attrs", "subject")

    def __init__(self, id, parent, name, start_ns, trace):
        self.id = id
        self.parent = parent
        self.name = name
        self.start_ns = start_ns
        self.end_ns = None
        self.trace = trace
        self.attrs = None
        self.subject = None

    def set(self, key, value):
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def to_dict(self) -> dict:
        out = {
            "trace": self.trace,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Records spans for one process; ``trace`` names the current request."""

    def __init__(self, trace: str):
        self.trace = trace
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen_plans: set[tuple[int, int]] = set()

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.monotonic_ns(), self.trace)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.monotonic_ns()
        self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int) -> Span:
        """Record an already finished interval, such as a process start."""
        span = Span(len(self.spans), None, name, start_ns, self.trace)
        span.end_ns = end_ns
        self.spans.append(span)
        return span

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import cyclic_lrc.cli  # noqa: F401  (loads every submodule)

        pkg = [m for name, m in sorted(sys.modules.items())
               if name == "cyclic_lrc" or name.startswith("cyclic_lrc.")]
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"cyclic_lrc.{mod_name}"], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
            for module in pkg:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"cyclic_lrc.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{mod_name}.{meth}"))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def _wrap(self, fn, name: str):
        annotate = _ANNOTATE.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            if name == "verify.verify_optimal":
                span.subject = args[0]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.set("error", type(exc).__name__)
                raise
            finally:
                tracer.close(span)
            if annotate is not None:
                annotate(tracer, span, args, kwargs, result)
            return result

        return wrapper


# -- attributes measured at the boundary -----------------------------------


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _kernel_scan(index: int, key: str):
    def annotate(tracer, span, args, kwargs, result):
        span.set("codewords", int(_arg(args, kwargs, index, key)))

    return annotate


def _distance_scan(tracer, span, args, kwargs, result):
    span.set("enumerated", result.enumerated)
    parent = span.parent
    while parent is not None:
        owner = tracer.spans[parent]
        if owner.subject is not None:
            code = _arg(args, kwargs, 0, "code")
            span.set("label", "distance" if code is owner.subject.base else "dual")
            return
        parent = owner.parent


def _locality(tracer, span, args, kwargs, result):
    span.set("method", result.method)


def _repair_plan(tracer, span, args, kwargs, result):
    key = (id(_arg(args, kwargs, 0, "code")), int(_arg(args, kwargs, 1, "i")))
    if key not in tracer._seen_plans:
        tracer._seen_plans.add(key)
        span.set("cold", True)


_ANNOTATE = {
    "kernels.min_nonzero_weight": _kernel_scan(2, "count"),
    "kernels.covering_witnesses": _kernel_scan(3, "count"),
    "cyclic.min_distance_exhaustive": _distance_scan,
    "repair.verify_locality": _locality,
    "repair.repair_vector": _repair_plan,
}


# -- aggregation -------------------------------------------------------------


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class LayerTotals:
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so recursion is not counted twice) and self seconds (duration minus
    the part covered by direct children)."""

    def __init__(self, spans: list[dict]):
        by_key = {(s["trace"], s["id"]): s for s in spans}
        child_ns: dict[tuple, int] = {}
        for s in spans:
            if s["parent"] is not None:
                key = (s["trace"], s["parent"])
                child_ns[key] = child_ns.get(key, 0) + s["end_ns"] - s["start_ns"]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.spans = spans
        for s in spans:
            name, dur = s["name"], s["end_ns"] - s["start_ns"]
            self.calls[name] = self.calls.get(name, 0) + 1
            own = dur - child_ns.get((s["trace"], s["id"]), 0)
            self.self_s[name] = self.self_s.get(name, 0.0) + own / 1e9
            if not _has_ancestor_named(s, name, by_key):
                self.total_s[name] = self.total_s.get(name, 0.0) + dur / 1e9

    def where(self, name: str, **attrs) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name
            and all(s.get("attrs", {}).get(k) == v for k, v in attrs.items())
        ]

    def seconds(self, name: str, **attrs) -> float:
        if not attrs:
            return self.total_s.get(name, 0.0)
        return sum((s["end_ns"] - s["start_ns"]) / 1e9 for s in self.where(name, **attrs))

    def attr_sum(self, name: str, key: str, **attrs) -> int:
        return sum(s.get("attrs", {}).get(key, 0) for s in self.where(name, **attrs))

    def count(self, name: str, **attrs) -> int:
        return len(self.where(name, **attrs)) if attrs else self.calls.get(name, 0)

    def failed(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name and "error" in s.get("attrs", {}))


def _has_ancestor_named(span: dict, name: str, by_key: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        owner = by_key[(span["trace"], parent)]
        if owner["name"] == name:
            return True
        parent = owner["parent"]
    return False


def pass_spans(spans: list[dict]) -> list[dict]:
    """Spans of the traced passes, without those of a process's set-up."""
    return [s for s in spans if not s["trace"].endswith("/setup")]


def layer_metrics(spans: list[dict], passes: int, pass_wall_s: float) -> dict[str, float]:
    """The per-layer metrics, per traced pass.  ``pass_wall_s`` is the wall
    time of one traced pass, the base of every ``share``.  Cold repair plans
    are counted wherever they were built, set-up included."""
    per = 1.0 / passes
    t = LayerTotals(pass_spans(spans))
    cold_s = LayerTotals(spans).seconds("repair.repair_vector", cold=True)
    kernel_s = t.seconds("kernels.min_nonzero_weight")
    kernel_cw = t.attr_sum("kernels.min_nonzero_weight", "codewords")
    all_cw = kernel_cw + t.attr_sum("kernels.covering_witnesses", "codewords")
    dual_cw = t.attr_sum("cyclic.min_distance_exhaustive", "enumerated", label="dual")
    locality_s = t.seconds("repair.verify_locality")
    construct_s = t.seconds("constructions.construct")
    return {
        "cli.process_start_s": t.seconds("cli.process_start") * per,
        "cli.main.self_s": t.self_s.get("cli.main", 0.0) * per,
        "verify.verify_optimal.self_s": t.self_s.get("verify.verify_optimal", 0.0) * per,
        "verify.dual_share": dual_cw / all_cw if all_cw else 0.0,
        "cyclic.min_distance_exhaustive.distance_s":
            t.seconds("cyclic.min_distance_exhaustive", label="distance") * per,
        "cyclic.min_distance_exhaustive.dual_s":
            t.seconds("cyclic.min_distance_exhaustive", label="dual") * per,
        "cyclic.bch_lower_bound.s": t.seconds("cyclic.bch_lower_bound") * per,
        "cyclic.encode_systematic.s": t.seconds("cyclic.encode_systematic") * per,
        "kernels.min_nonzero_weight.s": kernel_s * per,
        "kernels.min_nonzero_weight.codewords": kernel_cw * per,
        "kernels.min_nonzero_weight.codewords_per_s": kernel_cw / kernel_s if kernel_s else 0.0,
        "kernels.min_nonzero_weight.share": kernel_s * per / pass_wall_s,
        "kernels.op_tables.s": t.seconds("kernels.op_tables") * per,
        "kernels.covering_witnesses.s": t.seconds("kernels.covering_witnesses") * per,
        "kernels.covering_witnesses.calls": t.count("kernels.covering_witnesses") * per,
        "repair.verify_locality.s": locality_s * per,
        "repair.verify_locality.share": locality_s * per / pass_wall_s,
        "repair.verify_locality.coset_witness":
            t.count("repair.verify_locality", method="coset-witness") * per,
        "repair.verify_locality.exhaustive":
            t.count("repair.verify_locality", method="exhaustive") * per,
        "repair.verify_locality.budget_exceeded":
            t.count("repair.verify_locality", method="budget-exceeded") * per,
        "repair.repair_vector.cold_s": cold_s,
        "repair.repair_erasure.s": t.seconds("repair.repair_erasure") * per,
        "constructions.construct.s": construct_s * per,
        "constructions.construct.calls": t.count("constructions.construct") * per,
        "constructions.construct.failed": t.failed("constructions.construct") * per,
        "constructions.construct.share": construct_s * per / pass_wall_s,
        "constructions.enumerate_valid_params.s":
            t.seconds("constructions.enumerate_valid_params") * per,
        "constructions.enumerate_valid_params.calls":
            t.count("constructions.enumerate_valid_params") * per,
        "constructions.enumerate_valid_params.failed":
            t.failed("constructions.enumerate_valid_params") * per,
        "field.make_field.s": t.seconds("field.make_field") * per,
        "field.primitive_nth_root.s": t.seconds("field.primitive_nth_root") * per,
        "codefile.load_code.s": t.seconds("codefile.load_code") * per,
    }
