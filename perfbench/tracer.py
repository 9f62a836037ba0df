"""Outside-in tracer: spans around the engine's public calls, patched in from outside.

`Tracer.install` wraps every public function of the engine modules in
every module that binds it (so `power.zeta_series`, `suites.power_pow`
and `cli.run_suite` are all covered), every method of the public classes
on the class itself (aliases such as `__rmul__ = __mul__` share one
span name), and engine functions held in public module-level registries
(`SUITES`) or frozen records (`PAIR_RING.zeta`).  `uninstall` puts every
original object back.  Calls into the `field` layer are only counted,
because the oracles make millions of them.

Each span records its name, parent, start, end and the moment its
wrapper finished bookkeeping.  A span's self time is its duration minus
the wrapper-inclusive intervals of its children, so the tracer's own
bookkeeping is charged to no layer.  Spans stay in memory until `fold`
turns one pass's spans into per-name aggregates.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import time
from array import array
from collections import defaultdict
from types import ModuleType
from typing import Callable

from .workloads import SUITE_NAMES

COUNT_ONLY = ("field",)
DEG_BUCKETS = (4, 16, 64, 256, 1024, 4096)
N_BUCKETS = (4, 8, 16, 32)


def bucket_label(prefix: str, bounds: tuple[int, ...], value: int) -> str:
    for bound in bounds:
        if value <= bound:
            return f"{prefix}{bound}"
    return f"{prefix}_inf"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# -- per-span annotations: (size used for bucketing, work count) ---------------------


def _poly_mul(tracer: "Tracer", args: tuple, kwargs: dict, result) -> tuple[int, int]:
    left, right = args
    if result is NotImplemented:
        return 0, 0
    if isinstance(right, int):
        right_terms, right_degree = (1 if right else 0), 0
    else:
        right_terms, right_degree = len(right.items()), right.degree
    terms = result.items()
    if terms:
        tracer.max_degree = max(tracer.max_degree, terms[-1][0])
        tracer.max_coeff_bits = max(tracer.max_coeff_bits, max(abs(c).bit_length() for _, c in terms))
    return max(left.degree, right_degree), len(left.items()) * right_terms


def _series_mul(tracer, args, kwargs, result) -> tuple[int, int]:
    left, right = args
    if result is NotImplemented:
        return 0, 0
    n = min(left.order, right.order)
    return n, (n + 1) * (n + 2) // 2


def _series_divide(tracer, args, kwargs, result) -> tuple[int, int]:
    n = result.order
    return n, n * (n + 1) // 2


def _order_of_series(tracer, args, kwargs, result) -> tuple[int, int]:
    return _arg(args, kwargs, 0, "series").order, 0


def _order_arg(tracer, args, kwargs, result) -> tuple[int, int]:
    return _arg(args, kwargs, 1, "order"), 0


def _configs_steps(tracer, args, kwargs, result) -> tuple[int, int]:
    scene = _arg(args, kwargs, 0, "scene")
    labels = sum(len(full) for full, _ in scene.labels)
    return 0, (1 + labels) ** len(scene.atoms)


def _squarefree_steps(tracer, args, kwargs, result) -> tuple[int, int]:
    return 0, _arg(args, kwargs, 0, "q") ** _arg(args, kwargs, 1, "n")


def _points(tracer, args, kwargs, result) -> tuple[int, int]:
    return 0, len(result)


# Per-layer metrics: (metric prefix, span name, fields, bucket kind, annotation).
LAYERS = (
    ("lefschetz.mul", "lefschetz.MotivicPolynomial.__mul__", ("calls", "term_products", "self_s"), "deg", _poly_mul),
    ("lefschetz.zeta_series", "lefschetz.zeta_series", ("calls", "self_s"), None, None),
    ("lefschetz.init", "lefschetz.MotivicPolynomial.__init__", ("calls", "self_s"), None, None),
    ("pairs.mul", "pairs.PairClass.__mul__", ("calls", "self_s"), None, None),
    ("series.mul", "series.TruncatedSeries.__mul__", ("calls", "coeff_products", "self_s"), "N", _series_mul),
    ("series.divide", "series.TruncatedSeries.divide", ("calls", "coeff_products", "self_s"), "N", _series_divide),
    ("power.factor_exponents", "power.factor_exponents", ("calls", "self_s"), "N", _order_of_series),
    ("power.power_pow", "power.power_pow", ("calls", "self_s"), "N", _order_of_series),
    ("power.kapranov_zeta", "power.kapranov_zeta", ("calls", "self_s"), "N", _order_arg),
    ("power.config_series", "power.config_series", ("calls", "self_s"), "N", _order_arg),
    ("oracle.count_power_configs", "oracle.count_power_configs", ("calls", "self_s", "steps_per_s"), None, _configs_steps),
    ("oracle.count_squarefree_monic", "oracle.count_squarefree_monic", ("calls", "self_s", "steps_per_s"), None, _squarefree_steps),
    ("oracle.enumerate_projective", "oracle.enumerate_projective", ("calls", "self_s", "points_per_s"), None, _points),
    ("oracle.count_marked_union", "oracle.count_marked_union", ("self_s",), None, None),
    ("oracle.weil_symmetric_counts", "oracle.weil_symmetric_counts", ("self_s",), None, None),
    ("geometry.point_in_marked_union", "geometry.point_in_marked_union", ("calls", "self_s"), None, None),
    ("geometry.vieta_coefficients", "geometry.vieta_coefficients", ("calls", "self_s"), None, None),
)
ANNOTATIONS = {span: note for _, span, _, _, note in LAYERS if note is not None}


def bucket_labels(kind: str | None) -> list[str]:
    if kind == "deg":
        return [bucket_label("deg", DEG_BUCKETS, b) for b in DEG_BUCKETS] + ["deg_inf"]
    if kind == "N":
        return [bucket_label("N", N_BUCKETS, b) for b in N_BUCKETS] + ["N_inf"]
    return []


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for prefix, _, fields, kind, _ in LAYERS:
        names += [f"{prefix}.{f}" for f in fields]
        names += [f"{prefix}.self_s.{label}" for label in bucket_labels(kind)]
    names += ["lefschetz.max_degree", "lefschetz.max_coeff_bits", "field.ops", "cli.main.self_s"]
    names += [f"suites.{s}.s" for s in SUITE_NAMES]
    names.append("trace.overhead_ratio")
    return names


class Tracer:
    """Span recorder patched around the engine's public names."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.t_start = array("d")
        self.t_end = array("d")
        self.t_done = array("d")
        self.size = array("q")
        self.work = array("q")
        self._columns = (self.span_name, self.span_parent, self.t_start, self.t_end, self.t_done,
                         self.size, self.work)
        self.stack = [-1]
        self.counts: list[int] = []
        self.paused = [False]
        self.max_degree = -1
        self.max_coeff_bits = 0
        self._patches: list[tuple[Callable[[object], None], object]] = []

    # -- wrappers ---------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
        return self._ids[name]

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        note = ANNOTATIONS.get(name)
        paused, stack, clock = self.paused, self.stack, time.perf_counter
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end, add_done = self.t_start.append, self.t_end.append, self.t_done.append
        add_size, add_work = self.size.append, self.work.append
        t_end, t_done, sizes, works = self.t_end, self.t_done, self.size, self.work
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            idx = len(t_end)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            add_done(0.0)
            add_size(0)
            add_work(0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t_end[idx] = clock()
                stack.pop()
            if note is not None:
                paused[0] = True
                try:
                    sizes[idx], works[idx] = note(tracer, args, kwargs, result)
                finally:
                    paused[0] = False
            t_done[idx] = clock()
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------------------

    def _set(self, restore: Callable[[object], None], original: object, new: object) -> None:
        self._patches.append((restore, original))
        restore(new)

    def install(self, modules: dict[str, ModuleType], package: ModuleType) -> None:
        """Wrap every public engine name wherever it is bound."""
        owners = [package, *modules.values()]
        wrapped: dict[int, Callable] = {}  # id(original function) -> wrapper

        def wrap(fn: Callable, short: str, name: str) -> Callable:
            if id(fn) not in wrapped:
                make = self._count_wrapper if short in COUNT_ONLY else self._span_wrapper
                wrapped[id(fn)] = make(fn, name)
            return wrapped[id(fn)]

        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrap(obj, short, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, short, wrap)
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(functools.partial(setattr, owner, attr), obj, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("_"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._set(functools.partial(obj.__setitem__, key), value, wrapped[id(value)])
                elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                    for f in dataclasses.fields(obj):
                        value = getattr(obj, f.name)
                        if id(value) in wrapped:
                            setter = functools.partial(object.__setattr__, obj, f.name)
                            self._set(setter, value, wrapped[id(value)])

    def _wrap_class(self, cls: type, short: str, wrap: Callable) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                new = type(raw)(wrap(fn, short, f"{short}.{cls.__name__}.{fn.__name__}"))
            elif inspect.isfunction(raw):
                new = wrap(raw, short, f"{short}.{cls.__name__}.{raw.__name__}")
            else:
                continue
            self._set(functools.partial(setattr, cls, attr), raw, new)

    def uninstall(self) -> None:
        """Put back every patched object, newest patch first."""
        while self._patches:
            restore, original = self._patches.pop()
            restore(original)

    # -- folding ----------------------------------------------------------------------

    def repair(self) -> None:
        """Drop a half-recorded span left by an interrupted call."""
        n = min(len(column) for column in self._columns)
        for column in self._columns:
            del column[n:]
        del self.stack[1:]

    def fold(self) -> dict:
        """Aggregate and clear the recorded spans and counts.

        Returns per span name: calls, self and inclusive seconds, work,
        self seconds per size value, and caller counts.
        """
        n = len(self.t_end)
        starts, ends, parents = self.t_start, self.t_end, self.span_parent
        covered = array("d", bytes(8 * n))  # zeros
        for i, parent in enumerate(parents):
            if parent >= 0:
                done = self.t_done[i] or ends[i]
                covered[parent] += done - starts[i]
        agg: dict[str, dict] = {}
        rows = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0,
                                    "by_size": defaultdict(float), "callers": defaultdict(int)})
        names = self.names
        for i, nid in enumerate(self.span_name):
            row = rows[nid]
            incl = ends[i] - starts[i]
            own = incl - covered[i]
            row["calls"] += 1
            row["self_s"] += own
            row["incl_s"] += incl
            row["work"] += self.work[i]
            row["by_size"][self.size[i]] += own
            parent = parents[i]
            row["callers"][names[self.span_name[parent]] if parent >= 0 else "<bench>"] += 1
        for nid, row in rows.items():
            agg[names[nid]] = row
        for nid, count in enumerate(self.counts):
            if count:
                agg.setdefault(names[nid], {"calls": 0})["calls"] += count
        for column in self._columns:
            del column[:]
        self.counts[:] = [0] * len(self.counts)
        return {"spans": n, "names": agg, "max_degree": self.max_degree, "max_coeff_bits": self.max_coeff_bits}


def layer_metrics(folded: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its folded spans."""
    names = folded["names"]
    out: dict[str, float] = {}
    for prefix, span, fields, kind, _ in LAYERS:
        row = names.get(span, {})
        calls = row.get("calls", 0)
        for f in fields:
            if f == "calls":
                out[f"{prefix}.calls"] = calls
            elif f == "self_s":
                out[f"{prefix}.self_s"] = row.get("self_s", 0.0)
            elif f in ("term_products", "coeff_products"):
                out[f"{prefix}.{f}"] = row.get("work", 0)
            else:  # a throughput over the span's inclusive time
                incl = row.get("incl_s", 0.0)
                out[f"{prefix}.{f}"] = row["work"] / incl if incl > 0 else 0.0
        if kind is not None:
            bounds = DEG_BUCKETS if kind == "deg" else N_BUCKETS
            buckets = dict.fromkeys(bucket_labels(kind), 0.0)
            for size, seconds in row.get("by_size", {}).items():
                buckets[bucket_label(kind, bounds, size)] += seconds
            for label, seconds in buckets.items():
                out[f"{prefix}.self_s.{label}"] = seconds
    out["lefschetz.max_degree"] = max(folded["max_degree"], 0)
    out["lefschetz.max_coeff_bits"] = folded["max_coeff_bits"]
    out["field.ops"] = sum(row["calls"] for name, row in names.items() if name.split(".")[0] in COUNT_ONLY)
    out["cli.main.self_s"] = sum((row["self_s"] for name, row in names.items() if name.startswith("cli.")), 0.0)
    return out


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer metric over traced passes of the same inputs.

    Counts are equal in every pass; `median_low` keeps them integers.
    """
    out = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        exact = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if exact else statistics.median(values)
    return out


def self_seconds_total(folded: dict) -> float:
    """Sum of every span's self time in one folded pass."""
    return sum(row.get("self_s", 0.0) for row in folded["names"].values())
