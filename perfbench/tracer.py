"""Per-layer tracing installed from outside the package.

install() wraps the public functions and kernel methods of splitcond's
modules, so nothing under src/ changes.  Entry points report calls and
inclusive time (total_s); kernels report calls and self time (self_s), the
part of their time not spent in another traced call, kept with a stack.
Entry-point spans stay in memory until the worker reports them.

A function is replaced in every splitcond.* module namespace where the name
`is` the original, because modules import each other's functions by name.
A kernel is replaced in its class's namespace under every attribute that is
the original (Poly.__radd__ is Poly.__add__).  A target a later commit
removes or renames is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time

# (metric name, module, class, method): self time is what matters.
KERNELS = (
    ("poly.mul", "splitcond.poly", "Poly", "__mul__"),
    ("poly.add", "splitcond.poly", "Poly", "__add__"),
    ("poly.evaluate", "splitcond.poly", "Poly", "evaluate"),
    ("series.mul", "splitcond.series", "NCSeries", "__mul__"),
    ("series.add", "splitcond.series", "NCSeries", "__add__"),
)

# (metric name, module, function): inclusive time is what matters.
ENTRIES = (
    ("series.exp", "splitcond.series", "exp"),
    ("series.log", "splitcond.series", "log"),
    ("lyndon.lie_decompose", "splitcond.lyndon", "lie_decompose"),
    ("lyndon.expand", "splitcond.lyndon", "expand"),
    ("lyndon.lyndon_words", "splitcond.lyndon", "lyndon_words"),
    ("conditions.splitting_product", "splitcond.conditions", "splitting_product"),
    ("conditions.taylor_derivative", "splitcond.conditions", "taylor_derivative"),
    ("conditions.condition_system", "splitcond.conditions", "condition_system"),
    ("conditions.verify_scheme", "splitcond.conditions", "verify_scheme"),
    ("conditions.leading_error_term", "splitcond.conditions", "leading_error_term"),
    ("numeric.matrix_exp", "splitcond.numeric", "matrix_exp"),
    ("numeric.empirical_order", "splitcond.numeric", "empirical_order"),
)

SIZE_COUNTS = (
    "series.log.words_out",
    "series.log.poly_terms_out",
    "series.coeff_bits_max",
    "conditions.system_poly_terms",
)

MAX_SPANS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.sizes = dict.fromkeys(SIZE_COUNTS, 0)
        self.absent: list[str] = []
        self.stack: list[list] = []  # one [child_s] frame per active traced call
        self.span_stack: list[int] = []  # indices of the active entry spans
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.dropped_spans = 0
        self._systems_seen: set = set()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, entry: bool, hook=None):
        record = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        span_stack = self.span_stack
        spans = self.spans
        clock = time.perf_counter
        depth = [0]

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            if entry:
                # the slot is taken on entry, so children can name their parent
                parent = span_stack[-1] if span_stack else -1
                if len(spans) < MAX_SPANS:
                    index = len(spans)
                    spans.append(None)
                else:
                    index = -1
                    self.dropped_spans += 1
                span_stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                depth[0] -= 1
                record[0] += 1
                record[1] += elapsed - frame[0]
                if not depth[0]:  # recursion: count the outermost call only
                    record[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if entry:
                    span_stack.pop()
                    if index >= 0:
                        spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- size hooks ------------------------------------------------------------

    def _series_sizes(self, series, is_log: bool) -> None:
        try:
            coefficients = list(series.terms.values())
            if is_log:
                self.sizes["series.log.words_out"] += len(coefficients)
            bits = self.sizes["series.coeff_bits_max"]
            for poly in coefficients:
                if is_log:
                    self.sizes["series.log.poly_terms_out"] += len(poly.terms)
                for c in poly.terms.values():
                    bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
            self.sizes["series.coeff_bits_max"] = bits
        except (AttributeError, TypeError):
            self._mark_absent("series.terms")

    def _system_sizes(self, system) -> None:
        try:
            key = (system.stages, system.order, system.route)
            if key not in self._systems_seen:
                self._systems_seen.add(key)
                self.sizes["conditions.system_poly_terms"] += sum(
                    len(e.polynomial.terms) for e in system.entries
                )
        except (AttributeError, TypeError):
            self._mark_absent("conditions.system_terms")

    def _mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "series.exp": lambda s: self._series_sizes(s, False),
            "series.log": lambda s: self._series_sizes(s, True),
            "conditions.condition_system": self._system_sizes,
        }
        for name, module_name, cls_name, attr in KERNELS:
            cls = getattr(_import(module_name), cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                self._mark_absent(name)
                continue
            wrapper = self._wrap(name, original, entry=False)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, key, wrapper)
        for name, module_name, attr in ENTRIES:
            original = getattr(_import(module_name), attr, None)
            if original is None:
                self._mark_absent(name)
                continue
            wrapper = self._wrap(name, original, entry=True, hook=hooks.get(name))
            for module in _splitcond_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "sizes": self.sizes,
            "cache": cache_counts(),
            "absent": self.absent,
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }


def _import(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


def _splitcond_modules() -> list:
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "splitcond" or n.startswith("splitcond."))
    ]


def cache_counts() -> dict:
    """Hits and misses summed over the public cached functions of the package."""
    hits = misses = 0
    seen = set()
    for module in _splitcond_modules():
        for key, value in list(vars(module).items()):
            if key.startswith("_") or not callable(value):
                continue
            # a traced binding keeps the cached original as __wrapped__
            for fn in (value, getattr(value, "__wrapped__", None)):
                info = getattr(fn, "cache_info", None)
                if callable(info):
                    if id(fn) not in seen:
                        seen.add(id(fn))
                        stats = info()
                        hits += stats.hits
                        misses += stats.misses
                    break
    return {"conditions.cache.hits": hits, "conditions.cache.misses": misses}
