"""In-memory spans around calls into the fpqr package.

A :class:`Tracer` replaces the attributes through which callers reach each
layer with wrappers that record one :class:`Span` per call. ``from .x import
y`` binds a name in every importing module, so each hook names the module
(or class) where the caller looks the name up: ``fpqr.qcov`` reaches
``fit_quantile_regression`` for the per-entry slopes, ``fpqr.fpqr`` reaches
it for the inner fit, and the two are traced as different layers.

Wrappers exist only inside ``with tracer.installed():`` and record only while
an op is open (``with tracer.op_scope(i):``); every other call passes straight
through. A hook whose module or attribute is gone is skipped and its layer is
reported absent, so the trace survives code motion in the package.
"""

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call into a layer: name, interval, parent span index, op id, and counts."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


# Each info hook maps (args, result) of a finished call to counts kept on its
# span. The positions follow the call sites in the package.


def _iterations(args, result):
    return {"iterations": int(result.iterations)}


# Per-entry quantile slopes each cross product should fit: one per entry for
# dodge, one per direction for choi, none for the vectorized metrics. Entries
# skipped for zero variance are subtracted by the caller.
SLOPE_FITS_PER_ENTRY = {"dodge": 1, "choi": 2}


def _qcov(args, result):
    entries = int(result.size)
    per_entry = SLOPE_FITS_PER_ENTRY.get(args[2].kind, 0)
    return {"entries": entries, "slope_fits_expected": entries * per_entry}


def _extract(args, result):
    return {"effective": int(result.n_components), "requested": int(args[2])}


def _file_arg(position):
    def info(args, result):
        return {"bytes": os.path.getsize(args[position])}

    return info


def _exit_code(args, result):
    return {"exit_nonzero": int(int(result) != 0)}


# (span name, module, attribute path, info hook)
HOOKS = (
    ("cli.main", "fpqr.cli", "main", _exit_code),
    ("evaluate.cv", "fpqr.cli", "cross_validate", None),
    ("io.read", "fpqr.cli", "read_dataset", _file_arg(0)),
    ("io.write", "fpqr.cli", "write_matrix_csv", _file_arg(0)),
    ("io.save_model", "fpqr.cli", "save_model", _file_arg(1)),
    ("io.load_model", "fpqr.cli", "load_model", _file_arg(0)),
    ("fpqr.fit", "fpqr.cli", "fit_fpqr", None),
    ("pls.fit", "fpqr.cli", "fit_pls", None),
    ("evaluate.study", "fpqr.evaluate", "run_study", None),
    ("evaluate.generate", "fpqr.evaluate", "generate_simulation", None),
    ("fpqr.fit", "fpqr.evaluate", "fit_fpqr", None),
    ("pls.fit", "fpqr.evaluate", "fit_pls", None),
    ("qcov.matrix", "fpqr.fpqr", "qcov_matrix", _qcov),
    ("quantreg.inner", "fpqr.fpqr", "fit_quantile_regression", _iterations),
    ("quantreg.slope", "fpqr.qcov", "fit_quantile_regression", _iterations),
    ("linalg.center", "fpqr.fpqr", "center_columns", None),
    ("linalg.center", "fpqr.pls", "center_columns", None),
    ("linalg.lstsq", "fpqr.fpqr", "least_squares", None),
    ("linalg.lstsq", "fpqr.pls", "least_squares", None),
    ("linalg.leading", "fpqr.pls", "leading_left_singular_vector", None),
    ("pls.extract", "fpqr.fpqr", "extract_components", _extract),
    ("pls.extract", "fpqr.pls", "extract_components", _extract),
    ("pls.back_project", "fpqr.fpqr", "back_project", None),
    ("pls.back_project", "fpqr.pls", "back_project", None),
    ("pls.predict", "fpqr.pls", "FittedModel.predict", None),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans of open ops."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []
        self.op = None
        self.present = set()
        self.missing = set()
        self._stack = []
        self._saved = []
        self._originals = []

    @property
    def absent_layers(self):
        return sorted({name for name, *_ in self.hooks} - self.present)

    @contextmanager
    def op_scope(self, op_id):
        """Record spans under ``op_id`` until the block ends."""
        self.op = op_id
        try:
            yield
        finally:
            self.op = None

    @contextmanager
    def installed(self):
        """Wrap every hooked attribute that exists; restore all of them on exit."""
        try:
            for name, module, path, info in self.hooks:
                self._install(name, module, path, info)
            yield self
        finally:
            self.restore()

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def all_restored(self):
        """True when every attribute wrapped so far holds its original again."""
        return all(vars(owner).get(attr) is original for owner, attr, original in self._originals)

    def take_spans(self):
        spans, self.spans = self.spans, []
        return spans

    def _install(self, name, module, path, info):
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        for part in owner_path:
            owner = getattr(owner, part, None)
        # The raw attribute, so a method is re-bound normally after wrapping.
        original = getattr(owner, "__dict__", {}).get(attr)
        if not callable(original):
            self.missing.add(f"{module}.{path}")
            return
        self._saved.append((owner, attr, original))
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, info))
        self.present.add(name)

    def _wrap(self, name, fn, info):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, parent=parent, op=tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                try:
                    span.info = info(args, result)
                except (AttributeError, IndexError, OSError, TypeError, ValueError):
                    span.info = {}
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration - covered)
    return out


def layer_totals(spans):
    """Per span name: call count, summed duration, summed self time, summed counts."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += span.duration
        entry["self_s"] += own
        for key, value in span.info.items():
            if isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
    return totals
