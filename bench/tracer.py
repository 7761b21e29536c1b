"""Span tracing for the traced benchmark run, installed from outside the
package.

Each traced function is replaced, in every ``leibrack`` module namespace
that holds it (that is, where its callers look it up), by a wrapper that
records one span: name, start, end, parent span, case id and whether it
raised.  Spans stay in memory and are aggregated when the run ends.  A
function's self time is its span time minus the time its child spans cover.

The untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# (module, attribute path) for every traced function, grouped by layer.
# ``expm`` is traced where localgroup looks it up, not in scipy.
TARGETS = (
    ("cli", "main"), ("cli", "load_document"),
    ("cli", "triple_parts_from_doc"), ("cli", "rack_triple_from_doc"),
    ("algebra", "check_lie_algebra"), ("algebra", "check_module"),
    ("algebra", "check_leibniz"),
    ("triples", "check_triple"), ("triples", "max_strictness_subalgebra"),
    ("triples", "check_morphism"), ("triples", "check_lie_crossed_module"),
    ("triples", "check_relaxed_augmentation"), ("triples", "build_triple"),
    ("localgroup", "expm"), ("localgroup", "log_matrix"),
    ("localgroup", "group_mul"), ("localgroup", "group_inverse"),
    ("localgroup", "MatrixRep.element"), ("localgroup", "check_rep"),
    ("localgroup", "derivative_at_identity"),
    ("localgroup", "mixed_second_derivative"),
    ("integrate", "build_model"), ("integrate", "check_local_group_set_laws"),
    ("integrate", "check_local_rack_laws"), ("integrate", "check_equivariance"),
    ("integrate", "recover_tangent_triple"),
    ("integrate", "recover_equivariance_defect"),
    ("integrate", "local_action"), ("integrate", "rack_product"),
    ("racks", "check_group"), ("racks", "check_rack"),
    ("racks", "check_group_rack_triple"), ("racks", "check_group_crossed_module"),
    ("racks", "check_rack_triple_morphism"), ("racks", "conjugation_triple"),
    ("racks", "conjugation_crossed_module"),
    ("catalog", "group_from_permutations"), ("catalog", "group_catalog"),
    ("report", "merge_reports"),
)

# functions whose raised exceptions are part of normal operation (chart and
# domain exits, stencil retries, rejected input); each gets an ``.errors`` count
RAISING = frozenset({
    "cli.load_document", "cli.triple_parts_from_doc", "cli.rack_triple_from_doc",
    "triples.build_triple", "localgroup.log_matrix", "localgroup.group_mul",
    "localgroup.MatrixRep.element", "localgroup.derivative_at_identity",
    "localgroup.mixed_second_derivative", "integrate.build_model",
    "integrate.local_action", "integrate.rack_product",
    "racks.check_rack_triple_morphism",
})

# constructors that only the workloads' case generation calls: they are
# counted over set-up, which they lengthen, instead of over the timed rounds
SETUP = frozenset({"catalog.group_from_permutations", "catalog.group_catalog",
                   "racks.conjugation_triple",
                   "racks.conjugation_crossed_module"})

SUITES = frozenset({"integrate.check_local_group_set_laws",
                    "integrate.check_local_rack_laws",
                    "integrate.check_equivariance"})
STENCILS = frozenset({"localgroup.derivative_at_identity",
                      "localgroup.mixed_second_derivative"})
RACK_CHECKERS = frozenset({"racks.check_group", "racks.check_rack",
                           "racks.check_group_rack_triple",
                           "racks.check_group_crossed_module",
                           "racks.check_rack_triple_morphism"})

# span tuple layout
NAME, START, END, PARENT, CASE, RAISED = range(6)


class Tracer:
    """Collects spans and layer counters for one traced run."""

    def __init__(self):
        self.names: list = []           # span name ids -> "module.function"
        self.spans: list = []
        self.stack: list = []
        self.case = "setup"
        self.counters = {"samples_requested": 0, "samples_used": 0,
                         "stencil_shrinks": 0, "rack_failures": 0}
        self.model_step = None
        self.missing: list = []
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self, targets=TARGETS) -> list:
        """Wrap every target; return the names that could not be found."""
        for module_name in sorted({m for m, _ in targets}):
            try:
                importlib.import_module(f"leibrack.{module_name}")
            except ImportError:
                pass
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "leibrack" or k.startswith("leibrack.")) and m]
        for module_name, attr_path in targets:
            name = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(f"leibrack.{module_name}")
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:                   # a method: patch the class attribute
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return list(self.missing)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = self._hook_for(name, fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent, parent_name = stack[-1] if stack else (-1, -1)
            stack.append((idx, name_id))
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.case, raised)
            if hook is not None:
                hook(args, kwargs, result, parent_name)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters taken at the layer boundary --------------------------------

    def _signature_with(self, name: str, fn, param: str):
        """The signature of fn if it still takes ``param``; otherwise the
        counter is reported missing, like a vanished function."""
        sig = inspect.signature(fn)
        if param in sig.parameters:
            return sig
        self.missing.append(f"{name}({param})")
        return None

    def _hook_for(self, name: str, fn):
        if name in SUITES:
            sig = self._signature_with(name, fn, "samples")
            if sig is None:
                return None

            def suite(args, kwargs, report, parent_name):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters["samples_requested"] += int(bound.arguments["samples"])
                self.counters["samples_used"] += int(
                    report.info.get("samples_used", 0))
            return suite
        if name == "integrate.build_model":
            def model(args, kwargs, result, parent_name):
                self.model_step = getattr(getattr(result, "cfg", None), "step",
                                          None)
            return model
        if name in STENCILS:
            sig = self._signature_with(name, fn, "cfg")
            if sig is None:
                return None

            def stencil(args, kwargs, result, parent_name):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                step = bound.arguments["cfg"].step
                if self.model_step is not None and step < self.model_step:
                    self.counters["stencil_shrinks"] += 1
            return stencil
        if name in RACK_CHECKERS:
            def rack(args, kwargs, report, parent_name):
                if parent_name < 0 or self.names[parent_name] not in RACK_CHECKERS:
                    self.counters["rack_failures"] += int(
                        report.info.get("failures", 0))
            return rack
        return None


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list:
    """Self time of every span: its duration minus its direct children's.

    Spans of one thread nest, so direct children never overlap and their
    durations can simply be summed."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def aggregate(names: list, spans: list, keep) -> dict:
    """Per function name: calls, self seconds and raised exceptions over the
    spans for which ``keep(span)`` holds."""
    own = self_times(spans)
    out = {n: {"calls": 0, "self_s": 0.0, "errors": 0} for n in names}
    for s, t in zip(spans, own):
        if keep(s):
            row = out[names[s[NAME]]]
            row["calls"] += 1
            row["self_s"] += t
            row["errors"] += int(s[RAISED])
    return out
