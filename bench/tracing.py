"""Span tracing of plasthom's layers from outside the package.

``traced()`` replaces every binding of the traced public functions with a
wrapper that records one span per call -- name, start, end and the span that
caused it -- plus counts taken from the call's arguments and result, and
restores the originals on exit.  Spans stay in memory; ``layer_metrics``
turns them into the per-layer metrics and ``span_rows`` into rows to write
out when the run ends.

A name is traced under every module that binds it, because a wrapper on the
home module alone misses callers that imported the function by name.  The
tracer keeps one span stack, so traced code must run on one thread.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import scipy.sparse as sp

from plasthom import cellproblem, experiments, fem, finescale, macroscale, media, returnmap


@dataclass
class Span:
    name: str
    start: float
    parent: "Span" = None
    end: float = 0.0
    child_s: float = 0.0      # time covered by direct children
    data: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records spans of wrapped calls.

    ``before`` and ``hook`` add counts from a call's arguments before it runs
    and from its result after it returns.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, hook=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(span)
            if before is not None:
                before(span, args, kwargs)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            if parent is not None:
                # the hook's own cost is charged to no layer
                parent.child_s += time.perf_counter() - span.start
            return result

        return wrapper


# -- hooks: counts taken where the work happens ------------------------------


def _pcg_hook(span, args, kwargs, result):
    matvec = args[0]
    if sp.issparse(matvec):
        nnz = matvec.nnz
    else:  # the kernel-corrected closure of solve_periodic
        nnz = span.parent.data["nnz"]
    span.data["iters"] = result[1]
    span.data["nnz_iters"] = nnz * result[1]


def _periodic_before(span, args, kwargs):
    span.data["nnz"] = args[1].nnz


def _assemble_hook(span, args, kwargs, result):
    span.data["elements"] = args[1].shape[0]


def _plastic_step_hook(span, args, kwargs, result):
    p_old, p_new = args[1], result[1]
    span.data["elements"] = p_new.shape[0]
    span.data["active"] = int((p_new != p_old).any(axis=1).sum())
    span.data["tangent"] = kwargs.get("tangent", True)


def _newton_hook(span, args, kwargs, result):
    span.data["iters"] = result[2]


def _macro_hook(span, args, kwargs, result):
    iters = result.newton_iters
    span.data["iters"] = sum(iters)
    # every macro Newton iteration, the converged one included, advances
    # each element once at its residual strain; the other advances are probes
    span.data["residual_advances"] = args[0].mesh.n_elements * (sum(iters) + len(iters))


def _cells_hook(span, args, kwargs, result):
    span.data["cells"] = len(result["E"])


BEFORE = {"fem.solve_periodic": _periodic_before}

# (owner, attribute, span name, hook); every binding of a traced function
BINDINGS = (
    (fem, "pcg", "fem.pcg", _pcg_hook),
    (finescale, "pcg", "fem.pcg", _pcg_hook),
    (macroscale, "pcg", "fem.pcg", _pcg_hook),
    (fem, "solve_periodic", "fem.solve_periodic", None),
    (fem.P1Space, "assemble_operator", "fem.assemble", _assemble_hook),
    (returnmap, "plastic_step", "returnmap.plastic_step", _plastic_step_hook),
    (finescale, "plastic_step", "returnmap.plastic_step", _plastic_step_hook),
    (returnmap.MaterialArrays, "from_medium", "returnmap.from_medium", None),
    (finescale, "newton_solve", "finescale.newton", _newton_hook),
    (cellproblem, "newton_solve", "finescale.newton", _newton_hook),
    (finescale, "solve_eps", "finescale.solve_eps", None),
    (cellproblem, "solve_cell", "cellproblem.solve_cell", None),
    (cellproblem, "sigma", "cellproblem.sigma", None),
    (macroscale, "solve_effective", "macroscale.solve_effective", _macro_hook),
    (macroscale.ElementCellState, "advance", "macroscale.advance", None),
    (macroscale.ElementCellState, "__init__", "macroscale.cells_init", None),
    (media.ProbabilityLaw, "cell_parameters", "media.cell_parameters", _cells_hook),
    (media, "ergodic_average", "media.ergodic_average", None),
    (experiments, "ergodic_average", "media.ergodic_average", None),
    (experiments, "run_ergodic_check", "experiments.run_ergodic_check", None),
)


@contextmanager
def traced():
    """Wrap every binding in BINDINGS for the duration; yields the Tracer."""
    tracer = Tracer()
    originals = []
    try:
        for owner, attr, name, hook in BINDINGS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    tracer.wrap(original.__func__, name, hook, BEFORE.get(name)))
            else:
                wrapped = tracer.wrap(original, name, hook, BEFORE.get(name))
            setattr(owner, attr, wrapped)
            originals.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def span_rows(spans):
    """Spans as rows [name, start_s, end_s, parent row or -1], times from the first start."""
    row = {id(span): i for i, span in enumerate(spans)}
    origin = spans[0].start if spans else 0.0
    return [[span.name, span.start - origin, span.end - origin,
             row[id(span.parent)] if span.parent is not None else -1] for span in spans]


# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "fem.pcg.calls": "count",
    "fem.pcg.iters": "count",
    "fem.pcg.iters_per_call": "count",
    "fem.pcg.nnz_iters": "count",
    "fem.pcg.self_s": "s",
    "fem.assemble.calls": "count",
    "fem.assemble.elements": "count",
    "fem.assemble.self_s": "s",
    "fem.assemble.us_per_element": "us",
    "fem.solve_periodic.self_s": "s",
    "returnmap.plastic_step.calls": "count",
    "returnmap.plastic_step.elements": "count",
    "returnmap.plastic_step.self_s": "s",
    "returnmap.plastic_step.active_share": "ratio",
    "returnmap.from_medium.calls": "count",
    "finescale.newton.calls": "count",
    "finescale.newton.iters": "count",
    "finescale.newton.ls_cuts": "count",
    "finescale.newton.self_s": "s",
    "cellproblem.solve_cell.calls": "count",
    "cellproblem.solve_cell.self_s": "s",
    "cellproblem.sigma.self_s": "s",
    "macroscale.advance.calls": "count",
    "macroscale.probe_share": "ratio",
    "macroscale.newton.iters": "count",
    "macroscale.self_s": "s",
    "macroscale.cells_init_s": "s",
    "media.cell_parameters.cells": "count",
    "media.cell_parameters.self_s": "s",
    "media.ergodic_average.self_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_share": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced call, all but ``trace.overhead_share``.

    Self time is a span's duration minus the time its direct children cover;
    a layer's self time sums the self times of its spans.  Layers that did
    not run report 0.
    """
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        layer_self[span.layer] += span.self_s

    def calls(name):
        return len(by_name[name])

    def total(name, key):
        # a span whose call raised carries no counts
        return sum(span.data.get(key, 0) for span in by_name[name])

    def self_s(name):
        return sum((span.self_s for span in by_name[name]), 0.0)

    pcg_calls, pcg_iters = calls("fem.pcg"), total("fem.pcg", "iters")
    elements = total("fem.assemble", "elements")
    steps = by_name["returnmap.plastic_step"]
    step_elements = total("returnmap.plastic_step", "elements")
    newton_calls, newton_iters = calls("finescale.newton"), total("finescale.newton", "iters")
    # newton_solve evaluates the tangent once up front and once per line-search
    # try; each iteration ends with one accepted try
    tangent_evals = sum(1 for span in steps if span.data.get("tangent"))
    advances = calls("macroscale.advance")
    residual_advances = total("macroscale.solve_effective", "residual_advances")
    return {
        "fem.pcg.calls": pcg_calls,
        "fem.pcg.iters": pcg_iters,
        "fem.pcg.iters_per_call": _ratio(pcg_iters, pcg_calls),
        "fem.pcg.nnz_iters": total("fem.pcg", "nnz_iters"),
        "fem.pcg.self_s": self_s("fem.pcg"),
        "fem.assemble.calls": calls("fem.assemble"),
        "fem.assemble.elements": elements,
        "fem.assemble.self_s": self_s("fem.assemble"),
        "fem.assemble.us_per_element": 1e6 * _ratio(self_s("fem.assemble"), elements),
        "fem.solve_periodic.self_s": self_s("fem.solve_periodic"),
        "returnmap.plastic_step.calls": len(steps),
        "returnmap.plastic_step.elements": step_elements,
        "returnmap.plastic_step.self_s": self_s("returnmap.plastic_step"),
        "returnmap.plastic_step.active_share": _ratio(
            total("returnmap.plastic_step", "active"), step_elements),
        "returnmap.from_medium.calls": calls("returnmap.from_medium"),
        "finescale.newton.calls": newton_calls,
        "finescale.newton.iters": newton_iters,
        "finescale.newton.ls_cuts": (tangent_evals - newton_calls - newton_iters
                                     if newton_calls else 0),
        "finescale.newton.self_s": self_s("finescale.newton"),
        "cellproblem.solve_cell.calls": calls("cellproblem.solve_cell"),
        "cellproblem.solve_cell.self_s": self_s("cellproblem.solve_cell"),
        "cellproblem.sigma.self_s": self_s("cellproblem.sigma"),
        "macroscale.advance.calls": advances,
        "macroscale.probe_share": _ratio(advances - residual_advances, advances),
        "macroscale.newton.iters": total("macroscale.solve_effective", "iters"),
        "macroscale.self_s": layer_self["macroscale"],
        "macroscale.cells_init_s": sum((span.duration
                                        for span in by_name["macroscale.cells_init"]), 0.0),
        "media.cell_parameters.cells": total("media.cell_parameters", "cells"),
        "media.cell_parameters.self_s": self_s("media.cell_parameters"),
        "media.ergodic_average.self_s": self_s("media.ergodic_average"),
        "experiments.self_s": layer_self["experiments"],
    }


def exact_counts(metrics):
    """The metrics that must repeat exactly between runs of one seed."""
    return {name: value for name, value in metrics.items()
            if PER_LAYER[name] in ("count", "ratio") and not name.startswith("trace.")}
