"""Span recorder for the traced benchmark pass.

Spans are recorded only at the calls the benchmark makes into a layer's
public function, and, for the `report` workload, at the names that
`singspec.cli` imported from the other layers (rebound inside this
process; the package source is not touched).  Calls the package makes
internally are not wrapped, so a span's self time is its duration minus
the spans it encloses.
"""

import json
import time
from contextlib import contextmanager
from types import SimpleNamespace

# function the benchmark calls: (attribute path inside singspec, span name)
LAYER_FUNCTIONS = {
    "parse_polynomial": ("polycore.parse_polynomial", "polycore.parse"),
    "milnor_algebra": ("localalg.milnor_algebra", "localalg.milnor"),
    "tjurina_number": ("localalg.tjurina_number", "localalg.tjurina"),
    "steenbrink_spectrum": ("localalg.steenbrink_spectrum",
                            "localalg.spectrum"),
    "ideal_membership": ("localalg.ideal_membership", "localalg.membership"),
    "reduce": ("localalg.MilnorAlgebra.reduce", "localalg.membership"),
    "newton_polyhedron": ("newton.newton_polyhedron", "newton.polyhedron"),
    "is_nondegenerate": ("newton.is_nondegenerate", "newton.nondegenerate"),
    "hodge_ideal_spectrum": ("hodge.hodge_ideal_spectrum",
                             "hodge.hi_spectrum"),
    "tjurina_subspectrum": ("hodge.tjurina_subspectrum", "hodge.tj_spectrum"),
    "hodge_ideal_member": ("hodge.hodge_ideal_member", "hodge.member"),
    "epsilon_f": ("hodge.epsilon_f", "hodge.epsilon"),
    "theorem1_check": ("hodge.theorem1_check", "hodge.checks"),
    "theorem2_check": ("hodge.theorem2_check", "hodge.checks"),
    "theorem3_witness": ("hodge.theorem3_witness", "hodge.checks"),
    "prop1_check": ("hodge.prop1_check", "hodge.checks"),
    "prop2_witness": ("hodge.prop2_witness", "hodge.checks"),
    "main": ("cli.main", "cli.main"),
}

SPAN_NAMES = sorted({span for _, span in LAYER_FUNCTIONS.values()})
LAYERS = ("polycore", "localalg", "newton", "hodge", "cli")


def _resolve(pkg, path):
    obj = pkg
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def plain_api(pkg):
    """The public functions the workloads call, unwrapped."""
    return SimpleNamespace(**{attr: _resolve(pkg, path)
                              for attr, (path, _) in LAYER_FUNCTIONS.items()})


class Recorder:
    """In-memory spans: [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = None
        self.on_algebra = None

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "localalg.milnor" and self.on_algebra is not None:
                self.on_algebra(result)
            return result

        return traced

    def api(self, pkg):
        """Like plain_api, with every function wrapped in a span."""
        return SimpleNamespace(**{
            attr: self.wrap(span, _resolve(pkg, path))
            for attr, (path, span) in LAYER_FUNCTIONS.items()})

    @contextmanager
    def cli_rebound(self, cli):
        """Wrap the layer functions under the names singspec.cli imported
        them by, restoring the originals on exit."""
        saved = {attr: getattr(cli, attr) for attr in LAYER_FUNCTIONS
                 if attr != "main" and hasattr(cli, attr)}
        try:
            for attr, fn in saved.items():
                setattr(cli, attr, self.wrap(LAYER_FUNCTIONS[attr][1], fn))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)

    def totals(self):
        """{span name: (inclusive s, self s, calls)} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0.0, 0.0, 0] for name in SPAN_NAMES}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            acc = out[name]
            acc[0] += end - start
            acc[1] += end - start - covered
            acc[2] += 1
        return out

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "request": request}) + "\n")
