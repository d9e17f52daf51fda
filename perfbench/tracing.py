"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced cmlink function by a wrapper in
every cmlink module namespace that binds it (`free_resolution`, for one, is
bound in `complexes`, `cli` and the package itself), and each traced method
on its class.  A wrapper counts the call and measures its self time: its
duration minus the time covered by the traced calls made inside it.

Calls of the hot `poly.*` entries are only aggregated.  Every other call is
also kept as a span (name, start, end, parent span, op id) for the first
pass; the spans are written out when the run ends.  The counts and times of
an operation that ends over budget are dropped, because how far it got
depends on the machine.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import subprocess
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute); "Class.method" attributes are methods
LAYERS = {
    "poly": [
        ("coeff", "cmlink.poly", "Ring.coeff*"),
        ("mul", "cmlink.poly", "Polynomial.__mul__"),
        ("parse", "cmlink.poly", "parse_poly"),
    ],
    "groebner": [
        (name, "cmlink.groebner", name)
        for name in ("buchberger", "normal_form", "eliminate", "ideal_intersect",
                     "ideal_colon", "ideal_codim")
    ],
    "modules": [
        (name, "cmlink.modules", name)
        for name in ("module_groebner", "module_normal_form", "syzygy_matrix",
                     "prune_redundant_columns", "lift_through", "det_bareiss")
    ],
    "complexes": [
        ("free_resolution", "cmlink.complexes", "free_resolution"),
        ("verify_exactness", "cmlink.complexes", "verify_exactness"),
        ("is_cohen_macaulay", "cmlink.complexes", "is_cohen_macaulay"),
        ("koszul", "cmlink.complexes", "KoszulComplex.__init__"),
    ],
    "linkage": [
        (name, "cmlink.linkage", name)
        for name in ("comparison_morphism", "link_decomposition_check",
                     "membership_via_link", "det_transform_member", "generic_ci")
    ],
    "weier": [
        (name, "cmlink.weier", name)
        for name in ("current_recipe", "weierstrass_ready", "extended_euclid",
                     "resultant_sylvester")
    ],
    "cli": [("run", "cmlink.cli", "run")],
}
AGGREGATED = {"poly.coeff", "poly.mul"}
IMPORT_METRICS = ("import.sympy_s", "import.cmlink_s")


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer, entries in LAYERS.items():
        for short, _, _ in entries:
            out.append((f"{layer}.{short}.calls", "count"))
            out.append((f"{layer}.{short}.self_s", "s"))
    out += [(name, "s") for name in IMPORT_METRICS]
    return out


class Tracer:
    def __init__(self):
        self.stack = []  # [child time, span id] of the open traced calls
        self.calls = defaultdict(int)  # of the current operation
        self.self_s = defaultdict(float)
        self.spans = []  # of the current operation, when recording
        self.recording = False
        self.op_id = None
        self._next_span = 0

    # -- installation ----------------------------------------------------------

    def install(self):
        for layer, entries in LAYERS.items():
            for short, modname, attr in entries:
                name = f"{layer}.{short}"
                module = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    pattern = re.compile(meth.replace("*", r"\w*") + r"\Z")
                    for key, value in list(vars(cls).items()):
                        if callable(value) and pattern.match(key):
                            setattr(cls, key, self._wrap(name, value))
                else:
                    self._rebind(getattr(module, attr), self._wrap(name, getattr(module, attr)))

    @staticmethod
    def _rebind(original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "cmlink" and not modname.startswith("cmlink."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        keep_span = name not in AGGREGATED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if keep_span and tracer.recording:
                span_id = tracer._next_span
                tracer._next_span += 1
                parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id is not None:
                    tracer.spans.append((span_id, name, start, end, parent, tracer.op_id))

        return wrapper

    # -- per operation -----------------------------------------------------------

    def begin(self, op_id, recording):
        self.calls.clear()
        self.self_s.clear()
        self.spans = []
        self.stack.clear()
        self.op_id = op_id
        self.recording = recording

    def end(self):
        """Counts, self times and spans of the operation just run."""
        self.recording = False
        return dict(self.calls), dict(self.self_s), self.spans


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, op_id in spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent, "op": op_id}) + "\n")


def import_times(src, launches=3):
    """Median cumulative import time of sympy and cmlink, in seconds.

    From `python -X importtime -c "import cmlink"`; cmlink's figure includes
    sympy, which cmlink imports.
    """
    samples = {name: [] for name in IMPORT_METRICS}
    for _ in range(launches):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cmlink"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            package = parts[2].strip()
            cumulative[package] = max(cumulative.get(package, 0), int(parts[1]))
        samples["import.sympy_s"].append(cumulative["sympy"] / 1e6)
        samples["import.cmlink_s"].append(cumulative["cmlink"] / 1e6)
    return {name: sorted(v)[len(v) // 2] for name, v in samples.items()}
