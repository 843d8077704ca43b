"""Layer tracing from outside the program.

``Tracer.install`` wraps each public function listed in ``LAYERS`` and
rebinds every place that holds it: the defining module, each module that
imported it by name, and class aliases such as ``TrigPoly.__rmul__``.
Each call records a span (name, job, parent, start, end) in memory;
``write_spans`` writes them out once the pass is over.

Per function ``F`` of layer ``L`` the metrics are ``L.F_calls`` and
``L.F_s`` (inclusive seconds, outer call only when it recurses), and per
layer ``L.self_s``: the time during which ``L`` is the innermost active
layer.  The wrappers' own bookkeeping is timed and subtracted from every
span that encloses it, so the layer times exclude it; the pass wall time
does not (run.py reports the ratio as ``trace.overhead``).
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

from jobs import SUITES

# layer -> (module, functions timed, argument that splits the span name)
LAYERS = {
    "cli": ("preqlat.cli", ("parse_job", "run", "render"), None),
    "cealg": ("preqlat.cealg",
              ("validate_presentation", "complex_matrices", "ce_differential"), None),
    "intlinalg": ("preqlat.intlinalg",
                  ("smith_normal_form", "kernel_basis", "solve_in_lattice", "rational_solver",
                   "column_style_hermite", "int_inverse", "mat_mul_frac"), None),
    "cohomring": ("preqlat.cohomring",
                  ("integral_cohomology", "CohomologyRing.cup", "GradedCohomology.reduce"), None),
    "prequant": ("preqlat.prequant",
                 ("euler_candidates", "gysin_kernel", "liouville_volume", "integrable_lattice",
                  "lattice_report"), None),
    "toruscalc.trig": ("preqlat.toruscalc.trig",
                       ("TrigPoly.__mul__", "TrigPoly.__add__", "TrigPoly.diff"), None),
    "toruscalc.forms": ("preqlat.toruscalc.forms",
                        ("exterior_derivative", "wedge", "contract", "lie_derivative",
                         "integrate_over_cycle", "vf_bracket"), None),
    "toruscalc.symplectic": ("preqlat.toruscalc.symplectic",
                             ("hamiltonian_field", "poisson_bracket", "roger_cocycle",
                              "singular_cocycle", "ks_cocycle"), None),
    "toruscalc.contact": ("preqlat.toruscalc.contact",
                          ("contact_bracket", "contact_flux", "contact_pullback_residual"), None),
    "toruscalc.volume": ("preqlat.toruscalc.volume",
                         ("lichnerowicz_singular", "lichnerowicz_eta",
                          "exact_field_from_potential"), None),
    # one span name per cocycle kind (first argument)
    "toruscalc.residuals": ("preqlat.toruscalc.residuals", ("cocycle_residual",),
                            ("roger", "singular", "ks", "sigma_q", "lichnerowicz_q",
                             "lichnerowicz_eta")),
    # one span name per suite; every verify job runs a single suite
    "verify": ("preqlat.verify", ("run_suites",), SUITES),
}

COUNTERS = (
    ("intlinalg.snf_distinct_ratio", "1"),   # distinct input matrices per job / calls
    ("intlinalg.snf_max_cells", "count"),    # largest rows * cols
    ("intlinalg.snf_max_bits", "bits"),      # largest entry of d, u, v, uinv, vinv
    ("cohomring.rep_max_bits", "bits"),      # largest representative coefficient
    ("toruscalc.trig.mul_mode_pairs", "count"),  # sum |a.modes| * |b.modes|
)


def _short(qualname):
    return qualname.rsplit(".", 1)[-1].strip("_")


def span_names(layer):
    _, funcs, split = LAYERS[layer]
    if split:
        return [f"{layer}.{s}" for s in split]
    return [f"{layer}.{_short(f)}" for f in funcs]


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for layer in LAYERS:
        for name in span_names(layer):
            if layer != "verify":
                specs.append((f"{name}_calls", "count"))
            specs.append((f"{name}_s", "s"))
        specs.append((f"{layer}.self_s", "s"))
    return specs + list(COUNTERS)


def _max_bits(mat):
    top = 0
    for row in mat:
        if row:
            top = max(top, max(row), -min(row))
    return top.bit_length()


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.overhead = 0.0          # wrapper bookkeeping seconds so far
        self.stack = []              # open frames [name, start, overhead at start, child s, span]
        self.job = -1
        self.calls = {}
        self.inclusive = {}
        self.depth = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.layer_of = {}
        self.name_ids = {}
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.snf_keys = set()
        self.snf_distinct = 0
        self.counters = {name: 0 for name, _ in COUNTERS}
        self.patched = {}            # "layer.function" -> bindings replaced

    # -- installation ---------------------------------------------------------

    def install(self):
        hooks = {
            "intlinalg.smith_normal_form": (self._snf_pre, self._snf_post),
            "cohomring.integral_cohomology": (None, self._reps_post),
            "toruscalc.trig.mul": (self._mul_pre, None),
        }
        wrappers = {}                # id(original) -> (original, wrapper, label)
        for layer, (modname, funcs, split) in LAYERS.items():
            owner_mod = importlib.import_module(modname)
            for qual in funcs:
                owner = owner_mod
                for part in qual.split(".")[:-1]:
                    owner = getattr(owner, part)
                orig = vars(owner)[qual.rsplit(".", 1)[-1]]
                name = f"{layer}.{_short(qual)}"
                pre, post = hooks.get(name, (None, None))
                wrapper = self._wrap(orig, layer, name, split, pre, post)
                wrappers[id(orig)] = (orig, wrapper, f"{layer}.{qual}")
        for label in (w[2] for w in wrappers.values()):
            self.patched[label] = 0
        for namespace, setter in self._bindings():
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    setter(attr, hit[1])
                    self.patched[hit[2]] += 1
        missed = [label for label, n in self.patched.items() if n == 0]
        left = [attr for namespace, _ in self._bindings() for attr, value in namespace.items()
                if id(value) in wrappers and wrappers[id(value)][0] is value]
        if missed or left:
            raise RuntimeError(f"tracer could not rebind {missed or left}")

    @staticmethod
    def _bindings():
        """(namespace, setter) for every preqlat module and class."""
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "preqlat" or modname.startswith("preqlat.")):
                continue
            yield vars(mod), lambda attr, value, mod=mod: setattr(mod, attr, value)
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == modname:
                    yield dict(vars(value)), lambda attr, v, cls=value: setattr(cls, attr, v)

    def _wrap(self, orig, layer, name, split, pre, post):
        tracer = self
        clock = time.perf_counter
        if split:
            def name_of(args, kwargs):
                arg = args[0] if args else next(iter(kwargs.values()))
                return f"{layer}.{arg if isinstance(arg, str) else '+'.join(arg)}"
        else:
            self._name_id(name, layer)

        def wrapper(*args, **kwargs):
            t0 = clock()
            span = name_of(args, kwargs) if split else name
            if pre:
                pre(args)
            frame = tracer._open(span, layer)
            t1 = clock()
            tracer.overhead += t1 - t0
            frame[1], frame[2] = t1, tracer.overhead
            try:
                result = orig(*args, **kwargs)
            finally:
                t2 = clock()
                tracer._close(frame, t2)
                tracer.overhead += clock() - t2
            if post:
                t3 = clock()
                post(result)
                tracer.overhead += clock() - t3
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name, layer):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.name_ids)
            self.layer_of[name] = layer
            self.calls[name] = 0
            self.inclusive[name] = 0.0
            self.depth[name] = 0
        return nid

    def _open(self, name, layer):
        nid = self._name_id(name, layer)
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_job.append(self.job)
        self.span_parent.append(self.stack[-1][4] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.calls[name] += 1
        self.depth[name] += 1
        frame = [name, 0.0, 0.0, 0.0, index]
        self.stack.append(frame)
        return frame

    def _close(self, frame, t_end):
        name, start, overhead_at_start, child, index = frame
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        inclusive = (t_end - start) - (self.overhead - overhead_at_start)
        self.span_start[index] = start - self.origin
        self.span_end[index] = t_end - self.origin
        self.depth[name] -= 1
        if self.depth[name] == 0:
            self.inclusive[name] += inclusive
        self.self_s[self.layer_of[name]] += inclusive - child
        if self.stack:
            self.stack[-1][3] += inclusive

    def begin_job(self, index):
        self.job = index
        self.snf_keys = set()

    def end_job(self):
        if self.stack:
            raise RuntimeError("spans left open at the end of a job")

    # -- counters -------------------------------------------------------------

    def _snf_pre(self, args):
        a = args[0]
        self.counters["intlinalg.snf_max_cells"] = max(
            self.counters["intlinalg.snf_max_cells"], len(a) * (len(a[0]) if a else 0))
        key = hash(tuple(tuple(row) for row in a))
        if key not in self.snf_keys:
            self.snf_keys.add(key)
            self.snf_distinct += 1

    def _snf_post(self, snf):
        bits = max(_max_bits(m) for m in (snf.d, snf.u, snf.v, snf.uinv, snf.vinv))
        self.counters["intlinalg.snf_max_bits"] = max(self.counters["intlinalg.snf_max_bits"], bits)

    def _reps_post(self, groups):
        top = 0
        for dd in groups.degrees:
            for rep in list(dd.free_reps) + list(dd.torsion_reps):
                for c in rep.coeffs.values():
                    top = max(top, abs(c.numerator).bit_length(), c.denominator.bit_length())
        self.counters["cohomring.rep_max_bits"] = max(self.counters["cohomring.rep_max_bits"], top)

    def _mul_pre(self, args):
        a, b = args
        other = len(b.modes) if hasattr(b, "modes") else 1
        self.counters["toruscalc.trig.mul_mode_pairs"] += len(a.modes) * other

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric of metric_specs(), as {name: value}."""
        snf_calls = self.calls.get("intlinalg.smith_normal_form", 0)
        values = dict(self.counters)
        values["intlinalg.snf_distinct_ratio"] = self.snf_distinct / snf_calls if snf_calls else 0.0
        for name in self.name_ids:
            values[f"{name}_calls"] = self.calls[name]
            values[f"{name}_s"] = self.inclusive[name]
        for layer, seconds in self.self_s.items():
            values[f"{layer}.self_s"] = seconds
        out = {}
        for name, unit in metric_specs():
            out[name] = values.get(name, 0.0 if unit == "s" else 0)
        return out

    def write_spans(self, path):
        names = sorted(self.name_ids, key=self.name_ids.get)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": names, "columns": ["name", "job", "parent", "start_s", "end_s"]},
                      fh)
            fh.write("\n")
            for row in zip(self.span_name, self.span_job, self.span_parent,
                           self.span_start, self.span_end):
                fh.write("%d\t%d\t%d\t%.9f\t%.9f\n" % row)
