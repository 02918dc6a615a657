"""Outside-in tracing of tropint's public functions.

Each function named in :data:`TRACED` is replaced by a timing wrapper,
rebound in every ``tropint`` module namespace that holds it (so the
``lp_max`` that ``tropint.polyhedra`` imported is traced too) and restored
by :meth:`Tracer.uninstall`.  Nothing in the program changes.

A span is one call: the operation it belongs to, the function, the
enclosing span, start and end.  Spans are kept in memory and written out
when the run ends.  Alongside them the tracer aggregates, per function:
calls, self time (span time minus the time of its child spans), inclusive
time and ``lp_max`` calls beneath it (both over outermost spans of that
function only, so recursion is not counted twice), and one size figure
read from the arguments or the result.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from time import perf_counter

LP = "_simplex.lp_max"


def _lp_rows(args, kwargs, result):
    return len(kwargs.get("ineqs", ())) + len(kwargs.get("eqs", ()))


TRACED = {
    "_simplex": {"lp_max": _lp_rows},
    "kernel": dict.fromkeys([
        "hermite_normal_form", "smith_normal_form", "lattice_index", "kernel_lattice",
        "subspace_lattice", "solve_rational", "integer_solve", "mat_rank",
        "quotient_generator"]),
    "polyhedra": {
        "Cell.try_from_constraints": lambda a, k, r: r is None,
        "Cell.faces_of_codim_one": lambda a, k, r: len(r),
        "Cell.canonical_key": None,
        "Cell.canonical_cell": None,
        "Cell.recession_cone": None,
        "Cell.tangent_cone": None,
        "refine_cell": lambda a, k, r: len(r) - 1,
        "intersect": None,
        "product_cell": None,
        "collect_hyperplanes": None,
        "strict_point": None,
        "cell_contains_cell": None,
        "cone_from_rays": None,
    },
    "cycles": dict.fromkeys([
        "WeightedComplex.ridges", "is_balanced", "normal_vector", "add", "negate", "scale",
        "cycles_equal", "cartesian_product", "translate", "standard_skeleton", "rn_cycle"]),
    "divisors": {
        "linearize_many": lambda a, k, r: len(r[0].cells),
        "weil_divisor_complex": None,
        "weil_divisor": None,
        "divisor_chain": None,
    },
    "morphisms": dict.fromkeys([
        "push_forward", "pull_back", "check_projection_formula", "image_cell"]),
    "rn_products": dict.fromkeys([
        "stable_intersect", "degree", "is_pn_generic", "bezout_check"]),
    "documents": {
        "parse_document": None,
        "serialize_document": lambda a, k, r: len(r),
    },
}


class Stat:
    """Aggregates of one traced function."""

    __slots__ = ("calls", "self_s", "total_s", "lp_solves", "extra", "depth")

    def __init__(self):
        self.calls = self.lp_solves = self.extra = self.depth = 0
        self.self_s = self.total_s = 0.0


class Tracer:
    """Spans and per-function aggregates; install and uninstall may repeat."""

    def __init__(self):
        self.names = []
        self.stats = {}
        self.spans = []
        self.op = -1
        self._lp_count = 0
        self._children = []
        self._current = -1
        self._restore = []

    def _wrap(self, name, fn, measure):
        if name not in self.stats:
            self.stats[name] = Stat()
            self.names.append(name)
        st = self.stats[name]
        name_id = self.names.index(name)
        is_lp = name == LP
        tracer = self

        def wrapper(*args, **kwargs):
            outermost = st.depth == 0
            st.depth += 1
            lp0 = tracer._lp_count
            if is_lp:
                tracer._lp_count += 1
            children = tracer._children
            children.append(0.0)
            parent = tracer._current
            span = tracer._current = len(tracer.spans)
            tracer.spans.append(None)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                st.depth -= 1
                st.calls += 1
                st.self_s += dur - children.pop()
                if children:
                    children[-1] += dur
                if outermost:
                    st.total_s += dur
                    st.lp_solves += tracer._lp_count - lp0
                tracer._current = parent
                tracer.spans[span] = (tracer.op, name_id, parent, t0, t1)
            if measure is not None:
                st.extra += measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "tropint" or k.startswith("tropint.")]
        for modname, functions in TRACED.items():
            mod = importlib.import_module(f"tropint.{modname}")
            for qual, measure in functions.items():
                name = f"{modname}.{qual}"
                if "." in qual:
                    self._install_method(name, mod, qual, measure)
                    continue
                original = getattr(mod, qual)
                wrapper = self._wrap(name, original, measure)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, original))

    def _install_method(self, name, mod, qual, measure):
        cls_name, attr = qual.split(".")
        owner = getattr(mod, cls_name)
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            new = classmethod(self._wrap(name, original.__func__, measure))
        elif isinstance(original, property):
            # canonical_key caches its value on the cell; only the calls that
            # compute it are spans, so cached reads cost no wrapper call.
            compute = self._wrap(name, original.fget, measure)

            def getter(cell):
                cached = cell._canonical
                return cached if cached is not None else compute(cell)
            new = property(getter)
        else:
            new = self._wrap(name, original, measure)
        setattr(owner, attr, new)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path):
        """One JSON line per span: [op, function, parent span, start, end]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"functions": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _module(name):
    return name.split(".", 1)[0]


def layer_metrics(stats, ops):
    """Per-layer metrics per completed operation, from the aggregates.

    `ops` is the number of operations the traced rounds completed.  Ratios
    with an empty base read 0.
    """
    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    def s(name):
        return stats[name]

    def module_self(mod):
        return per_op(sum(st.self_s for n, st in stats.items() if _module(n) == mod))

    lp = s(LP)
    tfc = s("polyhedra.Cell.try_from_constraints")
    faces = s("polyhedra.Cell.faces_of_codim_one")
    refine = s("polyhedra.refine_cell")
    ridges = s("cycles.WeightedComplex.ridges")
    lin = s("divisors.linearize_many")
    pf = s("morphisms.push_forward")
    si = s("rn_products.stable_intersect")
    out = {
        "simplex.lp_max.calls": (per_op(lp.calls), "count/op", "lower"),
        "simplex.lp_max.self_s": (per_op(lp.self_s), "s/op", "lower"),
        "simplex.lp_max.rows_mean": (ratio(lp.extra, lp.calls), "rows", "lower"),
        "polyhedra.self_s": (module_self("polyhedra"), "s/op", "lower"),
        "polyhedra.Cell.try_from_constraints.calls": (per_op(tfc.calls), "count/op", "lower"),
        "polyhedra.Cell.try_from_constraints.empty_ratio":
            (ratio(tfc.extra, tfc.calls), "ratio", "lower"),
        "polyhedra.Cell.faces_of_codim_one.calls": (per_op(faces.calls), "count/op", "lower"),
        "polyhedra.Cell.faces_of_codim_one.lp_solves":
            (per_op(faces.lp_solves), "count/op", "lower"),
        "polyhedra.Cell.faces_of_codim_one.faces_out": (per_op(faces.extra), "count/op", "lower"),
        "polyhedra.Cell.canonical_key.lp_solves":
            (per_op(s("polyhedra.Cell.canonical_key").lp_solves), "count/op", "lower"),
        "polyhedra.refine_cell.calls": (per_op(refine.calls), "count/op", "lower"),
        "polyhedra.refine_cell.lp_solves": (per_op(refine.lp_solves), "count/op", "lower"),
        "polyhedra.refine_cell.split_yield":
            (ratio(refine.extra, refine.lp_solves), "ratio", "higher"),
        "cycles.self_s": (module_self("cycles"), "s/op", "lower"),
        "cycles.WeightedComplex.ridges.calls": (per_op(ridges.calls), "count/op", "lower"),
        "cycles.WeightedComplex.ridges.lp_solves": (per_op(ridges.lp_solves), "count/op", "lower"),
        "cycles.is_balanced.calls": (per_op(s("cycles.is_balanced").calls), "count/op", "lower"),
        "cycles.add.lp_solves": (per_op(s("cycles.add").lp_solves), "count/op", "lower"),
        "cycles.cycles_equal.lp_solves":
            (per_op(s("cycles.cycles_equal").lp_solves), "count/op", "lower"),
        "cycles.cartesian_product.calls":
            (per_op(s("cycles.cartesian_product").calls), "count/op", "lower"),
        "divisors.self_s": (module_self("divisors"), "s/op", "lower"),
        "divisors.linearize_many.lp_solves": (per_op(lin.lp_solves), "count/op", "lower"),
        "divisors.linearize_many.cells_out": (per_op(lin.extra), "count/op", "lower"),
        "divisors.weil_divisor_complex.calls":
            (per_op(s("divisors.weil_divisor_complex").calls), "count/op", "lower"),
        "morphisms.self_s": (module_self("morphisms"), "s/op", "lower"),
        "morphisms.push_forward.calls": (per_op(pf.calls), "count/op", "lower"),
        "morphisms.push_forward.lp_solves": (per_op(pf.lp_solves), "count/op", "lower"),
        "morphisms.pull_back.calls": (per_op(s("morphisms.pull_back").calls), "count/op", "lower"),
        "rn_products.stable_intersect.calls": (per_op(si.calls), "count/op", "lower"),
        "rn_products.stable_intersect.total_s": (per_op(si.total_s), "s/op", "lower"),
        "rn_products.is_pn_generic.lp_solves":
            (per_op(s("rn_products.is_pn_generic").lp_solves), "count/op", "lower"),
        "rn_products.self_s": (module_self("rn_products"), "s/op", "lower"),
        "kernel.self_s": (module_self("kernel"), "s/op", "lower"),
        "kernel.hermite_normal_form.calls":
            (per_op(s("kernel.hermite_normal_form").calls), "count/op", "lower"),
        "kernel.smith_normal_form.calls":
            (per_op(s("kernel.smith_normal_form").calls), "count/op", "lower"),
        "kernel.lattice_index.calls": (per_op(s("kernel.lattice_index").calls), "count/op", "lower"),
        "documents.parse_document.self_s":
            (per_op(s("documents.parse_document").self_s), "s/op", "lower"),
        "documents.serialize_document.self_s":
            (per_op(s("documents.serialize_document").self_s), "s/op", "lower"),
        "documents.bytes_out": (per_op(s("documents.serialize_document").extra), "B/op", "lower"),
    }
    return out


def is_count(name):
    """Metrics made of counts alone, which must repeat exactly."""
    return not name.endswith("_s")
