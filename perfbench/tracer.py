"""Per-layer tracing of torusfan from outside the library.

The tracer replaces each traced function, at every place torusfan binds
it, with a wrapper that records a span: calls, wall time, self time (the
span minus the time of traced spans opened inside it) and, for matrix
routines, the input size.  Library code is not changed; ``install`` patches
module and class namespaces and ``remove`` puts the originals back.

Bindings matter because torusfan re-exports and aliases functions
(``from .charfun import find_characteristic_map`` in realize,
``smith_normal_form = linalg.smith_normal_form`` in homology, and the
package ``__init__``): patching only the defining module would miss the
calls made through those names.
"""

import sys
from time import perf_counter


def _mat_entries(args, kwargs):
    mat = args[0] if args else kwargs["mat"]
    return len(mat) * len(mat[0]) if mat else 0


def _rank_layer(args, kwargs):
    char = args[1] if len(args) > 1 else kwargs.get("char", 0)
    return "linalg.rank_p" if char else "linalg.rank_q"


class Layer:
    """A traced layer: its name and the functions whose spans it owns.

    ``targets`` are (module, qualified name) pairs.  ``split`` picks the
    layer name per call (rank over Q versus GF(p)); ``entries`` measures
    the input size; ``inside`` names an enclosing layer that counts this
    layer's calls made within its spans.
    """

    def __init__(self, name, targets, split=None, entries=None, inside=None):
        self.name = name
        self.targets = targets
        self.split = split
        self.entries = entries
        self.inside = inside


LAYERS = (
    Layer("linalg.snf", [("torusfan.linalg", "smith_normal_form")],
          entries=_mat_entries, inside="charfun.search"),
    Layer("linalg.rank", [("torusfan.linalg", "rank")],
          split=_rank_layer, entries=_mat_entries),
    Layer("linalg.pivots", [("torusfan.linalg", "echelon_pivot_columns")]),
    Layer("linalg.invert", [("torusfan.linalg", "invert_unimodular")]),
    Layer("linalg.bitspan", [("torusfan.linalg", "BitSpan.reduce"),
                             ("torusfan.linalg", "BitSpan.add"),
                             ("torusfan.linalg", "BitSpan.contains")]),
    Layer("homology.chain_complex", [("torusfan.homology", "cell_chain_complex")]),
    Layer("homology.reduced", [("torusfan.homology", "reduced_homology"),
                               ("torusfan.homology", "link_homology_is_sphere")]),
    Layer("homology.verdicts", [("torusfan.homology", "cohen_macaulay"),
                                ("torusfan.homology", "torsion_free_links"),
                                ("torusfan.homology", "gorenstein_star"),
                                ("torusfan.homology", "gorenstein_star_subdivided"),
                                ("torusfan.homology", "pseudomanifold"),
                                ("torusfan.homology", "euler_sphere_check")]),
    Layer("charfun.search", [("torusfan.charfun", "find_characteristic_map")]),
    Layer("charfun.unimodular", [("torusfan.charfun", "check_unimodular")]),
    Layer("charfun.gkm_build", [("torusfan.charfun", "build_gkm_graph")]),
    Layer("charfun.gkm_dim", [("torusfan.charfun", "gkm_subalgebra_dimension")]),
    Layer("poset.construct", [("torusfan.poset", "SimplicialPoset.__init__")]),
    Layer("poset.validate", [("torusfan.poset", "poset_violations")]),
    Layer("poset.link", [("torusfan.poset", "SimplicialPoset.link")]),
    Layer("poset.surgery", [("torusfan.poset", "join"),
                            ("torusfan.poset", "connected_sum"),
                            ("torusfan.poset", "barycentric_subdivision"),
                            ("torusfan.poset", "stellar_subdivision"),
                            ("torusfan.poset", "simplex_boundary"),
                            ("torusfan.poset", "simplex_poset"),
                            ("torusfan.poset", "sphere_poset"),
                            ("torusfan.poset", "sphere_product_poset")]),
    Layer("poset.join_set", [("torusfan.poset", "SimplicialPoset.join_set")]),
    Layer("poset.meet", [("torusfan.poset", "SimplicialPoset.meet")]),
    Layer("facering.straighten", [("torusfan.facering", "straighten_product")]),
    Layer("facering.monomial_product", [("torusfan.facering", "FaceRing.monomial_product")]),
    Layer("facering.basis", [("torusfan.facering", "chain_monomial_basis"),
                             ("torusfan.facering", "graded_dimension")]),
    Layer("polys.restrict", [("torusfan.polys", "restrict_to_hyperplane")]),
    Layer("cohomology.betti", [("torusfan.cohomology", "betti_numbers"),
                               ("torusfan.cohomology", "quotient_dimensions"),
                               ("torusfan.cohomology", "graded_quotient_basis")]),
    Layer("cohomology.sw_parity", [("torusfan.cohomology", "sw_parity")]),
    Layer("cohomology.present", [("torusfan.cohomology", "present_cohomology_ring")]),
    Layer("realize.pipeline", [("torusfan.realize", "realize_with_lambda")]),
    Layer("cli.main", [("torusfan.cli", "main")]),
    Layer("cli.load", [("torusfan.cli", "_load_json"),
                       ("torusfan.cli", "_load_poset"),
                       ("torusfan.cli", "_load_chi")]),
)

ROOT = "job"  # the span around one whole job; its self time is unattributed


class Record:
    __slots__ = ("calls", "total", "self_time", "entries", "open", "inner_calls")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.entries = 0
        self.open = 0
        self.inner_calls = 0


def _resolve(module_name, qualname):
    """The raw function object for a target, or None if it no longer exists."""
    owner = sys.modules.get(module_name)
    parts = qualname.split(".")
    for part in parts:
        if owner is None:
            return None
        owner = vars(owner).get(part)
    return owner


def _namespaces():
    """Every torusfan module and every class defined in one, once each."""
    seen = set()
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "torusfan" or name.startswith("torusfan.")):
            continue
        for owner in [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == name]:
            if id(owner) not in seen:
                seen.add(id(owner))
                yield owner


def bindings(func):
    """(owner, attribute) for every torusfan namespace entry that is func."""
    return [(owner, key) for owner in _namespaces()
            for key, value in list(vars(owner).items()) if value is func]


class Tracer:
    """Span records per layer; ``install`` and ``remove`` may alternate,
    and the records accumulate across installs."""

    def __init__(self):
        self.records = {}
        self.patched = []   # (owner, attribute, original)
        self.missing = []   # targets that no longer exist
        self._stack = []    # child-time accumulators of the open spans

    def record(self, name):
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = Record()
        return rec

    def install(self):
        self.missing = []
        for layer in LAYERS:
            for module_name, qualname in layer.targets:
                func = _resolve(module_name, qualname)
                if not callable(func):
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                wrapper = self._wrap(func, layer)
                for owner, key in bindings(func):
                    setattr(owner, key, wrapper)
                    self.patched.append((owner, key, func))

    def remove(self):
        for owner, key, func in reversed(self.patched):
            setattr(owner, key, func)
        self.patched.clear()

    def job(self, func):
        """Call func inside the root span of one job."""
        return self._wrap(func, Layer(ROOT, ()))()

    def _wrap(self, func, layer):
        stack = self._stack
        split, entries = layer.split, layer.entries
        fixed = None if split else self.record(layer.name)
        outer = self.record(layer.inside) if layer.inside else None

        def traced(*args, **kwargs):
            rec = fixed or self.record(split(args, kwargs))
            rec.calls += 1
            if entries is not None:
                rec.entries += entries(args, kwargs)
            if outer is not None and outer.open:
                outer.inner_calls += 1
            rec.open += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                rec.open -= 1
                rec.total += dt
                rec.self_time += dt - child
                if stack:
                    stack[-1] += dt

        traced.__name__ = getattr(func, "__name__", layer.name)
        traced.__qualname__ = getattr(func, "__qualname__", layer.name)
        traced.__doc__ = func.__doc__
        return traced


# Per-layer metrics reported by a traced run: (name, unit, better).  Counts
# and times are per job of the traced pass, so runs of different length and
# commits of different speed stay comparable.
PER_LAYER = (
    ("linalg.snf.calls", "calls/job", "lower"),
    ("linalg.snf.self_s", "s/job", "lower"),
    ("linalg.snf.entries", "entries/job", "lower"),
    ("linalg.rank_q.calls", "calls/job", "lower"),
    ("linalg.rank_q.self_s", "s/job", "lower"),
    ("linalg.rank_q.entries", "entries/job", "lower"),
    ("linalg.rank_p.calls", "calls/job", "lower"),
    ("linalg.rank_p.self_s", "s/job", "lower"),
    ("linalg.rank_p.entries", "entries/job", "lower"),
    ("linalg.pivots.self_s", "s/job", "lower"),
    ("linalg.invert.self_s", "s/job", "lower"),
    ("linalg.bitspan.self_s", "s/job", "lower"),
    ("homology.chain_complex.calls", "calls/job", "lower"),
    ("homology.chain_complex.self_s", "s/job", "lower"),
    ("homology.reduced.self_s", "s/job", "lower"),
    ("homology.verdicts.self_s", "s/job", "lower"),
    ("charfun.search.calls", "calls/job", "lower"),
    ("charfun.search.self_s", "s/job", "lower"),
    ("charfun.search.snf_calls", "calls/job", "lower"),
    ("charfun.unimodular.self_s", "s/job", "lower"),
    ("charfun.gkm_build.self_s", "s/job", "lower"),
    ("charfun.gkm_dim.self_s", "s/job", "lower"),
    ("poset.construct.calls", "calls/job", "lower"),
    ("poset.construct.self_s", "s/job", "lower"),
    ("poset.validate.self_s", "s/job", "lower"),
    ("poset.link.calls", "calls/job", "lower"),
    ("poset.link.self_s", "s/job", "lower"),
    ("poset.surgery.self_s", "s/job", "lower"),
    ("poset.join_set.calls", "calls/job", "lower"),
    ("poset.join_set.self_s", "s/job", "lower"),
    ("poset.meet.self_s", "s/job", "lower"),
    ("facering.straighten.calls", "calls/job", "lower"),
    ("facering.straighten.self_s", "s/job", "lower"),
    ("facering.monomial_product.calls", "calls/job", "lower"),
    ("facering.product_cache_hit_ratio", "ratio", "higher"),
    ("facering.basis.self_s", "s/job", "lower"),
    ("polys.restrict.calls", "calls/job", "lower"),
    ("polys.restrict.self_s", "s/job", "lower"),
    ("cohomology.betti.self_s", "s/job", "lower"),
    ("cohomology.sw_parity.self_s", "s/job", "lower"),
    ("cohomology.present.self_s", "s/job", "lower"),
    ("realize.pipeline.self_s", "s/job", "lower"),
    ("cli.main.self_s", "s/job", "lower"),
    ("cli.load.self_s", "s/job", "lower"),
    ("trace.unattributed.self_s", "s/job", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics(tracer, jobs, untraced_s, traced_s):
    """Values of every PER_LAYER metric for a traced pass of ``jobs`` jobs."""
    recs = tracer.records
    empty = Record()

    def rec(name):
        return recs.get(name, empty)

    straighten = rec("facering.straighten").calls
    products = rec("facering.monomial_product").calls
    special = {
        "charfun.search.snf_calls": rec("charfun.search").inner_calls / jobs,
        "facering.product_cache_hit_ratio":
            1 - straighten / products if products else 0.0,
        "trace.unattributed.self_s": rec(ROOT).self_time / jobs,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            layer, field = name.rsplit(".", 1)
            r = rec(layer)
            value = {"calls": r.calls, "self_s": r.self_time,
                     "entries": r.entries}[field] / jobs
        out[name] = {"value": value, "unit": unit}
    return out
