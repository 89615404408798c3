"""Per-layer tracing from outside the program.

``Tracer.installed()`` wraps the public functions of every ``cochainlab``
module in a span that counts calls and self time (the span minus the spans
of traced callees).  A function is patched in every module namespace that
binds it, not only where it is defined, and everything is restored on exit.

Run as a script, it makes one traced pass of a workload in a fresh process
and prints the per-layer metrics, wall time and output digest as JSON:

    python3 perfbench/layers.py --workload maps-roundtrip --seed 0
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import workloads

#: Span name -> (module, attribute path).  Class attributes are patched on the
#: class; module functions in every namespace that binds them.
SPANS = {
    "polyalg.MultiPoly.init": ("polyalg", "MultiPoly.__init__"),
    "polyalg.MultiPoly.add": ("polyalg", "MultiPoly.__add__"),
    "polyalg.MultiPoly.mul": ("polyalg", "MultiPoly.__mul__"),
    "polyalg.MultiPoly.pow": ("polyalg", "MultiPoly.__pow__"),
    "polyalg.MultiPoly.subst": ("polyalg", "MultiPoly.subst"),
    "polyalg.MultiPoly.extend": ("polyalg", "MultiPoly.extend"),
    "polyalg.MultiPoly.diff": ("polyalg", "MultiPoly.diff"),
    "polyalg.MultiPoly.defint01": ("polyalg", "MultiPoly.defint01"),
    "polyalg.to_string": ("polyalg", "to_string"),
    "nilgroup.build_group": ("nilgroup", "build_group"),
    "nilgroup.group_delta": ("nilgroup", "group_delta"),
    "nilgroup.PolyGroup.multiply": ("nilgroup", "PolyGroup.multiply"),
    "nilgroup.left_invariant_vf": ("nilgroup", "left_invariant_vf"),
    "nilgroup.maurer_cartan_coframe": ("nilgroup", "maurer_cartan_coframe"),
    "nilgroup.PolyRep.infinitesimal": ("nilgroup", "PolyRep.infinitesimal"),
    "vanest.bg_d": ("vanest", "bg_d"),
    "vanest.bg_delta": ("vanest", "bg_delta"),
    "vanest.bg_h": ("vanest", "bg_h"),
    "vanest.bg_k": ("vanest", "bg_k"),
    "vanest.frame_convert": ("vanest", "frame_convert"),
    "vanest.nabla": ("vanest", "nabla"),
    "vanest.ve_closed": ("vanest", "ve_closed"),
    "vanest.r_closed": ("vanest", "r_closed"),
    "vanest.gamma_map": ("vanest", "gamma_map"),
    "vanest.standard_poly_rep": ("vanest", "standard_poly_rep"),
    "forms.pullback": ("forms", "pullback"),
    "forms.wedge": ("forms", "wedge"),
    "forms.contract": ("forms", "contract"),
    "forms.exterior_d": ("forms", "exterior_d"),
    "forms.homotopy_T": ("forms", "homotopy_T"),
    "liealg.ce_diff": ("liealg", "ce_diff"),
    "liealg.ce_diff_comps": ("liealg", "ce_diff_comps"),
    "liealg.Representation.init": ("liealg", "Representation.__post_init__"),
    "perturb.verify_instance": ("perturb", "verify_instance"),
    "perturb.neumann_apply": ("perturb", "neumann_apply"),
    "perturb.perturbed_h": ("perturb", "perturbed_h"),
    "perturb.perturbed_p": ("perturb", "perturbed_p"),
    "perturb.zigzag_xy": ("perturb", "zigzag_xy"),
    "perturb.zigzag_yx": ("perturb", "zigzag_yx"),
    "cech_derham.pou_h": ("cech_derham", "pou_h"),
    "cech_derham.good_cover_k": ("cech_derham", "good_cover_k"),
    "cech_derham.cech_delta": ("cech_derham", "cech_delta"),
    "cech_derham.PwPoly.add": ("cech_derham", "PwPoly.__add__"),
    "cech_derham.PwPoly.restrict": ("cech_derham", "PwPoly.restrict"),
    "pairgpd.pair_r": ("pairgpd", "pair_r"),
    "pairgpd.pair_ve": ("pairgpd", "pair_ve"),
    "pairgpd.as_delta": ("pairgpd", "as_delta"),
    "cli.run_verify": ("cli", "run_verify"),
    "cli.apply_map": ("cli", "apply_map"),
    "cli.parse_expr": ("cli", "parse_expr"),
    "cli.ce_to_string": ("cli", "ce_to_string"),
}

#: Time spent inside a double-complex instance's operator callables.
INSTANCE_OP = "perturb.instance_op"
#: Factories whose returned instances get their operators wrapped.
INSTANCE_FACTORIES = (
    ("perturb", "matrix_instance"),
    ("cech_derham", "cech_instance"),
    ("vanest", "build_double_complex"),
)
INSTANCE_OPERATORS = ("d", "delta", "h", "k", "p_proj", "i_inc", "q_proj", "j_inc", "d_x", "delta_y")

#: Spans whose distinct arguments are counted: distinct ÷ calls is the
#: redundancy a cache on that function would remove.
DISTINCT = (
    "nilgroup.PolyGroup.multiply",
    "nilgroup.left_invariant_vf",
    "nilgroup.maurer_cartan_coframe",
    "nilgroup.PolyRep.infinitesimal",
    "vanest.gamma_map",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mul_extras(stat, args, kwargs, result):
    stat.extra["terms_out"] += len(result.terms)


def _subst_extras(stat, args, kwargs, result):
    stat.extra["terms_in"] += len(args[0].terms)
    stat.extra["terms_out"] += len(result.terms)


def _neumann_extras(stat, args, kwargs, result):
    # Each series term sits in its own bidegree, so the parts of the sum
    # are the terms used.
    stat.extra["terms_used"] += len(result.parts)
    vertical = _arg(args, kwargs, 1, "which") == "vertical"
    stat.extra["terms_bound"] += _arg(args, kwargs, 3 if vertical else 2, "q" if vertical else "p") + 1


#: Span -> (extra counter names, hook filling them from the call).
EXTRAS = {
    "polyalg.MultiPoly.mul": (("terms_out",), _mul_extras),
    "polyalg.MultiPoly.subst": (("terms_in", "terms_out"), _subst_extras),
    "perturb.neumann_apply": (("terms_used", "terms_bound"), _neumann_extras),
}


def _extra_names(span):
    return EXTRAS[span][0] if span in EXTRAS else ()


TRACING_OVERHEAD = "tracing_overhead_s"


def metric_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for span in list(SPANS) + [INSTANCE_OP]:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        for extra in _extra_names(span):
            units[f"{span}.{extra}"] = "count"
        if span in DISTINCT:
            units[f"{span}.distinct_ratio"] = "ratio"
    units[TRACING_OVERHEAD] = "s"
    return units


def _freeze(value):
    """Hashable identity of an argument, computed without calling traced
    program code: polynomials by their nonzero terms, groups by name."""
    kind = type(value).__name__
    if isinstance(value, (int, str, Fraction)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if kind == "MultiPoly":
        return frozenset(
            (tuple((v, e) for v, e in zip(value.vars, exp) if e), coef)
            for exp, coef in value.terms.items()
        )
    if kind == "PolyGroup":
        return ("group", value.name)
    if kind == "PolyRep":
        return ("rep", value.group.name, _freeze(value.rho))
    raise TypeError(f"no argument key for {kind}")


class Stat:
    __slots__ = ("calls", "self_s", "extra", "keys")

    def __init__(self, extras=()):
        self.calls = 0
        self.self_s = 0.0
        self.extra = {name: 0 for name in extras}
        self.keys = set()


class Tracer:
    """Spans kept in memory: per name, the call count, self time and the
    extra counters."""

    def __init__(self):
        self.stats = {}
        self._stack = []  # per open span: time covered by its child spans
        self._undo = []  # (namespace, attribute, original), in patch order

    def _span(self, name, fn):
        stat = self.stats.setdefault(name, Stat(_extra_names(name)))
        hook = EXTRAS[name][1] if name in EXTRAS else None
        signature = inspect.signature(fn) if name in DISTINCT else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                stat.calls += 1
                stat.self_s += span - frame[0]
            if hook is not None or signature is not None:
                # Bookkeeping time is kept out of the caller's self time.
                book = perf_counter()
                if hook is not None:
                    hook(stat, args, kwargs, result)
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    stat.keys.add(_freeze(tuple(bound.arguments.values())))
                if stack:
                    stack[-1][0] += perf_counter() - book
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def _patch_everywhere(self, namespaces, original, replacement):
        """Rebind ``original`` in every module or class namespace that holds
        it (``__radd__ = __add__`` aliases included)."""
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._undo.append((namespace, attr, original))
                    setattr(namespace, attr, replacement)

    def _install(self):
        modules = [
            importlib.import_module(f"cochainlab.{name}")
            for name in ("polyalg", "forms", "liealg", "nilgroup", "perturb",
                         "vanest", "pairgpd", "cech_derham", "cli")
        ]
        modules.append(importlib.import_module("cochainlab"))
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for name, (module_name, path) in SPANS.items():
            owner = by_name[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._span(name, original)
            if classes:
                self._patch_everywhere([owner], original, wrapper)
            else:
                self._patch_everywhere(modules, original, wrapper)
        self.stats[INSTANCE_OP] = Stat()
        op_span = functools.partial(self._span, INSTANCE_OP)
        for module_name, attr in INSTANCE_FACTORIES:
            factory = getattr(by_name[module_name], attr)

            @functools.wraps(factory)
            def instrumented(*args, _factory=factory, **kwargs):
                inst = _factory(*args, **kwargs)
                ops = {
                    op: op_span(getattr(inst, op))
                    for op in INSTANCE_OPERATORS
                    if getattr(inst, op) is not None
                }
                return dataclasses.replace(inst, **ops)

            instrumented.__perfbench_span__ = INSTANCE_OP
            self._patch_everywhere(modules, factory, instrumented)

    def _uninstall(self):
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)

    @contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def metrics(self) -> dict:
        out = {}
        for span in list(SPANS) + [INSTANCE_OP]:
            stat = self.stats[span]
            out[f"{span}.calls"] = stat.calls
            out[f"{span}.self_s"] = stat.self_s
            for extra, value in stat.extra.items():
                out[f"{span}.{extra}"] = value
            if span in DISTINCT:
                out[f"{span}.distinct_ratio"] = len(stat.keys) / stat.calls if stat.calls else 0.0
        return out


def traced_pass(workload: str, seed: int) -> dict:
    """Set up and run pass 0 of a workload with every span installed; the
    caller provides a fresh process."""
    cli = workloads.setup(workload)
    tally = workloads.Tally()
    tracer = Tracer()
    with tracer.installed():
        start = perf_counter()
        for item in workloads.pass_inputs(workload, seed, 0):
            workloads.run_item(cli, item, tally)
        wall = perf_counter() - start
    return {
        "wall_s": wall,
        "digest": tally.digest(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": tracer.metrics(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="One traced pass of a workload.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    workloads.add_source_path()
    print(json.dumps(traced_pass(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
