"""Per-layer tracing by wrapping the package's functions from outside.

``Tracer.install`` replaces the public functions of each ``glspaths`` module
with wrappers that record a span per call: a count, the total duration and
the self time (duration minus the part covered by child spans).  A name
bound with ``from .x import f`` is a separate binding, so the wrapper is set
in every module that holds the function, not only where it is defined.
Hot methods are wrapped on their class.  Spans are aggregated in memory by
name; nothing is written while the workload runs.  The package itself is
not changed on disk, and ``uninstall`` restores every binding.

Not wrapped, so their time counts toward the calling span: private helpers
(leading underscore), dataclass-generated methods such as ``__eq__`` and
``__hash__``, and generator functions (``checks.run_suite``), whose body
runs while the caller iterates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("rootdata", "torbit", "paths", "gls", "crystals", "character", "checks", "cli")

# (module, class, attribute) -> span name
METHODS = {
    ("rootdata", "WeightContext", "pairing"): "rootdata.pairing",
    ("rootdata", "WeightContext", "reflect"): "rootdata.reflect",
    ("rootdata", "WeightContext", "reflect_inverse"): "rootdata.reflect_inverse",
    ("rootdata", "Weight", "__add__"): "rootdata.weight_add",
    ("rootdata", "Weight", "__sub__"): "rootdata.weight_sub",
    ("rootdata", "Weight", "__mul__"): "rootdata.weight_mul",
    ("rootdata", "Weight", "__rmul__"): "rootdata.weight_rmul",
    ("gls", "GLSPath", "weight"): "gls.path_weight",
    ("gls", "GLSPath", "render"): "gls.render",
}
WEIGHT_ARITH = ("rootdata.weight_add", "rootdata.weight_sub",
                "rootdata.weight_mul", "rootdata.weight_rmul")

# A binding that is timed under the importing module's name: the CLI's
# context loader is the set-up step of every command.
SITE_NAMES = {("cli", "load_context"): "cli.load_context"}


def _defined(result) -> int:
    return result is not None


# span -> how many of its results count as useful outcomes
OUTCOMES: Dict[str, Callable[[object], int]] = {
    "gls.gls_f": _defined,
    "gls.gls_e": _defined,
    "paths.apply_e": _defined,
    "torbit.find_a_chain": _defined,
    "gls.verify_gls": bool,
    "character.char_of_graph": len,
}

# the suite's check functions, each reported as checks.<name>.self_s
CHECKS = ("reflections", "coroot_signs", "orbit_properties", "dist_lemmas",
          "operator_iteration", "inversion_and_weight_shift", "oracle_equivalence",
          "gls_membership", "highest_weight_unique", "crystal_axioms",
          "ambient_axioms", "concatenation_tensor_compat", "tensor_closure",
          "bj_properties", "embedding_theorem", "binfty_stability",
          "non_strictness_witness")


class Tracer:
    """Aggregated spans of one single-threaded run; reset between passes."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.bfs: Counter = Counter()
        # child-time accumulators of the open spans; the first is the root
        self._stack: List[float] = [0.0]
        self._restore: List[Tuple[object, str, object]] = []

    def reset(self):
        self.calls.clear()
        self.hits.clear()
        self.total.clear()
        self.self_time.clear()
        self.bfs.clear()
        del self._stack[1:]
        self._stack[0] = 0.0

    def span(self, name: str, fn: Callable,
             outcome: Optional[Callable[[object], int]] = None) -> Callable:
        """Wrap fn so that each call records a span called name."""
        stack, calls, hits = self._stack, self.calls, self.hits
        total, self_time = self.total, self.self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                total[name] += elapsed
                self_time[name] += elapsed - child
                calls[name] += 1
            if outcome is not None:
                hits[name] += outcome(result)
            return result

        return wrapper

    def _bfs(self, build: Callable) -> Callable:
        """Span the BFS and, inside it, the expansion and finalisation
        callbacks; record the size of every graph it returns."""

        def build_crystal_graph(ctx, root_element, depth, f_func, wt_func,
                                eps_func, key_func, parallel=False):
            if parallel:
                raise ValueError("tracing is single-threaded; run with parallel off")
            graph = build(ctx, root_element, depth,
                          self.span("gls.bfs.expand", f_func),
                          self.span("gls.bfs.finalize", wt_func),
                          self.span("gls.bfs.finalize", eps_func), key_func)
            self.bfs["nodes"] += len(graph)
            self.bfs["edges"] += len(graph.f_edges)
            layers = Counter(node.depth for node in graph.nodes)
            self.bfs["layer_nodes.max"] = max(self.bfs["layer_nodes.max"],
                                              max(layers.values()))
            return graph

        return self.span("gls.bfs", functools.update_wrapper(build_crystal_graph, build))

    def install(self):
        """Wrap every binding of the package's public functions and the
        listed methods.  Call ``uninstall`` (or use ``with``) to undo."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("glspaths")
        modules = {layer: importlib.import_module(f"glspaths.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{layer}.{attr}"
                wrappers[obj] = (self._bfs(obj) if name == "gls.build_crystal_graph"
                                 else self.span(name, obj, OUTCOMES.get(name)))
        sites = [(None, package)] + list(modules.items())
        for layer, site in sites:
            for attr, obj in list(vars(site).items()):
                if not inspect.isfunction(obj) or obj not in wrappers:
                    continue
                site_name = SITE_NAMES.get((layer, attr))
                wrapper = wrappers[obj] if site_name is None else self.span(site_name, obj)
                self._restore.append((site, attr, obj))
                setattr(site, attr, wrapper)
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.span(name, original))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _ratio(num: float, den: float) -> float:
    """num/den, reading 0 when nothing was attempted."""
    return num / den if den else 0.0


def _layer_self(t: Tracer, layer: str) -> float:
    return sum(v for k, v in t.self_time.items() if k.split(".", 1)[0] == layer)


def _calls(span):
    return lambda t: t.calls[span]


def _self(span):
    return lambda t: t.self_time[span]


def _outcome_ratio(span):
    return lambda t: _ratio(t.hits[span], t.calls[span])


def _layer(layer):
    return lambda t: _layer_self(t, layer)


# name -> (unit, better, extractor).  Counts and ratios repeat exactly from
# pass to pass for a given seed; times ("s") do not.
PER_LAYER: Dict[str, Tuple[str, str, Callable[[Tracer], float]]] = {
    "rootdata.pairing.calls": ("count", "lower", _calls("rootdata.pairing")),
    "rootdata.reflect.calls": ("count", "lower", _calls("rootdata.reflect")),
    "rootdata.weight_arith.calls": ("count", "lower",
                                    lambda t: sum(t.calls[s] for s in WEIGHT_ARITH)),
    "rootdata.self_s": ("s", "lower", _layer("rootdata")),
    "torbit.positive_wpi_roots.calls": ("count", "lower", _calls("torbit.positive_wpi_roots")),
    "torbit.positive_wpi_roots.self_s": ("s", "lower", _self("torbit.positive_wpi_roots")),
    "torbit.dist.calls": ("count", "lower", _calls("torbit.dist")),
    "torbit.dist.self_s": ("s", "lower", _self("torbit.dist")),
    "torbit.find_a_chain.calls": ("count", "lower", _calls("torbit.find_a_chain")),
    "torbit.find_a_chain.self_s": ("s", "lower", _self("torbit.find_a_chain")),
    "torbit.find_a_chain.found_ratio": ("ratio", "higher",
                                        _outcome_ratio("torbit.find_a_chain")),
    "torbit.orbit.self_s": ("s", "lower", _self("torbit.orbit")),
    "torbit.roots_builds_per_chain": ("ratio", "lower", lambda t: _ratio(
        t.calls["torbit.positive_wpi_roots"], t.calls["torbit.find_a_chain"])),
    "torbit.self_s": ("s", "lower", _layer("torbit")),
    "paths.apply_f.calls": ("count", "lower", _calls("paths.apply_f")),
    "paths.apply_e.calls": ("count", "lower", _calls("paths.apply_e")),
    "paths.apply_e.defined_ratio": ("ratio", "higher", _outcome_ratio("paths.apply_e")),
    "paths.h_profile.calls": ("count", "lower", _calls("paths.h_profile")),
    "paths.scan.calls": ("count", "lower", lambda t: (
        t.calls["paths.first_time_at"] + t.calls["paths.last_time_at"])),
    "paths.self_s": ("s", "lower", _layer("paths")),
    "gls.gls_f.calls": ("count", "lower", _calls("gls.gls_f")),
    "gls.gls_f.self_s": ("s", "lower", _self("gls.gls_f")),
    "gls.gls_f.defined_ratio": ("ratio", "higher", _outcome_ratio("gls.gls_f")),
    "gls.gls_epsilon.calls": ("count", "lower", _calls("gls.gls_epsilon")),
    "gls.gls_epsilon.self_s": ("s", "lower", _self("gls.gls_epsilon")),
    "gls.path_weight.calls": ("count", "lower", _calls("gls.path_weight")),
    "gls.path_weight.self_s": ("s", "lower", _self("gls.path_weight")),
    "gls.gls_e.calls": ("count", "lower", _calls("gls.gls_e")),
    "gls.gls_e.self_s": ("s", "lower", _self("gls.gls_e")),
    "gls.gls_e.defined_ratio": ("ratio", "higher", _outcome_ratio("gls.gls_e")),
    "gls.verify_gls.calls": ("count", "lower", _calls("gls.verify_gls")),
    "gls.verify_gls.self_s": ("s", "lower", _self("gls.verify_gls")),
    "gls.verify_gls.ok_ratio": ("ratio", "higher", _outcome_ratio("gls.verify_gls")),
    "gls.bfs.expand_s": ("s", "lower", lambda t: t.total["gls.bfs.expand"]),
    "gls.bfs.finalize_s": ("s", "lower", lambda t: t.total["gls.bfs.finalize"]),
    "gls.bfs.self_s": ("s", "lower", _self("gls.bfs")),
    "gls.bfs.nodes": ("count", "higher", lambda t: t.bfs["nodes"]),
    "gls.bfs.edges": ("count", "higher", lambda t: t.bfs["edges"]),
    "gls.bfs.layer_nodes.max": ("count", "higher", lambda t: t.bfs["layer_nodes.max"]),
    "gls.self_s": ("s", "lower", _layer("gls")),
    "crystals.element_f.calls": ("count", "lower", _calls("crystals.element_f")),
    "crystals.element_epsilon.calls": ("count", "lower", _calls("crystals.element_epsilon")),
    "crystals.element_wt.calls": ("count", "lower", _calls("crystals.element_wt")),
    "crystals.bj_apply.calls": ("count", "lower", _calls("crystals.bj_apply")),
    "crystals.generate_from.self_s": ("s", "lower", _self("crystals.generate_from")),
    "crystals.validate_axioms.self_s": ("s", "lower", _self("crystals.validate_axioms")),
    "crystals.hw_crystal_isomorphic.self_s": ("s", "lower",
                                              _self("crystals.hw_crystal_isomorphic")),
    "crystals.self_s": ("s", "lower", _layer("crystals")),
    "character.char_of_graph.self_s": ("s", "lower", _self("character.char_of_graph")),
    "character.wkb_series.self_s": ("s", "lower", _self("character.wkb_series")),
    "character.divide.self_s": ("s", "lower", _self("character.divide")),
    "character.terms": ("count", "higher", lambda t: t.hits["character.char_of_graph"]),
    "character.self_s": ("s", "lower", _layer("character")),
    **{f"checks.{check}.self_s": ("s", "lower", _self(f"checks.check_{check}"))
       for check in CHECKS},
    "checks.self_s": ("s", "lower", _layer("checks")),
    "cli.load_context.self_s": ("s", "lower", _self("cli.load_context")),
}


def is_count(name: str) -> bool:
    """Whether a per-layer metric is a count or ratio (repeats exactly)."""
    return PER_LAYER[name][0] != "s"


def snapshot(t: Tracer) -> Dict[str, float]:
    """Every per-layer metric of the pass just traced."""
    return {name: extract(t) for name, (_, _, extract) in PER_LAYER.items()}
