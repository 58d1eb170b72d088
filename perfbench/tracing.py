"""Per-layer tracing for a traced benchmark run.

Replaces the named public functions of each ``crystal_lr`` module with
timing wrappers, in every ``crystal_lr`` module that binds the name (for
example ``lr_engine`` and ``cli`` import ``lr_coefficient`` by name).  A
wrapper stack turns durations into self time; generators are timed while
they are consumed and their yields counted.  Everything is aggregated in
memory and read once, by ``Tracer.finish``, which also restores the
originals.  An untraced run never imports this module.
"""

import sys
import time
from collections import Counter, defaultdict

# layer -> public functions to wrap; the layer is the module name
WRAPPED = {
    "shapes": ["lr_coefficient", "gen_lr_coefficient", "kostka_foulkes",
               "num_sst"],
    "crystal": ["eps", "phi", "raise_word", "lower_word", "enumerate_sst",
                "tableau_word", "weight", "decompose_components"],
    "lr_engine": ["verify_truncated", "pieri_column", "hw_past_level0",
                  "extremal_lr", "expr_decompose", "level0_product"],
    "ring": ["s_operator", "p_action", "d_multiply", "z_schur",
             "z_skew_schur", "expand_in_z_schur"],
    "hall_littlewood": ["bt_apply", "bt_bar_apply", "bt_word_action",
                        "bt_commutator_check"],
    "characters": ["lp_mul", "laurent_schur", "branch_split",
                   "schur_to_hl"],
    "matrices": ["matrix_lower", "matrix_raise", "cap_lower", "cap_raise",
                 "rho_transpose", "rho_inverse", "enumerate_matrices",
                 "bicrystal_components"],
    "cli": ["main"],
}
GENERATORS = {"crystal.enumerate_sst", "matrices.enumerate_matrices"}
_VERIFY = "lr_engine.verify_truncated"
_CLOSED_FORMS = ["lr_engine.pieri_column", "lr_engine.hw_past_level0",
                 "lr_engine.extremal_lr", "lr_engine.expr_decompose"]
MARK = "_perfbench_traced"


class Tracer:
    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.yields = Counter()
        self.active = Counter()
        self.census_words = 0
        self.reports = []
        self.bt_terms = 0
        self._patched = []
        self._lr_cache = None
        self._cache_start = None

    # ------------------------------------------------------------ timing

    def _enter(self, name):
        frame = [0.0]
        self.stack.append(frame)
        self.active[name] += 1
        return frame, time.perf_counter()

    def _leave(self, name, frame, t0):
        dt = time.perf_counter() - t0
        self.stack.pop()
        self.active[name] -= 1
        self.self_s[name] += dt - frame[0]
        if self.stack:
            self.stack[-1][0] += dt

    def _wrap_call(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame, t0 = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame, t0)
                tracer.calls[name] += 1
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return tracer._consume(name, fn(*args, **kwargs))

        return wrapper

    def _consume(self, name, it):
        while True:
            frame, t0 = self._enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._leave(name, frame, t0)
            self.yields[name] += 1
            if name == "crystal.enumerate_sst" and self.active[_VERIFY]:
                self.census_words += 1
            yield item

    def _observe(self, name, args, result):
        if name == _VERIFY:
            self.reports.append((tuple(args[1]), result))
        elif name == "hall_littlewood.bt_apply":
            self.bt_terms += len(result)

    # ------------------------------------------------------------ patching

    def install(self):
        modules = {layer: sys.modules["crystal_lr." + layer]
                   for layer in WRAPPED}
        self._lr_cache = modules["shapes"].lr_coefficient
        self._cache_start = self._lr_cache.cache_info()
        for layer, names in WRAPPED.items():
            for fname in names:
                name = "%s.%s" % (layer, fname)
                original = getattr(modules[layer], fname)
                if name in GENERATORS:
                    wrapper = self._wrap_generator(name, original)
                elif name == "ring.s_operator":
                    wrapper = self._wrap_s_operator(original)
                else:
                    wrapper = self._wrap_call(name, original)
                setattr(wrapper, MARK, True)
                wrapper.__name__ = original.__name__
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def _wrap_s_operator(self, original):
        build = self._wrap_call("ring.s_operator", original)
        tracer = self

        def s_operator(*args, **kwargs):
            return tracer._wrap_call("ring.s_operator.act", build(*args,
                                                                  **kwargs))

        return s_operator

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # ------------------------------------------------------------ metrics

    def finish(self):
        """Restore the originals and return the per-layer metrics."""
        self.uninstall()
        info = self._lr_cache.cache_info()
        hits = info.hits - self._cache_start.hits
        misses = info.misses - self._cache_start.misses

        def s(*names):
            return sum(self.self_s[n] for n in names)

        def c(*names):
            return sum(self.calls[n] for n in names)

        out = {}
        for layer in WRAPPED:
            prefix = layer + "."
            out[layer + ".self_s"] = sum(
                (v for k, v in self.self_s.items() if k.startswith(prefix)),
                0.0)
        sources = sum(rep.get("lhs_components", 0)
                      for _, rep in self.reports)
        attempts = retried = 0
        for (lo0, hi0), rep in self.reports:
            lo, hi = rep["window"]
            attempts += 1 + ((hi - lo) - (hi0 - lo0)) // 2
            retried += bool(rep["retried"])
        nrep = len(self.reports)
        words = self.census_words
        out.update({
            "shapes.lr_coefficient.calls": c("shapes.lr_coefficient"),
            "shapes.lr_coefficient.hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
            "shapes.lr_coefficient.cache_entries": info.currsize,
            "shapes.kostka_foulkes.self_s": s("shapes.kostka_foulkes"),
            "crystal.enumerate_sst.tableaux":
                self.yields["crystal.enumerate_sst"],
            "crystal.enumerate_sst.self_s": s("crystal.enumerate_sst"),
            "crystal.signature.calls": c("crystal.eps", "crystal.phi"),
            "crystal.signature.self_s": s("crystal.eps", "crystal.phi"),
            "crystal.operator.calls": c("crystal.raise_word",
                                        "crystal.lower_word"),
            "crystal.operator.self_s": s("crystal.raise_word",
                                         "crystal.lower_word"),
            "lr_engine.census.words": words,
            "lr_engine.census.sources": sources,
            "lr_engine.census.source_yield": sources / words if words else 0.0,
            "lr_engine.census.window_attempts": attempts,
            "lr_engine.census.retried_frac": retried / nrep if nrep else 0.0,
            "lr_engine.closed_form.self_s": s(*_CLOSED_FORMS),
            "ring.s_operator.built": c("ring.s_operator"),
            "ring.s_operator.applied": c("ring.s_operator.act"),
            "ring.p_action.calls": c("ring.p_action"),
            "ring.p_action.self_s": s("ring.p_action"),
            "ring.d_multiply.self_s": s("ring.d_multiply"),
            "hall_littlewood.bt_apply.calls": c("hall_littlewood.bt_apply"),
            "hall_littlewood.bt_apply.terms_out": self.bt_terms,
            "characters.lp_mul.calls": c("characters.lp_mul"),
            "matrices.column_op.calls": c("matrices.matrix_lower",
                                          "matrices.matrix_raise"),
            "matrices.row_op.calls": c("matrices.cap_lower",
                                       "matrices.cap_raise"),
            "matrices.rho.calls": c("matrices.rho_transpose",
                                    "matrices.rho_inverse"),
        })
        return out
