"""Per-layer trace, installed from outside the program.

Each entry of ``SPANS`` names a public function as the consuming module
sees it (``experiments.solve_svr_dual`` is the SVR solver as the CV loop
calls it; ``kernelmod``'s own call from ``fit_svr`` is not rebound).
Installing the trace rebinds those names to timing wrappers, and swaps
the generator class ``kernelmod`` uses for a subclass that counts
draws.  Only the traced worker process calls ``install``; the untraced
worker calls ``assert_pristine`` instead.

Every ``*_s`` metric is self time: the span minus the spans of wrapped
functions it called.  ``experiments.self_s`` is the operation's wall
time minus all top-level spans, so the ``*_s`` metrics of one operation
add up to its wall time.

This module imports only the standard library; the program's modules
are imported by ``install`` and ``assert_pristine``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MARK = "__perfbench_trace__"

# (consuming module, attribute, layer that owns the time)
SPANS = (
    ("experiments", "solve_svr_dual", "kernelmod.svr_cv"),
    ("experiments", "fit_svr", "kernelmod.svr_final"),
    ("experiments", "fit_svc_smo", "kernelmod.svc_grid"),
    ("experiments", "kernel_matrix", "kernelmod.gram"),
    ("experiments", "fit_random_forest", "treemod.forest_fit"),
    ("experiments", "forest_predict", "treemod.forest_predict"),
    ("experiments", "fit_cart", "treemod.cart_fit"),
    ("experiments", "fit_lasso", "linmod.cd"),
    ("experiments", "fit_elastic_net", "linmod.cd"),
    ("experiments", "fit_ridge", "linmod.closed_form"),
    ("experiments", "fit_ols", "linmod.closed_form"),
    ("experiments", "fit_logistic", "linmod.logistic"),
    ("linmod", "solve_spd", "numcore.solve"),
    ("linmod", "least_squares", "numcore.solve"),
    ("experiments", "fit_standardizer", "preprocess.standardize"),
    ("experiments", "apply_standardizer", "preprocess.standardize"),
    ("experiments", "kfold", "preprocess.kfold"),
    ("experiments", "regression_metrics", "metrics"),
    ("experiments", "confusion_matrix", "metrics"),
    ("experiments", "classification_report", "metrics"),
    ("experiments", "roc_curve", "metrics"),
    ("experiments", "histogram", "metrics"),
    ("experiments", "load_dataset", "ingest.load"),
    ("experiments", "report_to_json", "experiments.serialize"),
)

# calls counted without a span of their own
COUNTED = (("linmod", "logistic_gradient"),)

# the generator class whose draws ``kernelmod.fallback_draws`` counts
GENERATOR = ("kernelmod", "Xoshiro256StarStar")

# per-layer metrics of one operation: name -> unit
METRICS = {
    "kernelmod.svr_cv_s": "s",
    "kernelmod.svr_cv_calls": "count",
    "kernelmod.svr_final_s": "s",
    "kernelmod.svr_support_vectors": "count",
    "kernelmod.svc_grid_s": "s",
    "kernelmod.svc_fits": "count",
    "kernelmod.svc_support_vectors": "count",
    "kernelmod.gram_s": "s",
    "kernelmod.gram_calls": "count",
    "kernelmod.fallback_draws": "count",
    "treemod.forest_fit_s": "s",
    "treemod.forest_nodes": "count",
    "treemod.forest_max_depth": "count",
    "treemod.forest_predict_s": "s",
    "treemod.cart_fit_s": "s",
    "linmod.cd_s": "s",
    "linmod.cd_fits": "count",
    "linmod.closed_form_s": "s",
    "linmod.closed_form_fits": "count",
    "linmod.logistic_s": "s",
    "linmod.newton_grad_evals": "count",
    "numcore.solve_s": "s",
    "numcore.solve_calls": "count",
    "preprocess.standardize_s": "s",
    "preprocess.standardize_calls": "count",
    "preprocess.kfold_s": "s",
    "preprocess.kfold_calls": "count",
    "metrics.s": "s",
    "metrics.roc_calls": "count",
    "metrics.roc_failed": "count",
    "ingest.load_s": "s",
    "experiments.self_s": "s",
    "experiments.serialize_s": "s",
}

_LAYERS = sorted({layer for _, _, layer in SPANS})


def _module(name):
    return importlib.import_module(f"mpgworkbench.{name}")


def _tree_shape(node, depth=0):
    """(node count, max depth) of a fitted tree."""
    if node.is_leaf:
        return 1, depth
    n_left, d_left = _tree_shape(node.left, depth + 1)
    n_right, d_right = _tree_shape(node.right, depth + 1)
    return 1 + n_left + n_right, max(d_left, d_right)


class Trace:
    """Spans and counts of the operation in progress."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.top_s = 0.0  # time covered by spans with no traced parent
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.draws = 0
        self.results = defaultdict(list)  # attribute -> returned models
        self._stack = []  # child time accumulated per open span

    def wrap(self, attr, layer, fn):
        def traced(*args, **kwargs):
            self.calls[attr] += 1
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[attr] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                self.self_s[layer] += dt - self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                else:
                    self.top_s += dt
            if attr in ("fit_svr", "fit_svc_smo", "fit_random_forest"):
                self.results[attr].append(result)
            return result

        setattr(traced, MARK, True)
        return traced

    def count(self, attr, fn):
        def counted(*args, **kwargs):
            self.calls[attr] += 1
            return fn(*args, **kwargs)

        setattr(counted, MARK, True)
        return counted

    def metrics(self, op_seconds):
        """Per-layer metrics of the operation that took ``op_seconds``."""
        s, c = self.self_s, self.calls
        nodes, depth = 0, 0
        for forest in self.results["fit_random_forest"]:
            for tree in forest.trees:
                n, d = _tree_shape(tree)
                nodes += n
                depth = max(depth, d)
        out = {f"{layer}_s": s[layer] for layer in _LAYERS
               if layer not in ("metrics",)}
        out.update({
            "metrics.s": s["metrics"],
            "kernelmod.svr_cv_calls": c["solve_svr_dual"],
            "kernelmod.svr_support_vectors": sum(
                m.support_vectors.shape[0] for m in self.results["fit_svr"]),
            "kernelmod.svc_fits": c["fit_svc_smo"],
            "kernelmod.svc_support_vectors": sum(
                m.support_vectors.shape[0] for m in self.results["fit_svc_smo"]),
            "kernelmod.gram_calls": c["kernel_matrix"],
            "kernelmod.fallback_draws": self.draws,
            "treemod.forest_nodes": nodes,
            "treemod.forest_max_depth": depth,
            "linmod.cd_fits": c["fit_lasso"] + c["fit_elastic_net"],
            "linmod.closed_form_fits": c["fit_ridge"] + c["fit_ols"],
            "linmod.newton_grad_evals": c["logistic_gradient"],
            "numcore.solve_calls": c["solve_spd"] + c["least_squares"],
            "preprocess.standardize_calls": c["fit_standardizer"],
            "preprocess.kfold_calls": c["kfold"],
            "metrics.roc_calls": c["roc_curve"],
            "metrics.roc_failed": self.raised["roc_curve"],
            "experiments.self_s": op_seconds - self.top_s,
        })
        if set(out) != set(METRICS):
            raise RuntimeError(f"trace metrics mismatch: {sorted(set(out) ^ set(METRICS))}")
        return out


def install():
    """Rebind every traced name; returns the Trace they report into."""
    assert_pristine()
    trace = Trace()
    for mod_name, attr, layer in SPANS:
        mod = _module(mod_name)
        setattr(mod, attr, trace.wrap(attr, layer, getattr(mod, attr)))
    for mod_name, attr in COUNTED:
        mod = _module(mod_name)
        setattr(mod, attr, trace.count(attr, getattr(mod, attr)))

    mod_name, attr = GENERATOR
    mod = _module(mod_name)
    base = getattr(mod, attr)

    class CountingGenerator(base):
        def randbelow(self, n):
            trace.draws += 1
            return super().randbelow(n)

    setattr(CountingGenerator, MARK, True)
    setattr(mod, attr, CountingGenerator)
    return trace


def assert_pristine():
    """Fail unless every traced name is the program's own object."""
    names = [(m, a) for m, a, _ in SPANS] + list(COUNTED) + [GENERATOR]
    for mod_name, attr in names:
        obj = getattr(_module(mod_name), attr)
        if getattr(obj, MARK, False):
            raise RuntimeError(f"trace wrapper present on {mod_name}.{attr}")
