"""Span tracer that wraps labelalign's public functions from outside ``src/``.

``Tracer.install`` resolves each hook's dotted target and replaces that
function object under every name that refers to it: its own module, each
``labelalign`` module that imported it by name, or the class that owns a
method. ``uninstall`` puts the originals back. A target that no longer
exists is skipped and the metrics only it feeds are reported as absent,
so the benchmark survives refactors of the package.

A span records (name, start, end, parent). Its self time is its duration
minus the durations of its direct children; the ``<span>.s`` metric of a
name is the sum of the self times of its spans, so the self times of all
spans plus the harness time outside any span add up to the traced wall
time. Counters are plain sums kept at the same boundaries.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _calls(args, kwargs) -> int:
    return 1


def _matrices(args, kwargs) -> int:
    a = args[0] if args else kwargs["a"]
    return math.prod(getattr(a, "shape", (1, 1))[:-2])


def _file_bytes(args, kwargs) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _pairs(args, kwargs) -> int:
    n = len(args[0] if args else kwargs["covs"])
    return n * (n - 1) // 2


def _vectors(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["covs"])


def _first_arg(prefix: str, keyword: str) -> Callable:
    def name(args, kwargs) -> str:
        return f"{prefix}.{args[0] if args else kwargs[keyword]}"

    return name


@dataclass(frozen=True)
class Hook:
    """One wrapped function.

    ``target`` is ``module:attribute`` with an optional class part
    (``labelalign.rng:CounterRng.permutation``). ``span`` is a fixed span
    name, a function of the call's (args, kwargs), or None for a
    counter-only hook. ``counters`` maps counter names to functions of
    (args, kwargs). ``metrics`` lists the per-layer metrics the hook feeds.
    """

    target: str
    span: str | Callable | None
    counters: tuple = ()
    metrics: tuple = ()


HOOKS = (
    Hook("labelalign.features:trial_covariance", "features.trial_covariance",
         (("features.trial_covariance.calls", _calls),),
         ("features.trial_covariance.s", "features.trial_covariance.calls")),
    Hook("labelalign.features:ts_features", "features.ts_features",
         (("features.ts_features.vectors", _vectors),),
         ("features.ts_features.s", "features.ts_features.vectors")),
    Hook("labelalign.spd:tangent_map", None, (("spd.tangent_map.calls", _calls),),
         ("spd.tangent_map.calls",)),
    Hook("labelalign.features:csp_fit", "features.csp", (), ("features.csp.s",)),
    Hook("labelalign.features:csp_features", "features.csp", (), ("features.csp.s",)),
    Hook("numpy.linalg:eigh", None,
         (("spd.eig.calls", _calls), ("spd.eig.matrices", _matrices)),
         ("spd.eig.calls", "spd.eig.matrices")),
    Hook("numpy.linalg:eigvalsh", None,
         (("spd.eig.calls", _calls), ("spd.eig.matrices", _matrices)),
         ("spd.eig.calls", "spd.eig.matrices")),
    Hook("labelalign.spd:log_euclidean_mean", "spd.log_euclidean_mean",
         (("spd.log_euclidean_mean.calls", _calls),),
         ("spd.log_euclidean_mean.s", "spd.log_euclidean_mean.calls")),
    Hook("labelalign.spd:riemannian_distance", "spd.riemannian_distance",
         (("spd.riemannian_distance.calls", _calls),),
         ("spd.riemannian_distance.s", "spd.riemannian_distance.calls")),
    Hook("labelalign.selection:pairwise_distances", "selection.pairwise_distances",
         (("selection.pairwise_distances.pairs", _pairs),),
         ("selection.pairwise_distances.s", "selection.pairwise_distances.pairs")),
    Hook("labelalign.selection:k_medoids", "selection.k_medoids", (),
         ("selection.k_medoids.s",)),
    Hook("labelalign.alignment:align", _first_arg("alignment.align", "strategy"), (),
         ("alignment.align.raw.s", "alignment.align.ea.s", "alignment.align.la.s")),
    Hook("labelalign.alignment:la_fit", None, (("alignment.la_fit.calls", _calls),),
         ("alignment.la_fit.calls",)),
    Hook("labelalign.classifiers:svm_fit", "classifiers.svm_fit", (),
         ("classifiers.svm_fit.s",)),
    Hook("labelalign.classifiers:svm_predict_many", "classifiers.svm_predict", (),
         ("classifiers.svm_predict.s",)),
    Hook("labelalign.classifiers:svm_predict", "classifiers.svm_predict", (),
         ("classifiers.svm_predict.s",)),
    Hook("labelalign.classifiers:lda_fit", "classifiers.lda_fit", (),
         ("classifiers.lda_fit.s",)),
    Hook("labelalign.classifiers:lda_predict_many", "classifiers.lda_predict", (),
         ("classifiers.lda_predict.s",)),
    Hook("labelalign.classifiers:lda_predict", "classifiers.lda_predict", (),
         ("classifiers.lda_predict.s",)),
    Hook("labelalign.classifiers:mdm_fit", "classifiers.mdm_fit", (),
         ("classifiers.mdm_fit.s",)),
    Hook("labelalign.classifiers:mdm_predict", "classifiers.mdm_predict", (),
         ("classifiers.mdm_predict.s",)),
    Hook("labelalign.rng:CounterRng.permutation", "rng.permutation",
         (("rng.permutation.calls", _calls),),
         ("rng.permutation.s", "rng.permutation.calls")),
    Hook("labelalign.dataio:load_manifest", "dataio.load", (), ("dataio.load.s",)),
    Hook("labelalign.dataio:DatasetManifest.load_all", "dataio.load", (),
         ("dataio.load.s",)),
    Hook("labelalign.dataio:read_trials", None, (("dataio.load.bytes", _file_bytes),),
         ("dataio.load.bytes",)),
    Hook("labelalign.dataio:read_labels", None, (("dataio.load.bytes", _file_bytes),),
         ("dataio.load.bytes",)),
    Hook("labelalign.experiment:fit_predict",
         _first_arg("experiment.fit_predict", "pipeline"), (),
         tuple(f"experiment.fit_predict.{p}.s"
               for p in ("csp-lda", "ts-svm", "ts-lda", "mdm"))),
)


def _resolve(target: str):
    """Return (owner, attribute, function) or None when the target is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    return None if fn is None else (owner, parts[-1], fn)


class Tracer:
    def __init__(self):
        self.hooks = HOOKS
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (namespace owner, attribute, original)

    def _wrap(self, fn, hook: Hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        span, counters = hook.span, hook.counters

        def wrapper(*args, **kwargs):
            for key, count in counters:
                counts[key] += count(args, kwargs)
            if span is None:
                return fn(*args, **kwargs)
            name = span if isinstance(span, str) else span(args, kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self.missing = []
        for hook in self.hooks:
            found = _resolve(hook.target)
            if found is None:
                self.missing.append(hook.target)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(fn, hook)
            namespaces = [owner] + [
                m for name, m in list(sys.modules.items())
                if (name == "labelalign" or name.startswith("labelalign."))
                and m is not owner
            ]
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        self._patched.append((ns, name, fn))
                        setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._patched):
            setattr(ns, name, fn)
        self._patched = []

    def absent(self) -> set[str]:
        """Metrics whose every feeding hook is missing."""
        fed, missing = set(), set()
        for hook in self.hooks:
            (missing if hook.target in self.missing else fed).update(hook.metrics)
        return missing - fed

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Self time per span name, counters, and the harness time left over."""
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for name, start, end, parent in self.spans:
            if parent < 0:
                top_level += end - start
            else:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for hook in self.hooks:
            if hook.target not in self.missing:
                for metric in hook.metrics:
                    out[metric] += 0.0
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[f"{name}.s"] += end - start - children
        for key, value in self.counts.items():
            out[key] += value
        out["experiment.harness_self_s"] = wall_s - top_level
        return dict(out)
