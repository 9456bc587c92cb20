"""Spans and counters recorded around the package's public functions.

The package has no tracing of its own, so the tracer rebinds functions from
outside. A name brought in with ``from .x import y`` is a separate binding
in every module that imported it, so ``install`` replaces every binding in
every loaded ``physioshap`` module that refers to the original function, and
``uninstall`` puts them all back.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int
    role: str
    end: float = 0.0
    child_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # spans are recorded on one thread, so children never overlap
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.bindings: dict[str, int] = {}

    def _open(self, name: str, role: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if role is None:
            role = self.spans[parent].role if parent >= 0 else ""
        self.spans.append(Span(name, time.perf_counter(), parent, role))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextlib.contextmanager
    def stage(self, name: str, role: str):
        """A benchmark stage: the root span of everything it calls."""
        idx = self._open(name, role)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[idx].info["error"] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if note is not None:
                note(self.spans[idx].info, args, kwargs, out)
            return out

        return wrapper

    def install(self, targets) -> None:
        """Wrap ``(module, attribute, note)`` targets at every binding site."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "physioshap" or n.startswith("physioshap."))
        ]
        for module, attr, note in targets:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(name, original, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))
            self.bindings[name] = sum(1 for p in self._patched if p[2] is original)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


# --- notes: counters taken from arguments and results ---------------------


def _entropy_pairs(info, args, kwargs, out):
    from physioshap.entropy import EntropyConfig

    values = args[0]
    n = np.asarray(getattr(values, "values", values)).size
    cfg = (args[1] if len(args) > 1 else kwargs.get("cfg")) or EntropyConfig()
    # logical template pairs of the O(N^2) definition, fixed even if a kernel prunes
    info["pairs"] = float(n - cfg.m) ** 2


def _train_rounds(info, args, kwargs, model):
    info["rounds"] = len(model.trees)
    info["best_iteration"] = model.best_iteration


def _model_size(model) -> tuple[int, float]:
    used = model.flat_trees()[: model.best_iteration]
    leaves = [int((flat.children_left < 0).sum()) for flat in used]
    return len(used), (float(np.mean(leaves)) if leaves else 0.0)


def _shap_batch(info, args, kwargs, out):
    info["samples"] = len(out)
    info["trees"], info["leaves"] = _model_size(args[0])


def _shap_interactions(info, args, kwargs, out):
    info["samples"] = 1
    info["trees"], info["leaves"] = _model_size(args[0])


def _bytes_at(info, args, kwargs, out):
    path = args[-1] if len(args) >= 2 else kwargs.get("path")
    info["bytes"] = Path(path).stat().st_size


def _bytes_listed(info, args, kwargs, paths):
    info["bytes"] = sum(Path(p).stat().st_size for p in paths)


def _fold_failed(info, args, kwargs, out):
    result = out[0] if isinstance(out, tuple) else out
    info["failed"] = bool(result.failed)


def targets():
    """Every public function the per-layer metrics are taken from."""
    from physioshap import dataio, entropy, evaluate, explain, gbdt, pipeline, reporting, signals, ssa

    return [
        (signals, "preprocess_trial", None),
        (ssa, "decompose", None),
        (entropy, "sample_entropy", _entropy_pairs),
        (entropy, "fuzzy_entropy", _entropy_pairs),
        (entropy, "extract_feature_vector", None),
        (pipeline, "trial_features", None),
        (pipeline, "extract_dataset", None),
        (pipeline, "run_loso_explained", None),
        (pipeline, "selection_sweep", None),
        (evaluate, "run_fold", _fold_failed),
        (gbdt, "random_search", None),
        (gbdt, "train", _train_rounds),
        (gbdt, "grow_tree", None),
        (gbdt, "predict_margin", None),
        (explain, "shap_values_batch", _shap_batch),
        (explain, "shap_interactions", _shap_interactions),
        (dataio, "read_features_csv", None),
        (reporting, "save_json", _bytes_at),
        (reporting, "write_explanations_csv", _bytes_at),
        (reporting, "emit_report", _bytes_listed),
    ]


# --- per-layer metrics -----------------------------------------------------


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond
    it, by nearest rank; below 20 samples that would not be a tail, so the
    maximum is given as percentile 100."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    if n < 20:
        return 100.0, float(xs[-1])
    return 100.0 * (n - 10) / n, float(xs[n - 11])


class Layers:
    """Per-layer metrics from one traced pass.

    Each metric is taken from the spans under the workload's main stages
    when those reach the layer, and from its probe stages otherwise.
    """

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.tails: dict[str, float] = {}

    def select(self, name, where=None) -> list[Span]:
        names = (name,) if isinstance(name, str) else name
        found = [s for s in self.spans if s.name in names and (where is None or where(s))]
        main = [s for s in found if s.role == "main"]
        return main or found

    def parent_name(self, span: Span) -> str:
        return self.spans[span.parent].name if span.parent >= 0 else ""

    def per_call(self, out: dict, metric: str, spans, calls: bool = True):
        """Median and tail milliseconds per call, and the call count."""
        if not spans:
            return
        d = [s.duration * 1e3 for s in spans]
        out[f"{metric}.ms"] = float(np.median(d))
        self.tails[metric], out[f"{metric}.tail_ms"] = tail(d)
        if calls:
            out[f"{metric}.calls"] = len(spans)

    def compute(self) -> dict[str, float]:
        out: dict[str, float] = {}
        ms = 1e3
        for name in ("signals.preprocess_trial", "ssa.decompose"):
            self.per_call(out, name, self.select(name))
        for name in ("entropy.sample_entropy", "entropy.fuzzy_entropy"):
            spans = self.select(name)
            self.per_call(out, name, spans)
            if spans:
                out[f"{name}.pairs_per_s"] = sum(s.info["pairs"] for s in spans) / sum(
                    s.duration for s in spans
                )
        extract_stages = self.select("stage:extract")
        inside = {id(s) for s in extract_stages}
        ent = self.select("entropy.extract_feature_vector", lambda s: id(self._root(s)) in inside)
        if extract_stages:
            out["entropy.share"] = sum(s.duration for s in ent) / sum(
                s.duration for s in extract_stages
            )
        spans = self.select("pipeline.trial_features")
        if spans:
            out["pipeline.trial_features.ms"] = float(np.median([s.duration * ms for s in spans]))
            out["pipeline.trial_features.self_ms"] = float(
                np.median([s.self_time * ms for s in spans])
            )
        for name in ("pipeline.run_loso_explained", "pipeline.selection_sweep"):
            spans = self.select(name)
            if spans:
                out[f"{name}.s"] = float(np.median([s.duration for s in spans]))
                out[f"{name}.self_s"] = float(np.median([s.self_time for s in spans]))
        spans = self.select("evaluate.run_fold")
        self.per_call(out, "evaluate.run_fold", spans)
        if spans:
            out["evaluate.run_fold.self_ms"] = float(np.median([s.self_time * ms for s in spans]))
        spans = self.select("gbdt.random_search")
        if spans:
            out["gbdt.random_search.s"] = float(np.median([s.duration for s in spans]))
        in_search = lambda s: self.parent_name(s) == "gbdt.random_search"  # noqa: E731
        candidates = self.select("gbdt.train", in_search)
        self.per_call(out, "gbdt.search_candidate", candidates, calls=False)
        if candidates:
            failed = sum(1 for s in candidates if s.info.get("error") == "DegenerateLabelsError")
            out["gbdt.search.candidates"] = len(candidates)
            out["gbdt.search.yield"] = (len(candidates) - failed) / len(candidates)
        fits = self.select("gbdt.train", lambda s: not in_search(s))
        self.per_call(out, "gbdt.train", fits)
        every_train = [s for s in candidates + fits if "rounds" in s.info]
        if every_train:
            rounds = sum(s.info["rounds"] for s in every_train)
            best = sum(s.info["best_iteration"] for s in every_train)
            out["gbdt.train.rounds"] = rounds
            out["gbdt.train.best_iteration"] = best
            out["gbdt.train.useful_round_ratio"] = best / rounds
        for name in ("gbdt.grow_tree", "gbdt.predict_margin"):
            self.per_call(out, name, self.select(name))
        for name in ("explain.shap_values_batch", "explain.shap_interactions"):
            spans = self.select(name)
            if spans:
                out[f"{name}.ms_per_sample"] = (
                    ms * sum(s.duration for s in spans) / sum(s.info["samples"] for s in spans)
                )
        explained = self.select(("explain.shap_values_batch", "explain.shap_interactions"))
        if explained:
            out["explain.trees_used"] = float(np.mean([s.info["trees"] for s in explained]))
            out["explain.leaves_mean"] = float(np.mean([s.info["leaves"] for s in explained]))
        for name in ("dataio.read_features_csv", "reporting.emit_report"):
            spans = self.select(name)
            if spans:
                out[f"{name}.ms"] = float(np.median([s.duration * ms for s in spans]))
        writes = self.select(
            ("reporting.save_json", "reporting.write_explanations_csv", "reporting.emit_report")
        )
        if writes:
            out["reporting.bytes_written"] = sum(s.info["bytes"] for s in writes)
        return out

    def _root(self, span: Span) -> Span:
        while span.parent >= 0:
            span = self.spans[span.parent]
        return span

    def failed_folds(self, stage: str) -> int:
        """run_fold calls that returned a failed FoldResult under a stage."""
        return sum(
            1 for s in self.spans
            if s.name == "evaluate.run_fold" and s.info.get("failed")
            and self._root(s).name == stage
        )
