"""Per-layer call tracing from outside the program.

``Tracer.install`` wraps public chainlab functions in spans. Each wrapper is
bound wherever the original is bound: in the defining module and in every
chainlab module that imported the name with ``from ... import``. Counts are
read from return values. A layer's self time is its span minus its child spans.
A name that no longer exists is recorded as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


L1_MODES = ("constrained", "penalized")


def _l1_mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "penalized")
    return f"sparse.l1_map_solve.{mode}"


def _count_solve(res, counters) -> None:
    counters["iterations"] += int(getattr(res, "iterations", 0))
    counters["unconverged"] += 0 if getattr(res, "converged", True) else 1


def _count_epochs(res, counters) -> None:
    meta = getattr(res, "meta", None) or {}
    counters["epochs"] += int(meta.get("epochs_run", 0))


# (module, function, span namer or None, counting function or None)
TARGETS = (
    ("cli", "main", None, None),
    ("experiments", "run_experiment", None, None),
    ("sparse", "l1_map_solve", _l1_mode, _count_solve),
    ("sparse", "operator_norm_sq", None, None),
    ("sparse", "lambda_pipeline_experiment", None, None),
    ("sparse", "recovery_certificate", None, None),
    ("domain_shift", "train_mixed_restorer", None, _count_epochs),
    ("domain_shift", "mixed_vs_targeted_report", None, None),
    ("instances", "random_chain", None, None),
    ("probability", "assemble_joint", None, None),
    ("information", "dpi_audit", None, None),
    ("information", "fisher_information", None, None),
    ("classification", "theorem_ordering_audit", None, None),
    ("classification", "bayes_risk", None, None),
    ("classification", "separability", None, None),
    ("restorers", "estimator_variance_mc", None, None),
)
COUNTER_NAMES = {_count_solve: ("iterations", "unconverged"), _count_epochs: ("epochs",),
                 None: ()}


def layers() -> list:
    """(span name, counter names) of every span a traced run can report."""
    out = []
    for mod_name, attr, namer, counter in TARGETS:
        base = f"{mod_name}.{attr}"
        names = [f"{base}.{m}" for m in L1_MODES] if namer is _l1_mode else [base]
        out += [(name, COUNTER_NAMES[counter]) for name in names]
    return out


class LayerStats:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters = defaultdict(int)


class Tracer:
    """Spans kept in memory: [name, parent span index or -1, start, end]."""

    def __init__(self):
        self.stats: dict = defaultdict(LayerStats)
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []  # [span index, child seconds] of open spans
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, fn, name: str, namer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append([span_name, parent, 0.0, 0.0])
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans[frame[0]][2:] = [t0, t1]
                st = self.stats[span_name]
                st.calls += 1
                st.self_s += dur - frame[1]
            if counter is not None:
                counter(res, self.stats[span_name].counters)
            return res

        return traced

    def install(self) -> None:
        for mod_name, attr, namer, counter in TARGETS:
            name = f"{mod_name}.{attr}"
            try:
                orig = getattr(importlib.import_module(f"chainlab.{mod_name}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(orig, name, namer, counter)
            for mod in list(sys.modules.values()):
                mod_key = getattr(mod, "__name__", "")
                if mod_key != "chainlab" and not mod_key.startswith("chainlab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()
