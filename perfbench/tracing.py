"""In-memory spans around the library's public functions, and the
per-layer figures derived from them.

The tracer replaces each public function of the traced modules with a
wrapper in every ``mimowave`` module that binds it, so a call is recorded
however it is reached (``mimowave.mm.hpd_factor`` and
``mimowave.detection.hpd_factor`` are the same function bound twice).
Nothing inside the library changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

TRACED_MODULES = ("mm", "detection", "linalg", "model", "experiments", "cli")


def _arg(args, kwargs, position, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[position] if len(args) > position else default


# Per-span attributes read from a call's arguments or result; only the
# figures below need them.
_ATTRS = {
    "linalg.hpd_factor": lambda a, k, r: {"n": int(len(a[0]))},
    "mm.trs_solve": lambda a, k, r: {"interior": bool(r[1] == 0.0)},
    "mm.optimize": lambda a, k, r: {"iterations": r.iterations_used},
    "detection.calibrate_threshold":
        lambda a, k, r: {"trials": int(_arg(a, k, 2, "trials"))},
    "detection.detection_probability":
        lambda a, k, r: {"trials": int(_arg(a, k, 2, "trials"))},
    "model.sample_noise":
        lambda a, k, r: {"draws": int(_arg(a, k, 3, "size") or 1)},
}


class Tracer:
    """Records one span per traced call: name, start, end, parent, operation.

    Spans are kept as lists ``[name, start_ns, end_ns, parent, op, attrs]``
    whose index is the span id. ``op`` is whatever the benchmark loop last
    assigned to :attr:`op`.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, attrs = self.spans, self._stack, _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"mimowave.{short}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mimowave" and not mod_name.startswith("mimowave."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")


def _summaries(spans):
    """Per span name: calls, inclusive ns, self ns and the attribute dicts."""
    child_ns = defaultdict(int)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "attrs": []})
    for sid, (name, start, end, _, _, attrs) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["ns"] += end - start
        entry["self_ns"] += end - start - child_ns[sid]
        if attrs is not None:
            entry["attrs"].append(attrs)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer figures from one traced run's spans.

    ``*_ms`` is the mean inclusive time per call; ``*_per_iter`` divides a
    call count by the MM iterations in the run; ``*_per_1e5`` scales to 10^5
    Monte Carlo trials (or noise draws). A layer that does no work in a
    workload reads 0.
    """
    s = _summaries(spans)
    iters = sum(a["iterations"] for a in s["mm.optimize"]["attrs"])
    designs = s["mm.optimize"]["calls"]

    def ms(name):
        return _ratio(s[name]["ns"], s[name]["calls"]) / 1e6

    def per_iter(name):
        return _ratio(s[name]["calls"], iters)

    def per_1e5(total_ns, count):
        return _ratio(total_ns, count) * 1e5 / 1e6

    mc = ("detection.calibrate_threshold", "detection.detection_probability")
    trials = {name: sum(a["trials"] for a in s[name]["attrs"]) for name in mc}
    draws = sum(a["draws"] for a in s["model.sample_noise"]["attrs"])
    trs = s["mm.trs_solve"]["attrs"]
    chol_flop = sum(4.0 * a["n"] ** 3 / 3.0 for a in s["linalg.hpd_factor"]["attrs"])
    return {
        "mm.iterations_per_design": _ratio(iters, designs),
        "mm.surrogate_ms_per_iter":
            _ratio(s["mm.surrogate_coefficients"]["ns"], iters) / 1e6,
        "mm.logdet_minorizer_ms": ms("mm.logdet_minorizer"),
        "mm.mean_shift_minorizer_ms": ms("mm.mean_shift_minorizer"),
        "mm.trace_inverse_minorizer_ms": ms("mm.trace_inverse_minorizer"),
        "mm.assemble_quadratic_ms": ms("mm.assemble_quadratic"),
        "mm.trs_solve_ms": ms("mm.trs_solve"),
        "mm.trs_interior_share":
            _ratio(sum(1 for a in trs if a["interior"]), len(trs)),
        "detection.relative_entropy_ms": ms("detection.relative_entropy"),
        "detection.relative_entropy_calls_per_iter":
            per_iter("detection.relative_entropy"),
        "detection.calibrate_ms_per_1e5":
            per_1e5(s[mc[0]]["ns"], trials[mc[0]]),
        "detection.pd_ms_per_1e5": per_1e5(s[mc[1]]["ns"], trials[mc[1]]),
        "detection.statistic_ms_per_1e5":
            per_1e5(sum(s[n]["self_ns"] for n in mc), sum(trials.values())),
        "detection.build_detector_ms": ms("detection.build_detector"),
        "linalg.hpd_factor_calls_per_iter": per_iter("linalg.hpd_factor"),
        "linalg.hpd_factor_ms": ms("linalg.hpd_factor"),
        "linalg.hpd_factor_gflop_computed": _ratio(chol_flop, designs) / 1e9,
        "linalg.psd_sqrt_calls_per_iter": per_iter("linalg.psd_sqrt"),
        "linalg.herm_eig_ms": ms("linalg.herm_eig"),
        "model.lift_waveform_calls_per_iter": per_iter("model.lift_waveform"),
        "model.lift_waveform_ms": ms("model.lift_waveform"),
        "model.sample_noise_ms_per_1e5":
            per_1e5(s["model.sample_noise"]["ns"], draws),
        "model.build_prior_ms": ms("model.build_prior"),
        "experiments.run_experiment_self_ms":
            _ratio(s["experiments.run_experiment"]["self_ns"],
                   s["experiments.run_experiment"]["calls"]) / 1e6,
        "cli.main_self_ms":
            _ratio(s["cli.main"]["self_ns"], s["cli.main"]["calls"]) / 1e6,
    }
