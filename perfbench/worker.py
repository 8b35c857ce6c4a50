"""Runs one benchmark workload in this process and prints its raw figures.

run.py starts this script with the workload's BLAS thread variables already
in the environment, because OpenBLAS reads them once, when numpy loads.
The last line of standard output is one JSON object.

    python3 perfbench/worker.py --workload design_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --setup-only --workload design_small --seed 1

``--setup-only`` imports the library and builds the workload's scenarios and
priors, then exits; run.py times it in fresh processes for ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import oracle
from envinfo import blas_threads, environment
from spec import WORKLOADS
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Design inputs: one stratum per energy bin, with the assumed DOA stratified
# in a fixed cycle across bins; the seed places each point within JITTER of a
# bin width around the bin centre and draws the random start. MM iteration
# counts depend almost only on (energy, DOA), so every seed gets the same mix
# of short and long ascents and the figures stay comparable across seeds.
ENERGY_RANGE = (0.25, 2.25)
DOA_RANGE = (5.0, 35.0)
DOA_STRATA = 4
JITTER = 0.05

# pd_vs_nominal_doa at full scale (6x6 arrays, 20 chips), with one 2e4-trial
# Monte Carlo batch per threshold and per Pd instead of the default 1e5.
SWEEP_TRIALS = 20_000
SWEEP_P_FA = 1e-3
SWEEP_TRUE_DOA = 25.0

# --tiny (the smoke test): desk geometry, two operations per pass
TINY_OPS = 2


def import_library():
    """Import mimowave from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mimowave
    import mimowave.cli
    import mimowave.experiments

    if Path(mimowave.__file__).resolve().parent != (src / "mimowave").resolve():
        raise SystemExit(f"mimowave was imported from {mimowave.__file__}, "
                         f"not from {src}")
    return mimowave


def _failures(problems) -> None:
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)


def run_design(mw, scenario, index: int, seed: int):
    """One operation: prior, ascent from a seeded start, baseline and its D."""
    prior = mw.build_prior(scenario)
    x0 = mw.random_init(scenario, np.random.default_rng([seed, 1, index]))
    trace = mw.optimize(scenario, prior, x0=x0)
    h = mw.response_matrix(
        [(scenario.nominal_amplitude, scenario.nominal_doa_deg)], scenario)
    x_nom = mw.nominal_design(h, scenario.energy_budget, scenario.code_length)
    return trace, (x_nom, mw.relative_entropy(x_nom, prior, scenario.noise_power))


class DesignWorkload:
    """Whole passes over a stratified grid of energy budgets and DOAs."""

    def __init__(self, mw, spec: dict, seed: int, tiny: bool):
        self.mw, self.seed = mw, seed
        n = spec["strata"]
        rng = np.random.default_rng([seed, 0])
        cells = np.arange(n)
        energies = (ENERGY_RANGE[0] + (ENERGY_RANGE[1] - ENERGY_RANGE[0])
                    * (cells + 0.5 + rng.uniform(-JITTER, JITTER, n)) / n)
        doas = (DOA_RANGE[0] + (DOA_RANGE[1] - DOA_RANGE[0])
                * (cells % DOA_STRATA + 0.5 + rng.uniform(-JITTER, JITTER, n))
                / DOA_STRATA)
        make = mw.desk_scenario if tiny else mw.default_scenario
        length = max(8, spec["code_length"] // 5) if tiny else spec["code_length"]
        inputs = [(i, replace(make(energy_budget=float(p), nominal_doa_deg=float(d),
                                   seed=seed), code_length=length))
                  for i, (p, d) in enumerate(zip(energies, doas))]
        if spec["subset"] is not None:
            inputs = [inputs[i] for i in spec["subset"]]
        self.inputs = inputs[:TINY_OPS] if tiny else inputs
        self.priors = [mw.build_prior(s) for _, s in self.inputs]
        self.log = []  # (seconds, input position, result or None)

    def warm(self) -> None:
        """Two MM iterations at the workload's size, untimed."""
        scenario, prior = self.inputs[0][1], self.priors[0]
        config = self.mw.MMConfig(sigma2=scenario.noise_power, max_iterations=2)
        self.mw.optimize(scenario, prior, config=config)

    def run_pass(self, tracer=None) -> None:
        for pos, (index, scenario) in enumerate(self.inputs):
            if tracer is not None:
                tracer.op = len(self.log)
            start = time.perf_counter()
            try:
                result = run_design(self.mw, scenario, index, self.seed)
            except Exception:
                traceback.print_exc()
                result = None
            self.log.append((time.perf_counter() - start, pos, result))

    def check(self) -> int:
        failed = 0
        for _, pos, result in self.log:
            if result is None:
                failed += 1
                continue
            trace, baseline = result
            problems = oracle.design_problems(self.inputs[pos][1], self.priors[pos],
                                              trace, baseline)
            _failures(problems)
            failed += bool(problems)
        return failed

    def end_to_end(self, pass_times) -> dict:
        # each input's median time over the passes, so that one disturbed
        # pass moves neither figure
        per_input = [[] for _ in self.inputs]
        for t, pos, _ in self.log:
            per_input[pos].append(t)
        medians = [statistics.median(times) for times in per_input]
        done = [r for _, _, r in self.log if r is not None]
        return {
            "designs_per_s": len(medians) / sum(medians),
            "design_s_p50": statistics.median(medians),
            "sweep_s": statistics.median(pass_times),
            "design_objective": statistics.fmean(r[0].objective for r in done),
        }

    def layer_counts(self) -> dict:
        return {"experiments.points_failed": 0.0,
                "experiments.points_attempted": 0.0}

    def notes(self) -> dict:
        return {"designs": len(self.log), "designs_per_pass": len(self.inputs),
                "inputs": [{"energy_budget": s.energy_budget,
                            "nominal_doa_deg": s.nominal_doa_deg,
                            "code_length": s.code_length} for _, s in self.inputs]}


def sweep_config(seed: int, tiny: bool) -> dict:
    """pd_vs_nominal_doa run: one matched and two mismatched assumed DOAs.

    The target sits at the shipped scene's 25 degrees; the seed draws how
    far below and above it the two mismatched designs look.
    """
    low, high = np.round(np.random.default_rng([seed, 2]).uniform(2.0, 6.0, 2), 2)
    doas = [SWEEP_TRUE_DOA, float(SWEEP_TRUE_DOA - low), float(SWEEP_TRUE_DOA + high)]
    size, length = (4, 8) if tiny else (6, 20)
    return {
        "experiment": "pd_vs_nominal_doa",
        "seed": seed,
        "sweep": doas[:TINY_OPS] if tiny else doas,
        "true_doa_deg": SWEEP_TRUE_DOA,
        "p_fa": 0.01 if tiny else SWEEP_P_FA,
        "mc_trials": 1000 if tiny else SWEEP_TRIALS,
        "output": "sweep.csv",
        "scenario": {
            "n_tx": size, "n_rx": size,
            "tx_spacing_wavelengths": 2.0, "rx_spacing_wavelengths": 0.5,
            "code_length": length, "noise_power": 1.0, "energy_budget": 1.25,
            "nominal_doa_deg": SWEEP_TRUE_DOA,
            "nominal_amplitude": float(np.sqrt(1.5)),
            "uncertainty_power": 0.05,
        },
    }


@contextlib.contextmanager
def capture_designs(experiments, sink: list):
    """Collect the MM traces a sweep produces, for the correctness checks."""
    inner = experiments.optimize

    def capturing(*args, **kwargs):
        trace = inner(*args, **kwargs)
        sink.append(trace)
        return trace

    experiments.optimize = capturing
    try:
        yield sink
    finally:
        experiments.optimize = inner


class SweepWorkload:
    """Repeated ``mimowave sweep`` runs of one config through ``cli.main``."""

    def __init__(self, mw, spec: dict, seed: int, tiny: bool):
        self.mw = mw
        self.raw = sweep_config(seed, tiny)
        config = mw.experiments.config_from_dict(self.raw)
        self.scenarios = [replace(config.scenario, nominal_doa_deg=float(d))
                          for d in config.sweep]
        self.priors = [mw.build_prior(s) for s in self.scenarios]
        self.log = []  # (seconds, exit code, CSV bytes, traces, manifest points)

    def _sweep(self, raw: dict, tracer=None):
        OUT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))
        try:
            raw = dict(raw, output=str(work / "sweep.csv"))
            config_path = work / "config.json"
            config_path.write_text(json.dumps(raw), encoding="utf-8")
            if tracer is not None:
                tracer.op = len(self.log)
            traces = []
            with capture_designs(self.mw.experiments, traces), \
                    contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = self.mw.cli.main(["sweep", str(config_path)])
                elapsed = time.perf_counter() - start
            csv_bytes = (work / "sweep.csv").read_bytes()
            manifest = json.loads(
                (work / "sweep.csv.manifest.json").read_text(encoding="utf-8"))
            return elapsed, code, csv_bytes, traces, manifest["points"]
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def warm(self) -> None:
        self._sweep(sweep_config(self.raw["seed"], tiny=True))

    def run_pass(self, tracer=None) -> None:
        start = time.perf_counter()
        try:
            self.log.append(self._sweep(self.raw, tracer))
        except Exception:
            traceback.print_exc()
            self.log.append((time.perf_counter() - start, None, b"", [], []))

    def check(self) -> int:
        failed = 0
        reference = self.log[0][2]
        for _, code, csv_bytes, traces, _ in self.log:
            problems = oracle.sweep_problems(code, csv_bytes, reference)
            if len(traces) != len(self.scenarios):
                problems.append(f"{len(traces)} designs for "
                                f"{len(self.scenarios)} sweep points")
            for scenario, prior, trace in zip(self.scenarios, self.priors, traces):
                problems += oracle.design_problems(scenario, prior, trace)
            _failures(problems)
            failed += bool(problems)
        return failed

    def end_to_end(self, pass_times) -> dict:
        points = len(self.scenarios)
        sweep_s = statistics.median(entry[0] for entry in self.log)
        return {
            "designs_per_s": points / sweep_s,
            "design_s_p50": sweep_s / points,
            "sweep_s": sweep_s,
            "design_objective": statistics.fmean(
                trace.objective for entry in self.log for trace in entry[3]),
        }

    def layer_counts(self) -> dict:
        points = [entry[4] for entry in self.log]
        return {
            "experiments.points_failed": statistics.fmean(
                sum(p.get("status") == "error" for p in run) for run in points),
            "experiments.points_attempted": statistics.fmean(len(run) for run in points),
        }

    def notes(self) -> dict:
        return {"sweeps": len(self.log), "points_per_sweep": len(self.scenarios),
                "sweep_s_samples": [entry[0] for entry in self.log],
                "config": self.raw}


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def timed_passes(run_pass, seconds: float) -> list:
    """Wall time of each whole pass, starting passes until ``seconds`` elapse."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(_timed(run_pass))
    return times


def traced_passes(workload, tracer, seconds: float):
    """Alternate untraced and traced passes so that drift cancels in the
    overhead; returns both lists of pass times."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(_timed(workload.run_pass))
        tracer.install()
        try:
            traced.append(_timed(lambda: workload.run_pass(tracer)))
        finally:
            tracer.uninstall()
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    mw = import_library()
    spec = WORKLOADS[args.workload]
    kind = DesignWorkload if spec["kind"] == "design" else SweepWorkload
    workload = kind(mw, spec, args.seed, args.tiny)
    if args.setup_only:
        return 0
    threads = blas_threads()
    workload.warm()

    if args.trace:
        tracer = Tracer()
        untraced, traced = traced_passes(workload, tracer, args.seconds / 2)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
        metrics = layer_metrics(tracer.spans)
        metrics.update(workload.layer_counts())
        metrics["trace.overhead_share"] = sum(traced) / sum(untraced) - 1.0
        notes = {"passes_untraced": len(untraced), "passes_traced": len(traced),
                 "spans": len(tracer.spans)}
    else:
        times = timed_passes(workload.run_pass, seconds=args.seconds)
        metrics = workload.end_to_end(times)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        notes = {"passes": len(times), "pass_s_samples": times}

    notes.update(workload.notes())
    print(json.dumps({
        "attempted": len(workload.log),
        "failed": workload.check(),
        "metrics": metrics,
        "notes": notes,
        "environment": environment(ROOT, threads),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
