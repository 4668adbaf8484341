"""One pass of one workload, in the fresh interpreter ``run.py`` starts.

    python3 bench/worker.py WORKLOAD SEED TRACE LAUNCHED OUT_DIR

LAUNCHED is the CLOCK_MONOTONIC reading taken just before this interpreter
was started, so ``setup_s`` covers interpreter start-up, ``import usmod``
and building the inputs.  A ``HostProbe`` samples the host's speed all
through set-up and the run; ``setup_s`` and ``wall_s`` exclude the time its
samples took, and ``setup_ref_s`` and ``wall_ref_s`` are its mean sample
time in each, so ``run.py`` can bring them to one host speed.  Item times
include the samples that fell inside them, about 3% of any item longer
than PROBE_PERIOD_S; ``run.py`` takes each item's median over the passes,
so a sample that lands on a short item in one pass does not count.  With
TRACE=1 the package's public functions are traced during set-up and the
run (never during the checks), and the spans are written to OUT_DIR.  The
last line of output is one JSON object.
"""
from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time

import workloads
from tracer import LAYERS, Tracer


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


PROBE_PERIOD_S = 0.05
PROBE_LOOPS = 2_000


class HostProbe:
    """Samples how fast the host runs Python while a pass runs.

    Every PROBE_PERIOD_S a timer signal interrupts the pass to time a fixed
    job that does not use the package: tuple, frozenset and dict work of the
    kind the package's table scans do, with the collector off so that the
    size of the package's heap does not change its time.  Each sample is
    (start, seconds the job took, seconds the interruption took)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = _clock()
        enabled = gc.isenabled()
        gc.disable()
        table: dict[tuple[int, int], int] = {}
        for i in range(PROBE_LOOPS):
            pair = (i % 61, i % 59)
            table[pair] = table.get(pair, 0) + len(frozenset(pair))
        job = _clock() - start
        if enabled:
            gc.enable()
        self.samples.append((start, job, _clock() - start))

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(mean job seconds, seconds spent sampling) over the samples that
        started in [start, end)."""
        inside = [s for s in self.samples if start <= s[0] < end]
        if not inside:
            raise RuntimeError("no host speed sample in a timed window")
        return statistics.fmean(s[1] for s in inside), sum(s[2] for s in inside)


# Per-function counters published under the names the benchmark uses.
RENAMED = {
    "modules.hom_enumerate.returned": "modules.hom_enumerate.homs",
    "modules.all_submodules.returned": "modules.all_submodules.lattice_size",
}


def layer_metrics(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    """Every per-function counter as ``<layer>.<function>.<counter>``, plus
    ``<layer>.calls`` and ``<layer>.self_s`` summed over the layer."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        members = [s for name, s in stats.items() if name.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(s["calls"] for s in members)
        out[f"{layer}.self_s"] = sum(s["self_s"] for s in members)
    for name, counters in stats.items():
        for key, value in counters.items():
            metric = f"{name}.{key}"
            out[RENAMED.get(metric, metric)] = value
    return out


def main(argv: list[str]) -> int:
    workload, seed, trace, launched, out_dir = argv
    seed, trace, launched = int(seed), trace == "1", float(launched)
    setup, run, check = workloads.WORKLOADS[workload]
    tracer = Tracer() if trace else None
    with HostProbe() as probe, tracer or contextlib.nullcontext():
        inputs = setup(seed, out_dir)
        ready = _clock()
        outputs = run(inputs)
        done = _clock()
    setup_ref_s, setup_sampling = probe.window(launched, ready)
    wall_ref_s, wall_sampling = probe.window(ready, done)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = check(inputs, outputs, seed)

    result = {
        "setup_s": ready - launched - setup_sampling,
        "setup_ref_s": setup_ref_s,
        "wall_s": done - ready - wall_sampling,
        "wall_ref_s": wall_ref_s,
        "item_times": outcome.item_times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "decided": outcome.decided,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "digest": outcome.digest,
        "layers": {**workloads.law_metrics([]), **outcome.layer_metrics},
    }
    if tracer is not None:
        result["layers"].update(layer_metrics(tracer.function_stats()))
        tracer.write_spans(os.path.join(out_dir, f"spans-{workload}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
