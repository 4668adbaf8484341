"""The usmod benchmark.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the package is imported from
``src/`` (``PYTHONPATH=src``), not from an installed copy.  Every pass runs
in a fresh interpreter (``bench/worker.py``), because the package keeps
unbounded ``lru_cache``s and a warm second pass in one process would
measure a different program.  Passes repeat while the next one can still
end within S seconds (at least three, or one untraced/traced pair with
``--trace 1``).  Every pass does the same work, so each metric is the
median over the passes.  ``item_tail_ms`` takes, for each item, the median
of its time over the passes, then the highest percentile of those with ten
items beyond it: on a shared machine, a single descheduling spike moves a
one-pass percentile but not a per-item median.

Times (``setup_s``, ``wall_s``, ``item_tail_ms``) are reported at a fixed
host speed.  On a shared 2-vCPU virtual machine the same pass took 3.7 s
in one minute and 5.2 s three minutes later, and the speed of a fixed
Python loop switched between two levels 1.6x apart from one second to the
next.  So every pass runs under ``worker.HostProbe``, which times a small
fixed job that does not use the package twenty times a second, and each
time is multiplied by ``REFERENCE_S`` over the probe's mean job time in
the same window: a change to the package moves the result, a slower or
faster host does not.  The human-readable table also prints the unscaled
medians.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, including ``tracing.overhead_s`` (traced minus untraced
``wall_s``).  ``--workload all`` runs every workload in turn.

Each workload checks its own outputs against known answers and digests
them with time excluded; every pass of a run, traced or not, must give the
same digest.  The last line of output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("laws-acceptance", "decide-search")
MIN_PASSES = 3
# the probe's mean job time on the machine the baseline was recorded on
# (2-vCPU Xeon, Python 3.11.7); it only sets the scale of the reported times
REFERENCE_S = 0.0012
DEADLINE_S = 170.0  # a whole run, all passes included, ends before this


class BenchError(Exception):
    pass


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; returns the worker's JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launched = _clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), str(int(trace)),
             repr(launched), str(OUT_DIR)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - launched, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Passes while the next can end within *seconds*; returns (untraced,
    traced) lists."""
    start = _clock()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        pass_start = _clock()
        plain.append(run_pass(workload, seed, False, deadline))
        if trace:
            traced.append(run_pass(workload, seed, True, deadline))
        now = _clock()
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        step = now - pass_start
        if enough and (now + step > start + seconds or now + step > deadline):
            return plain, traced


def host_scale(p: dict, window: str = "wall") -> float:
    """Factor that brings a pass's times in *window* ("setup" or "wall") to
    the reference host speed."""
    return REFERENCE_S / p[f"{window}_ref_s"]


def tail_ms(passes: list[dict]) -> float:
    """Per-item median scaled time over the passes, at the highest
    percentile with ten items beyond it (the largest with ten items or
    fewer), in ms."""
    lengths = {len(p["item_times"]) for p in passes}
    if len(lengths) != 1:
        raise BenchError(f"passes timed different item counts: {sorted(lengths)}")
    scaled = [[t * host_scale(p) for t in p["item_times"]] for p in passes]
    ordered = sorted(statistics.median(times) for times in zip(*scaled))
    if not ordered:
        return 0.0
    return ordered[len(ordered) - 11 if len(ordered) > 10 else -1] * 1000.0


def summarize(workload: str, seed: int, plain: list[dict], traced: list[dict], spec: dict):
    """Print the human-readable table and return the result object."""
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    correct = failed == 0 and len(digests) == 1

    def median(key: str, group: list[dict]) -> float:
        return statistics.median(p[key] for p in group)

    def scaled(window: str, group: list[dict]) -> float:
        return statistics.median(p[f"{window}_s"] * host_scale(p, window) for p in group)

    end_to_end = {
        "setup_s": scaled("setup", plain),
        "wall_s": scaled("wall", plain),
        "item_tail_ms": tail_ms(plain),
        "peak_rss_mb": median("peak_rss_mb", plain),
        "decided_share": statistics.median(p["decided"] / p["attempted"] for p in plain),
    }
    failed_share = failed / attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    timed = len(plain[0]["item_times"])

    print(f"== {workload}  seed {seed}  {len(plain)} untraced + {len(traced)} traced passes, "
          f"each in a fresh interpreter")
    print(f"   output digest {plain[0]['digest']}"
          + ("" if len(digests) == 1 else f"  MISMATCH: {len(digests)} different digests"))
    for name, value in end_to_end.items():
        print(f"   {name:24s} {value:14.6f} {units.get(name, ''):6s} median of {len(plain)} passes")
    for name in ("setup_s", "wall_s"):
        print(f"   {name + ' unscaled':24s} {median(name, plain):14.6f} s      "
              f"median of {len(plain)} passes")
    print(f"   {'host scale':24s} {statistics.median(map(host_scale, plain)):14.6f} "
          f"       median of {REFERENCE_S} s / mean probe job time in the run")
    print(f"   {'failed_share':24s} {failed_share:14.6f} ratio  ({failed} of {attempted} items)")
    if timed > 10:
        print(f"   item_tail_ms is the per-item median time with 10 of {timed} timed items "
              f"beyond it (p{100 * (timed - 10) / timed:.2f})")
    for problem in sorted({p for pas in passes for p in pas["problems"]}):
        print(f"   FAILED: {problem}")

    if traced:
        layers = {
            key: statistics.median(p["layers"][key] for p in traced)
            for key in traced[0]["layers"]
        }
        layers["tracing.overhead_s"] = scaled("wall", traced) - end_to_end["wall_s"]
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if missing:
            raise BenchError(f"traced passes did not report {', '.join(missing)}")
        chosen = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        for name, value in chosen.items():
            print(f"   {name:58s} {value:14.6f} {units[name]}")
    else:
        chosen = {m["name"]: end_to_end[m["name"]] for m in spec["end_to_end"]}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "usmod" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a usmod source checkout ({SRC / 'usmod'} and "
              f"{spec_path} are required)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    OUT_DIR.mkdir(exist_ok=True)

    all_correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        deadline = _clock() + DEADLINE_S
        try:
            plain, traced = run_workload(workload, args.seed, seconds, bool(args.trace), deadline)
            result = summarize(workload, args.seed, plain, traced, spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        all_correct = all_correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
