"""Tests for the benchmark's own code: tracer arithmetic, wrapper
transparency, binding restoration, the host speed probe and the tail
percentile.

    python3 -m pytest bench/tests
"""
import signal
import sys
import textwrap
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from tracer import Tracer, package_namespaces, self_times  # noqa: E402
from run import REFERENCE_S, tail_ms  # noqa: E402
from worker import HostProbe, _clock  # noqa: E402
from usmod import essential, modules, rings  # noqa: E402
from usmod.errors import ResourceExceededError  # noqa: E402


def _fake_layer() -> types.ModuleType:
    module = types.ModuleType("fakelayer")
    exec(
        textwrap.dedent(
            """
            def h():
                return 1

            def g():
                return h() + 1

            def f():
                return g() + g()

            def fail():
                raise KeyError("boom")
            """
        ),
        module.__dict__,
    )
    return module


def _ticks():
    state = {"t": -1.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


def test_self_times_of_synthetic_spans():
    # a [0,10] with children b [1,4] and c [5,7]; d [2,3] inside b
    fids = [0, 1, 2, 3]
    parents = [-1, 0, 0, 1]
    starts = [0.0, 1.0, 5.0, 2.0]
    ends = [10.0, 4.0, 7.0, 3.0]
    assert self_times(fids, parents, starts, ends) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_of_a_nested_call():
    layer = _fake_layer()
    tracer = Tracer({"fake": layer}, [layer], raises=KeyError, clock=_ticks())
    with tracer:
        assert layer.f() == 4
    stats = tracer.function_stats()
    # each clock read advances one tick: f spans 9, each g spans 3, each h 1
    assert stats["fake.f"]["calls"] == 1 and stats["fake.f"]["self_s"] == 3.0
    assert stats["fake.g"]["calls"] == 2 and stats["fake.g"]["self_s"] == 4.0
    assert stats["fake.h"]["calls"] == 2 and stats["fake.h"]["self_s"] == 2.0
    assert stats["fake.f"]["incl_s"] == 9.0 and stats["fake.g"]["incl_s"] == 6.0
    assert sum(s["self_s"] for s in stats.values()) == stats["fake.f"]["incl_s"]


def test_wrappers_preserve_results_and_exceptions():
    layer = _fake_layer()
    tracer = Tracer({"fake": layer}, [layer], raises=KeyError)
    with tracer:
        assert layer.g() == 2
        with pytest.raises(KeyError, match="boom"):
            layer.fail()
    stats = tracer.function_stats()
    assert stats["fake.fail"]["raised"] == 1 and stats["fake.g"]["raised"] == 0


def test_package_calls_are_unchanged_under_tracing():
    module = modules.regular_module(rings.make_zmod(12))
    plain = modules.hom_enumerate(module, module)
    with pytest.raises(ResourceExceededError):
        modules.hom_enumerate(module, module, cap=1)
    tracer = Tracer()
    with tracer:
        traced = modules.hom_enumerate(module, module)
        with pytest.raises(ResourceExceededError):
            modules.hom_enumerate(module, module, cap=1)
    assert [h.map for h in traced] == [h.map for h in plain]
    stats = tracer.function_stats()["modules.hom_enumerate"]
    assert stats["calls"] == 2 and stats["raised"] == 1 and stats["returned"] == len(plain)


def test_bindings_are_restored_after_a_traced_run():
    def bindings():
        return {
            (mod.__name__, attr): obj
            for mod in package_namespaces()
            for attr, obj in vars(mod).items()
            if callable(obj)
        }

    before = bindings()
    original = essential.all_submodules
    ring = rings.make_zmod(6)
    module = modules.regular_module(ring)
    k = modules.cyclic_submodule(module, 2)
    tracer = Tracer()
    with tracer:
        # a name bound with `from .modules import ...` is wrapped too
        assert essential.all_submodules is not original
        verdict = essential.is_essential(k, module).verdict
    assert verdict is False
    assert tracer.function_stats()["modules.all_submodules"]["calls"] >= 1
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tail_has_ten_items_beyond_it():
    times = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    assert tail_ms([{"item_times": times, "wall_ref_s": REFERENCE_S}]) == pytest.approx(90.0)
    short = {"item_times": [0.004, 0.002], "wall_ref_s": REFERENCE_S}
    assert tail_ms([short]) == pytest.approx(4.0)


def test_tail_takes_each_items_median_over_passes():
    times = [i / 1000.0 for i in range(1, 101)]
    spiked = times[:50] + [1.0] + times[51:]  # one pass descheduled on item 51
    passes = [{"item_times": t, "wall_ref_s": REFERENCE_S} for t in (times, spiked, times)]
    assert tail_ms(passes) == pytest.approx(90.0)


def test_tail_is_scaled_to_the_reference_host_speed():
    times = [i / 1000.0 for i in range(1, 101)]
    slow_host = {"item_times": [2 * t for t in times], "wall_ref_s": 2 * REFERENCE_S}
    assert tail_ms([slow_host]) == pytest.approx(90.0)


def test_probe_samples_while_work_runs_and_restores_the_timer():
    with HostProbe() as probe:
        start = _clock()
        while _clock() - start < 0.5:
            sum(range(1000))
        end = _clock()
    job_s, sampling_s = probe.window(start, end)
    assert len(probe.samples) >= 3
    assert 0 < job_s <= sampling_s / len(probe.samples) * 1.01
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with pytest.raises(RuntimeError):
        probe.window(end + 1, end + 2)
