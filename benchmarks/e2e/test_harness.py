"""Self-test of the benchmark harness (not part of tier-1).

    python -m pytest benchmarks/e2e -q

Checks the declarations against the contract's limits, the statistics and
span arithmetic on synthetic data, and — at 1/20 size — that every workload
emits exactly the declared names in both modes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import declare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_the_tables():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == declare.benchmark_json()


def test_declarations_fit_the_contract():
    doc = declare.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    # the pipeline makes 4 + 22 * workloads runs inside 3420 s
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 12) < 3420


def test_every_layer_metric_names_declared_metrics_and_workloads():
    end_to_end = {n for n, *_ in declare.END_TO_END}
    for name, _, better, moves, on in declare.PER_LAYER:
        assert better in ("lower", "higher"), name
        assert moves and set(moves) <= end_to_end, name
        assert on and set(on) <= set(declare.WORKLOADS), name


def test_percentile_refuses_thin_tails():
    assert stats.samples_needed(99) == 1000
    assert stats.samples_needed(75) == 40
    assert stats.samples_needed(50) == 20
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(999)), 99)
    assert stats.percentile(list(range(1001)), 99) == pytest.approx(990.0)
    assert stats.percentile([1.0, 2.0, 3.0], 50, strict=False) == 2.0


def test_segmented_percentile_is_a_median_over_segments():
    calm, noisy = list(range(20)), [x + 100 for x in range(20)]
    # three segments that each support p50: one disturbed segment moves nothing
    assert stats.segmented_percentile([calm, calm, noisy], 50) == 9.5
    # too short for p90 each, long enough pooled
    assert stats.segmented_percentile([list(range(50)), list(range(50, 100))], 90) \
        == pytest.approx(89.1)


def test_self_time_on_a_synthetic_span_tree():
    S = trace.Span
    spans = [
        S("md.step_loop", 0.0, 10.0, -1, 0, 0.0),       # 0: root
        S("engine.evaluate", 1.0, 7.0, 0, 0, 0.0),       # 1: child of root
        S("md.neighbor", 7.0, 8.0, 0, 0, 0.0, 1),        # 2: child of root
        S("md.integrate.drift", 8.0, 8.5, 0, 0, 0.0),    # 3: aliased to md.integrate
        S("md.integrate.half_kick", 8.5, 9.0, 0, 0, 0.0),
        S("engine.evaluate", 20.0, 21.0, -1, -1, 0.0),   # 5: a worker-thread root
        None,                                             # 6: never closed
    ]
    own = trace.self_times(spans)
    assert own["md.step_loop"] == pytest.approx(10.0 - 6.0 - 1.0 - 0.5 - 0.5)
    assert own["engine.evaluate"] == pytest.approx(7.0)
    assert own["md.integrate"] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)  # the two roots
    # blanking rows keeps parent indices valid
    assert trace.self_times(trace.window(spans, 0, 2))["md.step_loop"] \
        == pytest.approx(4.0)
    assert trace.durations_ms(spans, "md.integrate") == [500.0, 500.0]


def test_wrappers_nest_per_thread_and_uninstall_cleanly():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = trace.Tracer()
    Layer.outer = tracer.wrap("outer", Layer.outer)
    Layer.inner = tracer.wrap("inner", Layer.inner, hook=lambda a, k: (lambda: 7))
    tracer.op = 3
    assert Layer().outer() == 2
    inner, outer = sorted(tracer.spans, key=lambda s: s.name)
    assert (inner.parent, inner.count, inner.op_id) == (tracer.spans.index(outer), 7, 3)
    assert outer.parent == -1 and outer.start <= inner.start <= inner.end <= outer.end

    from repro.md import VerletList

    raw = VerletList.__dict__["get"]
    tracer.install()
    assert VerletList.__dict__["get"] is not raw
    tracer.uninstall()
    assert VerletList.__dict__["get"] is raw


def test_compare_verdicts():
    def passes(values, q=0.0):
        return [{"value": v, "q1": v * (1 - q), "q3": v * (1 + q)} for v in values]

    v = run.verdict
    assert v(passes([100, 101, 99]), passes([100, 102, 98]), "higher", 0.10)[1] == "within"
    assert v(passes([100, 101, 99]), passes([80, 81, 79]), "higher", 0.10)[1] == "worse"
    assert v(passes([100, 101, 99]), passes([120, 121, 119]), "higher", 0.10)[1] == "better"
    assert v(passes([100, 101, 99]), passes([120, 121, 119]), "lower", 0.10)[1] == "worse"
    # spread wider than the bound and overlapping runs: not "unchanged"
    assert v(passes([100, 130, 70]), passes([95, 125, 72]), "higher", 0.10)[1] \
        == "unresolved"
    # a single pass falls back on its own segment quartiles
    assert v(passes([100], q=0.2), passes([101], q=0.2), "lower", 0.10)[1] == "unresolved"


@pytest.mark.parametrize("workload", list(declare.WORKLOADS))
@pytest.mark.parametrize("traced", [0, 1])
def test_small_run_emits_exactly_the_declared_names(workload, traced):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(traced), "--scale", "0.05"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = declare.PER_LAYER if traced else declare.END_TO_END
    assert set(result["metrics"]) == {name for name, *_ in table}
    units = {name: unit for name, unit, *_ in table}
    for name, v in result["metrics"].items():
        assert v["unit"] == units[name]
        assert v["value"] == v["value"]  # not NaN
        if not traced:
            assert v["value"] > 0, name
