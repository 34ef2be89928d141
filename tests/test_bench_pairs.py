import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
           "ops_ok_frac": {"name": "ops_ok_frac", "better": "higher", "bound": 0.01}}


def _runs(parent, change, ops=(1.0, 1.0)):
    return [{"pair": i, "workload": "w", "side": side, "wall_s": wall,
             "ops_ok_frac": ops[side == "change"]}
            for side, walls in (("parent", parent), ("change", change))
            for i, wall in enumerate(walls)]


@pytest.mark.parametrize("parent, change, want", [
    # medians 1.0 and 1.1: within the margin 0.25, and a parent IQR of 0.1
    ([0.9, 0.95, 1.0, 1.05, 1.1], [1.0, 1.05, 1.1, 1.15, 1.2], "ok"),
    # median 1.0 -> 1.3: worse by more than 0.25 x 1.0
    ([0.9, 0.95, 1.0, 1.05, 1.1], [1.2, 1.25, 1.3, 1.35, 1.4], "worse"),
    # a parent IQR of 0.5 exceeds the margin, and the runs overlap
    ([0.5, 0.75, 1.0, 1.25, 1.5], [0.6, 0.8, 0.9, 1.1, 1.3], "unresolved"),
    # the same spread, but every change run beats every parent run
    ([0.5, 0.75, 1.0, 1.25, 1.5], [0.1, 0.2, 0.3, 0.4, 0.45], "ok"),
], ids=["ok", "worse", "unresolved", "every-run-better"])
def test_summarize_gives_each_metric_a_verdict(parent, change, want):
    rows = bench_pairs.summarize(_runs(parent, change), METRICS)["w"]
    assert rows["wall_s"]["verdict"] == want
    assert rows["ops_ok_frac"]["verdict"] == "ok"


def test_summarize_reads_higher_is_better():
    walls = [1.0, 1.0, 1.0]
    rows = bench_pairs.summarize(_runs(walls, walls, ops=(1.0, 0.9)), METRICS)["w"]
    assert rows["ops_ok_frac"]["verdict"] == "worse"
    rows = bench_pairs.summarize(_runs(walls, walls, ops=(0.9, 1.0)), METRICS)["w"]
    assert rows["ops_ok_frac"]["verdict"] == "ok"


@pytest.mark.parametrize("parent, change, want", [
    # 10/10 pairs won, and the medians 1.0 and 0.8 differ by more than the
    # parent's quartile distance 0.05
    ([1.0, 0.98, 1.02, 0.99, 1.01, 1.0, 0.97, 1.03, 1.0, 1.0],
     [0.8, 0.78, 0.82, 0.79, 0.81, 0.8, 0.77, 0.83, 0.8, 0.8], "met"),
    # 9/10 won is still enough
    ([1.0, 0.98, 1.02, 0.99, 1.01, 1.0, 0.97, 1.03, 1.0, 1.0],
     [0.8, 0.78, 0.82, 0.79, 0.81, 0.8, 0.77, 0.83, 0.8, 1.1], "met"),
    # a tie is no win: 8 won and 2 tied of 10
    ([1.0, 0.98, 1.02, 0.99, 1.01, 1.0, 0.97, 1.03, 1.0, 1.0],
     [0.8, 0.78, 0.82, 0.79, 0.81, 0.8, 0.77, 0.83, 1.0, 1.0], "not met"),
    # every pair won, but by less than the parent's quartile distance 0.5
    ([0.5, 0.75, 1.0, 1.25, 1.5, 0.5, 0.75, 1.0, 1.25, 1.5],
     [0.4, 0.65, 0.9, 1.15, 1.4, 0.4, 0.65, 0.9, 1.15, 1.4], "not met"),
    # no change at all
    ([1.0] * 10, [1.0] * 10, "not met"),
], ids=["all-pairs", "nine-pairs", "ties-are-no-wins", "within-spread", "equal"])
def test_summarize_tells_whether_a_gain_is_met(parent, change, want):
    rows = bench_pairs.summarize(_runs(parent, change), METRICS)["w"]
    assert rows["wall_s"]["gain"] == want


def test_gain_reads_higher_is_better():
    ops = [0.5, 0.48, 0.52, 0.49, 0.51, 0.5, 0.47, 0.53, 0.5, 0.5]
    assert bench_pairs.gain(ops, [o + 0.3 for o in ops], -1.0) == "met"
    assert bench_pairs.gain(ops, [o - 0.3 for o in ops], -1.0) == "not met"


def test_traced_runs_give_each_layer_metric_a_spread_per_side():
    # five traced runs per side and workload; each layer metric gets the
    # median and quartiles of its runs, so one outlying run moves neither
    assert bench_pairs.TRACED_RUNS == 5
    layer = {"parent": [0.70, 0.52, 0.80, 0.71, 0.60], "change": [0.60, 0.59, 0.58, 0.95, 0.57]}
    runs = [{"workload": workload, "side": side,
             "metrics": {"estimators.automatic.s": value, "calls": 9,
                         **({"new.s": 1.0} if side == "change" else {})}}
            for workload in ("grid", "sensitivity")
            for side, values in layer.items() for value in values]
    got = bench_pairs.summarize_traced(runs)
    assert set(got) == {"grid", "sensitivity"}
    for workload in got:
        automatic = got[workload]["estimators.automatic.s"]
        assert automatic["parent"] == pytest.approx({"median": 0.70, "q1": 0.60, "q3": 0.71})
        assert automatic["change"] == pytest.approx({"median": 0.59, "q1": 0.58, "q3": 0.60})
        assert got[workload]["calls"] == {side: {"median": 9, "q1": 9, "q3": 9}
                                          for side in ("parent", "change")}
        # a metric the parent's benchmark does not emit has the change's side only
        assert got[workload]["new.s"] == {"change": {"median": 1.0, "q1": 1.0, "q3": 1.0}}


def test_main_takes_alternating_traced_runs_and_writes_their_spreads(tmp_path, monkeypatch):
    # a fake perfbench: every traced run reads its call number as its layer
    # time, so the spreads tell which runs went into each side
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": [METRICS["wall_s"]]}
    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run_bench(tree, workload, seed, seconds, trace):
        calls.append((Path(tree).name, seed, trace))
        metrics = {"wall_s": {"value": 1.0}, "layer.s": {"value": float(len(calls))}}
        env = {"commit": Path(tree).name, "src_sha256": "0", "blas_threads": "1",
               "python": "3", "numpy": "2"}
        return {"correct": True, "metrics": metrics}, env

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--pairs", "2", "--seed", "5",
                             "--out", str(out)]) == 0
    traced = [(tree, seed) for tree, seed, trace in calls if trace == 1]
    assert traced == [("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
                      ("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
                      ("parent", 0), ("change", 0)]
    layer = json.loads(out.read_text())["traced_seed0"]
    assert layer["runs_per_side"] == bench_pairs.TRACED_RUNS
    # the traced runs are calls 5-14, after the two pairs' four timed runs
    assert layer["w"]["layer.s"]["parent"] == {"median": 9.0, "q1": 8.0, "q3": 12.0}
    assert layer["w"]["layer.s"]["change"] == {"median": 10.0, "q1": 7.0, "q3": 11.0}
