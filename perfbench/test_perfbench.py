"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

Every workload also runs here at reduced length on seed 7, a seed not
used while the benchmark was built, to show the metric set works on it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.server import _HandlerSlot
from repro.core.role import CxRole

from perfbench.layers import ENTRY_POINTS, LayerTracer
from perfbench.measure import (
    END_TO_END,
    PER_LAYER,
    describe,
    layer_metrics,
    modeled_metrics,
    run_cell,
)
from perfbench.stats import mid_quantile, order_quantile, tail_mean
from perfbench.workloads import (
    WORKLOADS,
    BenchmarkFailure,
    check_cell,
    setup_cth,
    setup_home2,
    setup_mixed,
    setup_recovery,
)

ROOT = Path(__file__).resolve().parent.parent
OTHER_SEED = 7

#: Reduced-length setups: workload -> setup(seed, tracer=None).
REDUCED = {
    "cth": lambda seed, tracer=None: setup_cth(seed, tracer, scale=0.004),
    "mixed-256": lambda seed, tracer=None: setup_mixed(seed, tracer,
                                                       total_ops=4000),
    "conflict-home2": lambda seed, tracer=None: setup_home2(seed, tracer,
                                                            scale=0.0008),
    "recovery": lambda seed, tracer=None: setup_recovery(seed, tracer,
                                                         target_kb=60),
}


def _reduced(name):
    return replace(WORKLOADS[name], setup=REDUCED[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_workload_on_another_seed_is_correct_and_deterministic(name):
    workload = _reduced(name)
    prep, first, _ = run_cell(workload, OTHER_SEED)
    check_cell(prep, first)
    prep, again, _ = run_cell(workload, OTHER_SEED)
    check_cell(prep, again)
    assert first.modeled_key() == again.modeled_key()
    metrics = modeled_metrics([first])
    assert set(metrics) | {"wall_ops_per_s", "setup_s", "peak_rss_mb"} == set(
        END_TO_END
    )
    for key, value in metrics.items():
        assert value > 0, key
    if name == "recovery":
        assert first.recovery_vt > 0 and first.scan_vt > 0
    if name == "conflict-home2":
        assert first.attempted > first.ok  # probes racing removals
    if name == "mixed-256":
        assert first.servers_materialized == 256


def test_canonical_cth_cell_reproduces_the_reference_numbers():
    prep, out, _ = run_cell(WORKLOADS["cth"], 0)
    check_cell(prep, out)
    assert out.attempted == 10_080
    assert order_quantile(out.latencies, 0.5) * 1e3 == pytest.approx(0.36532)
    assert out.messages / out.attempted == pytest.approx(2.77, abs=0.005)
    assert out.registry["commit.batches"] == 21


def test_correctness_gate_rejects_a_missing_op():
    workload = _reduced("cth")
    prep, out, _ = run_cell(workload, OTHER_SEED)
    out.attempted += 1
    with pytest.raises(BenchmarkFailure):
        check_cell(prep, out)


def test_layer_tracer_is_transparent_and_restores_the_classes():
    originals = {(cls, attr): cls.__dict__.get(attr)
                 for _n, cls, attr, _g in ENTRY_POINTS}
    workload = _reduced("mixed-256")
    _p, base, _ = run_cell(workload, OTHER_SEED)
    with LayerTracer() as lt:
        prep, traced, _ = run_cell(workload, OTHER_SEED)
    assert traced.modeled_key() == base.modeled_key()
    for (cls, attr), fn in originals.items():
        assert cls.__dict__.get(attr) is fn, (cls, attr)
    assert "handle_rename" not in CxRole.__dict__
    assert _HandlerSlot.__dict__["_resume"] is originals[(_HandlerSlot, "_resume")]
    stats = lt.layer_stats()
    for span in ("sim.run", "net.send", "cluster.dispatch", "cluster.perform",
                 "core.handle", "wal.append", "fs.execute", "analysis.record",
                 "workloads.next_op", "workloads.gen", "cluster.build"):
        assert stats[span]["calls"] > 0, span
        assert 0 <= stats[span]["self_s"] <= stats[span]["total_s"] + 1e-9
    metrics = layer_metrics(prep, traced, lt)
    assert set(metrics) | {f"critpath.{p}_share" for p in
                           ("execution", "wal-append", "write-back", "commit",
                            "lock-wait", "network")} | {
        "trace.overhead_frac"} == set(PER_LAYER)


def test_generator_spans_time_each_resumption():
    lt = LayerTracer()

    def gen():
        x = yield 1
        assert x == "a"
        try:
            yield 2
        except KeyError:
            yield 3
        return 4

    g = lt.drive(gen(), "core.handle")
    assert next(g) == 1
    assert g.send("a") == 2
    assert g.throw(KeyError()) == 3
    with pytest.raises(StopIteration) as stop:
        next(g)
    assert stop.value.value == 4
    assert lt.layer_stats()["core.handle"]["calls"] == 4


def test_mid_quantile_moves_with_the_mass_of_a_plateau():
    assert mid_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    low = [1.0] * 55 + [2.0] * 45
    high = [1.0] * 52 + [2.0] * 48
    assert order_quantile(low, 0.5) == order_quantile(high, 0.5) == 1.0
    assert mid_quantile(low, 0.5) < mid_quantile(high, 0.5)
    assert tail_mean(list(range(1000)), 0.999) == pytest.approx(994.5)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == set(END_TO_END)
    for name, (unit, better, _kind, _meaning) in END_TO_END.items():
        assert (e2e[name]["unit"], e2e[name]["better"]) == (unit, better)
        assert 0 < e2e[name]["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    described = describe()["per_layer"]
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {k: (d["unit"], d["better"]) for k, d in described.items()}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


def test_command_fails_without_the_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cth", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
