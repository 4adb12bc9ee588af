"""One benchmark run: the end-to-end metrics, or the traced per-layer ones.

Two kinds of number are reported and each metric is labelled with its
kind: *modeled* numbers are virtual time and protocol counts,
deterministic for a seed; *simulator* numbers are host wall clock and
memory, and are noisy.
"""

from __future__ import annotations

import gc
import resource
import time
from typing import Dict, List, Tuple

from repro.obs.critpath import analyze_trace
from repro.obs.registry import Histogram
from repro.obs.tracer import SamplingTracer
from repro.sim import kernel_sprint

from perfbench.layers import LayerTracer
from perfbench.stats import (
    MIN_TAIL_SAMPLES,
    median,
    mid_quantile,
    order_quantile,
    tail_mean,
    tail_samples,
)
from perfbench.workloads import (
    WORKLOADS,
    BenchmarkFailure,
    CellOutcome,
    Prepared,
    Workload,
    check_cell,
)

#: name -> (unit, better, kind, meaning).  The end-to-end set.
END_TO_END: Dict[str, Tuple[str, str, str, str]] = {
    "wall_ops_per_s": ("1/s", "higher", "simulator",
                       "ops per host second of replay, median over replays"),
    "setup_s": ("s", "lower", "simulator",
                "cluster build plus workload generation, median over setups"),
    "peak_rss_mb": ("MB", "lower", "simulator", "peak resident memory"),
    "vt_ops_per_s": ("1/s", "higher", "modeled",
                     "ops per virtual second of replay"),
    "vt_p50_ms": ("ms", "lower", "modeled",
                  "median client op latency (mid-quantile)"),
    "vt_p99_ms": ("ms", "lower", "modeled",
                  "p99 client op latency (mid-quantile)"),
    "vt_tail999_ms": ("ms", "lower", "modeled",
                      "mean latency of the slowest 0.1% of ops (at least "
                      f"{MIN_TAIL_SAMPLES})"),
    "msgs_per_op": ("1/op", "lower", "modeled",
                    "messages per op after quiesce, commitment included"),
    "wal_syncs_per_op": ("1/op", "lower", "modeled",
                         "synchronous log flushes per op"),
    "ok_frac": ("frac", "higher", "modeled",
                "ops answered OK over ops attempted (errno answers are "
                "the rest)"),
}

CRITPATH_PHASES = ("execution", "wal-append", "write-back", "commit",
                   "lock-wait", "network")

#: Per-layer metrics of the traced run: name -> (unit, meaning).
#: ``*_self_us`` are microseconds of the layer's self time per client op.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.events_per_op": ("1/op", "kernel events per op"),
    "sim.self_us_per_event": ("us", "kernel self time per event"),
    "sim.timer_fires_per_op": ("1/op", "commit-trigger timer fires per op"),
    "net.sends_per_op": ("1/op", "Network.send calls per op"),
    "net.bytes_per_op": ("B/op", "delivered message bytes per op"),
    "net.send_self_us": ("us/op", "Network.send self time per op"),
    "net.dead_letters": ("count", "messages dropped at delivery"),
    "cluster.build_s": ("s", "Cluster.build wall time"),
    "cluster.servers_materialized": ("count", "servers constructed"),
    "cluster.dispatch_self_us": ("us/op",
                                 "server main loop and handler slot self time"),
    "cluster.perform_self_us": ("us/op", "ClientProcess.perform self time"),
    "workloads.gen_s": ("s", "workload generation wall time"),
    "workloads.next_op_self_us": ("us/op", "streaming generator next()"),
    "core.handle_self_us": ("us/op", "CxRole handle/handle_fast self time"),
    "core.lazy_frac": ("frac", "lazy over lazy+immediate commitments"),
    "core.batch_size_mean": ("ops", "ops per commitment batch"),
    "core.conflicts_per_op": ("1/op", "conflicts per op"),
    "core.invalidations": ("count", "disorder invalidations"),
    "core.disagreements": ("count", "L-COM disagreements"),
    "core.votes_deferred": ("count", "deferred votes"),
    "core.votes_lost": ("count", "lost-vote aborts"),
    "core.commit_vt_p99_ms": ("ms", "p99 commitment latency, virtual"),
    "core.queue_depth_max": ("count", "largest lazy commitment queue"),
    "core.recovery_self_s": ("s", "CxRecovery.run self time"),
    "core.recovery_vt_s": ("s", "crash-to-recovered virtual time of server 0"),
    "wal.appends_per_op": ("1/op", "log appends per op"),
    "wal.records_per_sync": ("records", "records per log flush"),
    "wal.blocked_appends": ("count", "appends blocked on log space"),
    "wal.append_self_us": ("us/op", "WriteAheadLog.append self time"),
    "wal.scan_vt_s": ("s", "virtual time of the recovery log scan"),
    "kv.flushes_per_op": ("1/op", "KV store flushes per op"),
    "disk.busy_frac": ("frac", "disk busy virtual time (drain included) "
                               "over servers x replay virtual time"),
    "disk.requests_per_op": ("1/op", "disk requests per op"),
    "disk.seeks_per_op": ("1/op", "disk seeks per op"),
    "fs.execute_self_us": ("us/op", "NamespaceShard.execute self time"),
    "fs.executes_per_op": ("1/op", "sub-op executions per op"),
    "analysis.record_self_us": ("us/op", "metrics collector record_op"),
    **{
        f"critpath.{phase}_share": ("frac", f"{phase} share of op latency")
        for phase in CRITPATH_PHASES
    },
    "trace.overhead_frac": ("frac", "untraced over traced wall ops/s, minus 1"),
}

#: Per-layer metrics where a larger value is the better one.
LAYER_HIGHER_IS_BETTER = frozenset({
    "core.lazy_frac", "core.batch_size_mean", "wal.records_per_sync",
})

#: Layer -> the end-to-end metrics it should move, on which workloads
#: (``*``: every workload).
LAYER_MAP: Dict[str, List[Tuple[str, str]]] = {
    "sim": [("wall_ops_per_s", "mixed-256"), ("wall_ops_per_s", "cth")],
    "net": [("msgs_per_op", "mixed-256"), ("wall_ops_per_s", "mixed-256"),
            ("ok_frac", "recovery")],
    "cluster": [("setup_s", "mixed-256"), ("peak_rss_mb", "mixed-256"),
                ("wall_ops_per_s", "cth")],
    "workloads": [("setup_s", "cth"), ("wall_ops_per_s", "mixed-256")],
    "core": [("vt_p99_ms", "conflict-home2"), ("msgs_per_op", "conflict-home2"),
             ("wal_syncs_per_op", "cth"), ("wall_ops_per_s", "cth")],
    "storage": [("wal_syncs_per_op", "cth"), ("vt_p50_ms", "cth"),
                ("wal_syncs_per_op", "conflict-home2"),
                ("vt_p50_ms", "conflict-home2"), ("vt_ops_per_s", "*")],
    "fs": [("wall_ops_per_s", "cth"), ("vt_p99_ms", "conflict-home2")],
    "analysis": [("wall_ops_per_s", "cth"), ("peak_rss_mb", "cth"),
                 ("wall_ops_per_s", "mixed-256"),
                 ("peak_rss_mb", "mixed-256")],
    "obs": [("vt_p50_ms", "cth"), ("vt_p99_ms", "conflict-home2"),
            ("vt_p99_ms", "mixed-256")],
}

#: Setups timed per run: at least this many, and at least
#: ``MIN_SETUP_SECONDS`` of them in total (extra ones are built and
#: dropped), so a sub-millisecond setup still gets a steady median.
#: Half the extra ones run before the replays and half after, so the
#: median spans the run rather than one moment of the host's load.
MIN_SETUPS = 6
MIN_SETUP_SECONDS = 0.3
MAX_SETUPS = 100

#: 1-in-N op sampling of the critical-path pass.
CRITPATH_SAMPLE = 4


def describe() -> dict:
    """Workload configurations, metric kinds and the layer map."""
    return {
        "workloads": {
            w.name: {"why": w.why, "cells_per_run": w.cells, **w.config}
            for w in WORKLOADS.values()
        },
        "end_to_end": {
            k: {"unit": u, "better": b, "kind": kind, "meaning": m}
            for k, (u, b, kind, m) in END_TO_END.items()
        },
        "per_layer": {
            k: {"unit": u, "meaning": m,
                "better": "higher" if k in LAYER_HIGHER_IS_BETTER else "lower"}
            for k, (u, m) in PER_LAYER.items()
        },
        "layer_map": {
            layer: [{"metric": m, "workload": w} for m, w in moves]
            for layer, moves in LAYER_MAP.items()
        },
    }


def cell_seeds(workload: Workload, seed: int) -> List[int]:
    """The run's cell seeds: disjoint per ``seed``, the first is ``seed``
    times the cell count (so seed 0's first cell is the canonical one)."""
    return [seed * workload.cells + i for i in range(workload.cells)]


def run_cell(workload: Workload, seed: int,
             tracer=None) -> Tuple[Prepared, CellOutcome, float]:
    """Set up and replay one cell; returns it with its setup seconds."""
    with kernel_sprint():
        start = time.perf_counter()
        prep = workload.setup(seed, tracer=tracer)
        setup = time.perf_counter() - start
        out = workload.replay(prep, seed)
    return prep, out, setup


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- end-to-end ------------------------------------------------------------


def modeled_metrics(outcomes: List[CellOutcome]) -> Dict[str, float]:
    """Pool the cells' modeled counters into the modeled metrics."""
    ops = sum(o.attempted for o in outcomes)
    lat = [x for o in outcomes for x in o.latencies]
    ms = 1e3
    return {
        "vt_ops_per_s": sum(o.completed for o in outcomes)
        / sum(o.replay_vt for o in outcomes),
        "vt_p50_ms": mid_quantile(lat, 0.5) * ms,
        "vt_p99_ms": mid_quantile(lat, 0.99) * ms,
        "vt_tail999_ms": tail_mean(lat, 0.999) * ms,
        "msgs_per_op": sum(o.messages for o in outcomes) / ops,
        "wal_syncs_per_op": sum(o.registry.get("wal.syncs", 0)
                                for o in outcomes) / ops,
        "ok_frac": sum(o.ok for o in outcomes) / ops,
    }


def _extra_setups(workload: Workload, seeds: List[int], setups: List[float],
                  scale: float) -> None:
    """Time setup-only passes until ``scale`` of the setup quota is met."""
    while len(setups) < MIN_SETUPS * scale or (
        sum(setups) < MIN_SETUP_SECONDS * scale
        and len(setups) < MAX_SETUPS * scale
    ):
        with kernel_sprint():
            start = time.perf_counter()
            workload.setup(seeds[len(setups) % len(seeds)])
            setups.append(time.perf_counter() - start)


def run_end_to_end(name: str, seed: int, seconds: float) -> dict:
    """Replay the workload's cells, repeating them until ``seconds`` pass.

    The first pass over the cells gives the modeled metrics; every
    repeat must reproduce its cell's modeled counters exactly (the
    determinism gate) and adds a wall-clock sample.
    """
    workload = WORKLOADS[name]
    seeds = cell_seeds(workload, seed)
    first: Dict[int, CellOutcome] = {}
    wall_rates: List[float] = []
    setups: List[float] = []
    lines: List[str] = []
    attempted = failed = 0
    if workload.cells < MIN_SETUPS:
        _extra_setups(workload, seeds, setups, 0.5)
    began = time.perf_counter()
    i = 0
    while True:
        s = seeds[i % len(seeds)]
        cell_start = time.perf_counter()
        prep, out, setup = run_cell(workload, s)
        check_cell(prep, out)
        del prep
        gc.collect()
        setups.append(setup)
        wall_rates.append(out.attempted / out.replay_wall)
        attempted += out.attempted
        failed += out.attempted - out.ok - out.errnos
        if s in first:
            if first[s].modeled_key() != out.modeled_key():
                raise BenchmarkFailure(
                    f"cell seed {s}: modeled counters differ between repeats"
                )
        else:
            first[s] = out
            lines.append(_cell_line(name, out))
        i += 1
        now = time.perf_counter()
        if i >= len(seeds) and now - began + (now - cell_start) > seconds:
            break
    _extra_setups(workload, seeds, setups, 1.0)
    outcomes = [first[s] for s in seeds]
    metrics = {
        "wall_ops_per_s": median(wall_rates),
        "setup_s": median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        **modeled_metrics(outcomes),
    }
    lat = [x for o in outcomes for x in o.latencies]
    lines.append(
        f"{name}: {len(lat)} latency samples pooled; p99.9 "
        f"{mid_quantile(lat, 0.999) * 1e3:.5f} ms (mid-quantile) with "
        f"{tail_samples(len(lat), 0.999)} samples beyond"
    )
    lines.append(
        f"{name}: {i} replays of {len(seeds)} cells; "
        f"wall ops/s per replay {[round(r) for r in wall_rates]}; "
        f"setup s {[round(x, 4) for x in setups]}"
    )
    if name == "recovery":
        lines.append(
            "recovery: crash-to-recovered "
            + ", ".join(f"cell seed {o.seed}: {o.recovery_vt:.6f} virtual s "
                        f"with {o.valid_bytes_at_crash} valid log bytes"
                        for o in outcomes)
        )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "lines": lines,
    }


def _cell_line(name: str, out: CellOutcome) -> str:
    lat = out.latencies
    return (
        f"{name} cell seed {out.seed}: {out.attempted} ops, {out.ok} ok, "
        f"{out.errnos} errno; vt {out.replay_vt:.6f} s "
        f"({out.completed / out.replay_vt:.1f} ops/vs); order-statistic "
        f"p50/p99/p999 {order_quantile(lat, 0.5) * 1e3:.5f}/"
        f"{order_quantile(lat, 0.99) * 1e3:.5f}/"
        f"{order_quantile(lat, 0.999) * 1e3:.5f} ms; "
        f"{out.messages / out.attempted:.4f} msgs/op; "
        f"{out.events / out.attempted:.2f} events/op"
    )


# -- traced per-layer run ------------------------------------------------------


def _merged_histogram(cluster, name: str) -> Histogram:
    merged = Histogram()
    for server in cluster.materialized_servers():
        h = server.metrics._histograms.get(name)
        if h is None or not h.count:
            continue
        merged.count += h.count
        merged.sum += h.sum
        merged.min = min(merged.min, h.min)
        merged.max = max(merged.max, h.max)
        for idx, n in h._buckets.items():
            merged._buckets[idx] = merged._buckets.get(idx, 0) + n
    return merged


def layer_metrics(prep: Prepared, out: CellOutcome,
                  lt: LayerTracer) -> Dict[str, float]:
    cluster = prep.cluster
    reg = out.registry
    ops = out.attempted
    stats = lt.layer_stats()

    def per_op_us(span: str) -> float:
        return stats[span]["self_s"] / ops * 1e6

    lazy = reg.get("commit.lazy_ops", 0)
    immediate = reg.get("commit.immediate_ops", 0)
    batch = reg.get("commit.batch_size", {})
    syncs = reg.get("wal.sync_records", {})
    return {
        "sim.events_per_op": out.events / ops,
        "sim.self_us_per_event":
            stats["sim.run"]["self_s"] / cluster.sim.events_processed * 1e6,
        "sim.timer_fires_per_op": reg.get("trigger.timeout", 0) / ops,
        "net.sends_per_op": stats["net.send"]["calls"] / ops,
        "net.bytes_per_op": out.message_bytes / ops,
        "net.send_self_us": per_op_us("net.send"),
        "net.dead_letters": cluster.network.stats.dead_letters,
        "cluster.build_s": stats["cluster.build"]["total_s"],
        "cluster.servers_materialized": out.servers_materialized,
        "cluster.dispatch_self_us": per_op_us("cluster.dispatch"),
        "cluster.perform_self_us": per_op_us("cluster.perform"),
        "workloads.gen_s": stats["workloads.gen"]["total_s"],
        "workloads.next_op_self_us": per_op_us("workloads.next_op"),
        "core.handle_self_us": per_op_us("core.handle"),
        "core.lazy_frac": lazy / (lazy + immediate) if lazy + immediate else 0.0,
        "core.batch_size_mean": batch.get("mean", 0.0),
        "core.conflicts_per_op": reg.get("conflicts", 0) / ops,
        "core.invalidations": reg.get("disorder.invalidations", 0),
        "core.disagreements": reg.get("disagreements", 0),
        "core.votes_deferred": reg.get("votes.deferred", 0),
        "core.votes_lost": reg.get("votes.lost", 0),
        "core.commit_vt_p99_ms":
            _merged_histogram(cluster, "commit.latency").percentile(99) * 1e3,
        "core.queue_depth_max": reg.get("commit.queue_depth", {}).get("max", 0),
        "core.recovery_self_s": stats["core.recovery"]["self_s"],
        "core.recovery_vt_s": out.recovery_vt,
        "wal.appends_per_op": reg.get("wal.appends", 0) / ops,
        "wal.records_per_sync": syncs.get("mean", 0.0),
        "wal.blocked_appends": reg.get("wal.blocked_appends", 0),
        "wal.append_self_us": per_op_us("wal.append"),
        "wal.scan_vt_s": out.scan_vt,
        "kv.flushes_per_op": out.kv_flushes / ops,
        "disk.busy_frac":
            out.disk_busy_vt / (out.servers_materialized * out.replay_vt),
        "disk.requests_per_op": out.disk_requests / ops,
        "disk.seeks_per_op": out.disk_seeks / ops,
        "fs.execute_self_us": per_op_us("fs.execute"),
        "fs.executes_per_op": stats["fs.execute"]["calls"] / ops,
        "analysis.record_self_us": per_op_us("analysis.record"),
    }


def critpath_shares(workload: Workload, seed: int,
                    reference: CellOutcome) -> Dict[str, float]:
    """Virtual-time critical-path shares from the program's own tracer.

    Host times of this pass are not reported: the tracer inflates them.
    """
    tracer = SamplingTracer(every=CRITPATH_SAMPLE)
    prep, out, _setup = run_cell(workload, seed, tracer=tracer)
    check_cell(prep, out)
    if out.modeled_key() != reference.modeled_key():
        raise BenchmarkFailure("the program's tracer changed modeled counters")
    phases = analyze_trace(tracer, protocol="cx").phase_stats()
    return {f"critpath.{p}_share": phases[p]["share"] for p in CRITPATH_PHASES}


def events_growth(mixed: CellOutcome, reference: CellOutcome) -> Tuple[float, float, float]:
    """How much of mixed-256's extra events/op over ``reference`` the
    commit-trigger timers account for (one kernel event per fire)."""
    ev = mixed.events / mixed.attempted - reference.events / reference.attempted
    fires = (mixed.registry.get("trigger.timeout", 0) / mixed.attempted
             - reference.registry.get("trigger.timeout", 0) / reference.attempted)
    return ev, fires, fires / ev if ev > 0 else float("nan")


def run_traced(name: str, seed: int, spans_path) -> dict:
    """Untraced, wrapped and tracer passes over the run's first cell."""
    workload = WORKLOADS[name]
    s = cell_seeds(workload, seed)[0]
    prep, base, _ = run_cell(workload, s)
    check_cell(prep, base)
    del prep
    gc.collect()

    with LayerTracer() as lt:
        prep, out, _ = run_cell(workload, s)
    check_cell(prep, out)
    if out.modeled_key() != base.modeled_key():
        raise BenchmarkFailure("the layer wrappers changed modeled counters")
    metrics = layer_metrics(prep, out, lt)
    del prep
    gc.collect()
    metrics.update(critpath_shares(workload, s, base))
    metrics["trace.overhead_frac"] = (
        (base.attempted / base.replay_wall) / (out.attempted / out.replay_wall)
        - 1.0
    )
    lines = [_cell_line(name, base)]
    for span, st in lt.layer_stats().items():
        lines.append(
            f"span {span}: {st['calls']} spans, total {st['total_s']:.4f} s, "
            f"self {st['self_s']:.4f} s"
        )
    if name == "mixed-256":
        _p, ref, _ = run_cell(WORKLOADS["cth"], s * WORKLOADS["cth"].cells)
        del _p
        gc.collect()
        ev, fires, share = events_growth(out, ref)
        lines.append(
            f"events/op growth over cth: {ev:+.3f} events/op, of which "
            f"commit-trigger timer fires {fires:+.3f}/op, so timers explain "
            f"{share:.1%} and {1 - share:.1%} stays unexplained by timers"
        )
    lines.append(f"wrote {lt.dump(spans_path)} spans to {spans_path}")
    return {
        "metrics": metrics,
        "attempted": base.attempted + out.attempted,
        "failed": (base.attempted - base.ok - base.errnos)
        + (out.attempted - out.ok - out.errnos),
        "lines": lines,
    }
