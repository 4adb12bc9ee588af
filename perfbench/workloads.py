"""The four benchmark workloads, driven only through repro's public API.

Every workload is a closed loop: each simulated client process issues
its next operation when the previous one returns (``replay_streams``).
A workload is a list of *cells*; one cell is one fresh cluster, built
(``setup``) and replayed (``replay``) once.  A cell's seed fixes its
inputs, so a cell's modeled counters are a pure function of that seed.

``setup`` returns a :class:`Prepared`; ``replay`` returns a
:class:`CellOutcome` holding the modeled counters and the exact
per-op latencies.  Correctness is checked by :func:`check_cell`.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.consistency import check_namespace_invariants, is_transient
from repro.analysis.metrics import StreamingMetricsCollector
from repro.cluster import Cluster, FailureInjector
from repro.cluster.builder import ROOT_HANDLE
from repro.experiments.common import (
    TRACE_SCALES,
    build_trace_cluster,
    experiment_params,
)
from repro.fs.ops import FileOperation, OpType
from repro.obs.registry import merge_snapshots
from repro.protocols import get_protocol
from repro.workloads import (
    SYNTH_MIXES,
    TRACE_SPECS,
    SynthWorkload,
    TraceWorkload,
    replay_streams,
    replay_streams_with_injection,
)

PROTOCOL = "cx"


class BenchmarkFailure(RuntimeError):
    """A correctness or determinism gate failed; the run is invalid."""


class _ExactStreamingMetrics(StreamingMetricsCollector):
    """Streaming collector that also keeps each op's exact latency.

    The streaming collector's percentiles are log-bucket midpoints; the
    benchmark needs exact samples, at 8 bytes per op instead of one
    ``OpRecord`` object.
    """

    def __init__(self) -> None:
        super().__init__()
        self.latencies = array("d")
        self.errnos = 0

    def record_op(self, op, plan, result, start, end):
        super().record_op(op, plan, result, start, end)
        self.latencies.append(end - start)
        if result.errno is not None:
            self.errnos += 1


@dataclass
class Prepared:
    """A built cluster and its inputs, ready to replay."""

    cluster: Cluster
    streams: object
    #: Ops the streams hold (the inject workload adds probes on top).
    stream_ops: int
    #: Workload-specific extras (the recovery target, the injection p).
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class CellOutcome:
    """What one replayed cell produced."""

    seed: int
    attempted: int
    completed: int
    ok: int
    errnos: int
    replay_vt: float
    replay_wall: float
    messages: int
    message_bytes: int
    events: int
    latencies: array
    #: Merged registry snapshot over the servers that exist.
    registry: dict
    servers_materialized: int
    #: Disk and KV totals over the servers that exist.
    disk_busy_vt: float
    disk_requests: int
    disk_seeks: int
    kv_flushes: int
    #: ``recovery`` only: crash-to-recovered virtual seconds of server 0.
    recovery_vt: float = 0.0
    #: Virtual seconds the log scan of the recovered server costs.
    scan_vt: float = 0.0
    valid_bytes_at_crash: int = 0

    def modeled_key(self) -> tuple:
        """Everything modeled a cell reports; equal across repeats."""
        return (
            self.attempted, self.completed, self.ok, self.errnos,
            self.replay_vt, self.messages, self.message_bytes, self.events,
            self.latencies.tobytes(), self.recovery_vt, self.scan_vt,
            self.valid_bytes_at_crash, self.servers_materialized,
            repr(sorted(self.registry.items())), self.disk_busy_vt,
            self.disk_requests, self.disk_seeks, self.kv_flushes,
        )


# -- shared helpers --------------------------------------------------------


def _latencies_of(cluster: Cluster) -> array:
    metrics = cluster.metrics
    if isinstance(metrics, _ExactStreamingMetrics):
        return metrics.latencies
    return array("d", (r.end - r.start for r in metrics.ops))


def _errnos_of(cluster: Cluster) -> int:
    metrics = cluster.metrics
    if isinstance(metrics, _ExactStreamingMetrics):
        return metrics.errnos
    return sum(1 for r in metrics.ops if r.errno is not None)


def _outcome(prep: Prepared, seed: int, replay_vt: float, wall: float,
             messages: int, message_bytes: int) -> CellOutcome:
    cluster = prep.cluster
    m = cluster.metrics
    servers = cluster.materialized_servers()
    return CellOutcome(
        seed=seed,
        attempted=0,
        completed=m.total_ops,
        ok=m.completed_ok,
        errnos=_errnos_of(cluster),
        replay_vt=replay_vt,
        replay_wall=wall,
        messages=messages,
        message_bytes=message_bytes,
        events=cluster.sim.events_processed,
        latencies=_latencies_of(cluster),
        registry=merge_snapshots(s.metrics for s in servers),
        servers_materialized=len(servers),
        disk_busy_vt=sum(s.disk.stats.busy_time for s in servers),
        disk_requests=sum(s.disk.stats.requests for s in servers),
        disk_seeks=sum(s.disk.stats.seeks for s in servers),
        kv_flushes=sum(s.kv.flush_count for s in servers),
    )


def _violations(cluster: Cluster) -> List[str]:
    # No known_dirs: they excuse only regular inodes without an entry,
    # and the workloads' preloaded dirs are directories, never flagged.
    return [
        str(v) for v in check_namespace_invariants(cluster)
        if not is_transient(v)
    ]


def crash_and_recover(cluster: Cluster, index: int = 0):
    """Crash server ``index``, recover it, and drive until recovered.

    Returns the :class:`~repro.cluster.failure.RecoveryReport`.  Raises
    :class:`BenchmarkFailure` if the queue drains first.
    """
    injector = FailureInjector(cluster)
    injector.crash_server(index)
    proc = injector.recover_server(index)
    sim = cluster.sim
    while not proc.processed:
        if sim.peek() == float("inf"):
            raise BenchmarkFailure(f"recovery of server {index} never completed")
        sim.step()
    return proc.value


def check_cell(prep: Prepared, out: CellOutcome) -> None:
    """The correctness gate: raises :class:`BenchmarkFailure` on any miss.

    * every attempted op completed, and each completed op either
      succeeded or returned an errno (none stuck, none silent);
    * the quiesced namespace (recovered, on ``recovery``) has no
      non-transient violation.
    """
    if out.completed != out.attempted:
        raise BenchmarkFailure(
            f"seed {out.seed}: {out.attempted} ops attempted but "
            f"{out.completed} completed"
        )
    if out.ok + out.errnos != out.attempted:
        raise BenchmarkFailure(
            f"seed {out.seed}: {out.ok} ok + {out.errnos} errno != "
            f"{out.attempted} attempted"
        )
    bad = _violations(prep.cluster)
    if bad:
        raise BenchmarkFailure(
            f"seed {out.seed}: {len(bad)} namespace violations, first: {bad[0]}"
        )


# -- cth: the canonical fig5 CTH cell ----------------------------------------


def _setup_trace(trace: str, seed: int, tracer, scale: Optional[float]) -> Prepared:
    cluster = build_trace_cluster(PROTOCOL, seed=seed, tracer=tracer)
    wl = TraceWorkload(TRACE_SPECS[trace],
                       scale=TRACE_SCALES[trace] if scale is None else scale,
                       seed=seed)
    streams = wl.build(cluster, cluster.all_processes())
    return Prepared(cluster, streams, sum(map(len, streams.values())))


def setup_cth(seed: int, tracer=None, scale: Optional[float] = None) -> Prepared:
    return _setup_trace("CTH", seed, tracer, scale)


def replay_trace(prep: Prepared, seed: int) -> CellOutcome:
    start = time.perf_counter()
    res = replay_streams(prep.cluster, prep.streams)
    wall = time.perf_counter() - start
    out = _outcome(prep, seed, res.replay_time, wall, res.messages,
                   res.message_bytes)
    out.attempted = prep.stream_ops
    return out


# -- mixed-256: the synth mixed mix on 256 lazily built servers --------------

MIXED_OPS = 50_000
MIXED_SERVERS = 256


def setup_mixed(seed: int, tracer=None, total_ops: int = MIXED_OPS) -> Prepared:
    # The ReplayTask(kind="synth") configuration: lazy servers,
    # streaming metrics, 32 machines x 8 processes.
    cluster = Cluster.build(
        num_servers=MIXED_SERVERS,
        num_clients=32,
        protocol=get_protocol(PROTOCOL),
        params=experiment_params(),
        procs_per_client=8,
        seed=seed,
        tracer=tracer,
        lazy_servers=True,
        streaming_metrics=True,
    )
    cluster.metrics = _ExactStreamingMetrics()
    wl = SynthWorkload(SYNTH_MIXES["mixed"], total_ops=total_ops, seed=seed)
    streams = wl.streams(cluster, cluster.all_processes())
    return Prepared(cluster, streams, wl.generated_ops)


def replay_mixed(prep: Prepared, seed: int) -> CellOutcome:
    start = time.perf_counter()
    res = replay_streams(prep.cluster, prep.streams, collect=False)
    wall = time.perf_counter() - start
    out = _outcome(prep, seed, res.replay_time, wall, res.messages,
                   res.message_bytes)
    out.attempted = prep.stream_ops
    return out


# -- conflict-home2: home2 with fig8's injected conflict probes --------------

P_INJECT = 0.12


def setup_home2(seed: int, tracer=None, scale: Optional[float] = None) -> Prepared:
    return _setup_trace("home2", seed, tracer, scale)


def replay_inject(prep: Prepared, seed: int) -> CellOutcome:
    cluster = prep.cluster
    start = time.perf_counter()
    res = replay_streams_with_injection(cluster, prep.streams,
                                        p_inject=P_INJECT, seed=seed)
    wall = time.perf_counter() - start
    out = _outcome(prep, seed, res["replay_time"], wall,
                   int(res["messages"]), cluster.network.stats.total_bytes)
    # The injection runner does not report how many probes it issued.
    # It raises on a stuck op, so every op it issued completed: the
    # probes are the completed ops beyond the streams.
    probes = out.completed - prep.stream_ops
    if probes < 0:
        raise BenchmarkFailure(
            f"seed {seed}: {prep.stream_ops} stream ops but only "
            f"{out.completed} completed"
        )
    out.attempted = prep.stream_ops + probes
    return out


# -- recovery: Table V's fill, crash and recover -----------------------------

RECOVERY_TARGET_KB = 1000
#: Per-feeder op budget: a CREATE appends >= ~100 bytes to the victim's
#: log, so a feeder that passes this is not making progress.
_FEEDER_OP_BUDGET = 200_000


def setup_recovery(seed: int, tracer=None,
                   target_kb: int = RECOVERY_TARGET_KB) -> Prepared:
    params = experiment_params(commit_timeout=None, commit_threshold=None,
                               log_capacity=None)
    cluster = Cluster.build(num_servers=8, num_clients=4,
                            protocol=get_protocol(PROTOCOL), params=params,
                            procs_per_client=8, seed=seed, tracer=tracer)
    d = cluster.preload_dir(ROOT_HANDLE, "recdir")
    return Prepared(cluster, None, 0,
                    extra={"dir": d, "target": target_kb * 1024})


def replay_recovery(prep: Prepared, seed: int) -> CellOutcome:
    """Fill server 0's log with lazy commitment off, crash, recover."""
    cluster = prep.cluster
    sim = cluster.sim
    victim = cluster.servers[0]
    target = prep.extra["target"]
    d = prep.extra["dir"]
    issued = [0]

    def feeder(proc, i):
        serial = 0
        while victim.wal.valid_bytes < target:
            serial += 1
            if serial > _FEEDER_OP_BUDGET:
                raise BenchmarkFailure(f"feeder p{i} made no progress")
            issued[0] += 1
            op = FileOperation(OpType.CREATE, proc.new_op_id(), parent=d,
                               name=f"p{i}-{serial}",
                               target=cluster.placement.allocate_handle())
            yield from proc.perform(op)

    cluster.network.stats.reset()
    runners = [sim.process(feeder(p, i))
               for i, p in enumerate(cluster.all_processes())]
    done = sim.all_of(runners)
    t0 = sim.now
    start = time.perf_counter()
    sim.run_until(done)
    wall = time.perf_counter() - start
    stats = cluster.network.stats
    out = _outcome(prep, seed, sim.now - t0, wall, stats.total,
                   stats.total_bytes)
    out.attempted = issued[0]
    # Crash with the lazy work still in the log, as Table V does.
    scan = victim.wal.scan_cost()
    report = crash_and_recover(cluster)
    cluster.quiesce_protocol()
    out.recovery_vt = report.duration
    out.scan_vt = scan
    out.valid_bytes_at_crash = report.valid_bytes_at_crash
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[..., Prepared]
    replay: Callable[[Prepared, int], CellOutcome]
    #: Distinct cell seeds per run; their modeled counters are pooled.
    cells: int
    config: Dict[str, object]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "cth",
            "canonical fig5 CTH cell (10,080 ops, 8 servers): the lazy, "
            "batched commit path, with trace generation as the setup-heavy "
            "case",
            setup_cth, replay_trace, 12,
            {"trace": "CTH", "scale": TRACE_SCALES["CTH"], "servers": 8,
             "clients": "4x8", "params": "experiment_params()"},
        ),
        Workload(
            "mixed-256",
            "synth mixed mix, 50k ops on 256 lazily built servers: cluster "
            "size, per-server commit timers, fan-out, eager renames and "
            "links",
            setup_mixed, replay_mixed, 1,
            {"mix": "mixed", "total_ops": MIXED_OPS,
             "servers": MIXED_SERVERS, "clients": "32x8",
             "lazy_servers": True, "streaming_metrics": True},
        ),
        Workload(
            "conflict-home2",
            "home2 cell with fig8 conflict probes at p_inject=0.12: immediate "
            "commitment on the critical path, the cth layers used the "
            "opposite way",
            setup_home2, replay_inject, 6,
            {"trace": "home2", "scale": TRACE_SCALES["home2"], "servers": 8,
             "clients": "4x8", "p_inject": P_INJECT},
        ),
        Workload(
            "recovery",
            "Table V: fill server 0's log to ~1000 KB with lazy commitment "
            "off, crash and recover it; the only run of core.recovery and "
            "the WAL scan",
            setup_recovery, replay_recovery, 3,
            {"target_kb": RECOVERY_TARGET_KB, "servers": 8, "clients": "4x8",
             "commit_timeout": None},
        ),
    )
}
