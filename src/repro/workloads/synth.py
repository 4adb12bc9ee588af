"""Streaming synthetic workloads for the scale experiment family.

The paper's trace replayer (:mod:`repro.workloads.traces`) materializes
every :class:`FileOperation` up front — fine at ~10k ops, hopeless at a
million per cell.  This module generates operations *incrementally*:
each client process gets a Python generator that yields the next
operation when the closed-loop replay asks for it, holding only O(1)
state (a bounded live-file pool, a name serial, an RNG) no matter how
long the stream is.

The workload shapes come from the production systems PAPERS.md
describes on top of the same cross-server-metadata problem:

* **small-file floods** (FalconFS: deep-learning pipelines) — create
  -heavy mixes pounding a Zipf-skewed set of hot directories;
* **rename storms** (CFS: container platforms) — rename-dominated
  mixes shuffling entries between hot directories, which every
  protocol must run as eager two-shard transactions;
* a **tunable cross-server fraction** — creates pre-place the new
  inode's home server to match or differ from the dirent's hash
  server, so the cx-vs-ofs sensitivity axis is a knob instead of a
  trace accident.

Determinism: every process stream is a pure function of
``(spec, seed, process index)`` plus the cluster's placement hash —
never of cluster *state* or replay timing.  Handles are minted
arithmetically from a per-process serial (no shared allocator), so the
same seed yields byte-identical streams across runs, ``--jobs`` worker
counts, and protocols.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from repro.cluster.builder import ROOT_HANDLE
from repro.fs.ops import FileOperation, OpType

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.client import ClientProcess

#: Handle serials minted by process ``p`` start at ``(p+1) << 36`` —
#: far above anything the placement allocator (used only for the small
#: preloaded namespace) hands out, and disjoint between processes, so
#: streams never coordinate through a shared counter.
_HANDLE_BASE = 1 << 36

#: Op types the generator knows how to stream.
_SUPPORTED_OPS = frozenset(
    {
        OpType.CREATE,
        OpType.REMOVE,
        OpType.UNLINK,
        OpType.LINK,
        OpType.RENAME,
        OpType.STAT,
        OpType.LOOKUP,
        OpType.SETATTR,
        OpType.READDIR,
    }
)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic scale workload."""

    name: str
    #: op type -> probability; must sum to 1.
    op_mix: Dict[OpType, float]
    #: Zipf exponent of the hot-directory popularity ranking (higher =
    #: more skew; ~1.0-1.3 matches published namespace studies).
    zipf_s: float = 1.1
    #: Number of shared hot directories.
    hot_dirs: int = 64
    #: Probability that an op targets the hot set (vs the process's
    #: private home directory).
    p_hot: float = 0.8
    #: Target fraction of creates whose inode is forced onto a server
    #: other than the dirent's hash server (the cross-server knob).
    cross_frac: float = 0.5
    #: Max live files a process tracks (bounds generator memory).
    pool_cap: int = 128
    #: Preloaded files per hot directory (shared read/link targets).
    seed_files: int = 4

    def __post_init__(self) -> None:
        total = sum(self.op_mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"op mix sums to {total}, expected 1.0")
        unsupported = set(self.op_mix) - _SUPPORTED_OPS
        if unsupported:
            raise ValueError(f"unsupported synth op types: {unsupported}")
        if not 0.0 <= self.cross_frac <= 1.0:
            raise ValueError("cross_frac must be in [0, 1]")
        if self.hot_dirs < 1 or self.pool_cap < 1:
            raise ValueError("hot_dirs and pool_cap must be >= 1")


#: The scale family's named mixes.
SYNTH_MIXES: Dict[str, SynthSpec] = {
    # FalconFS-style deep-learning pipeline: small-file flood over a
    # skewed directory set, create-dominated.
    "flood": SynthSpec(
        name="flood",
        op_mix={
            OpType.CREATE: 0.50,
            OpType.REMOVE: 0.15,
            OpType.STAT: 0.15,
            OpType.LOOKUP: 0.12,
            OpType.SETATTR: 0.08,
        },
        zipf_s=1.2,
        p_hot=0.9,
        cross_frac=0.5,
    ),
    # CFS-style container platform: rename-heavy, highly concurrent
    # namespace churn between hot directories.
    "rename-storm": SynthSpec(
        name="rename-storm",
        op_mix={
            OpType.RENAME: 0.40,
            OpType.CREATE: 0.20,
            OpType.LOOKUP: 0.20,
            OpType.STAT: 0.12,
            OpType.REMOVE: 0.08,
        },
        zipf_s=1.1,
        p_hot=0.85,
        cross_frac=0.5,
    ),
    # General-purpose mix used by the cross-server sensitivity sweep.
    "mixed": SynthSpec(
        name="mixed",
        op_mix={
            OpType.CREATE: 0.28,
            OpType.REMOVE: 0.10,
            OpType.LINK: 0.05,
            OpType.RENAME: 0.07,
            OpType.STAT: 0.22,
            OpType.LOOKUP: 0.18,
            OpType.SETATTR: 0.06,
            OpType.READDIR: 0.04,
        },
        zipf_s=1.1,
        p_hot=0.75,
        cross_frac=0.5,
    ),
}


class SynthWorkload:
    """Streaming generator: bounded namespace setup + per-process op streams.

    ``setup`` cost is O(hot_dirs + processes) — independent of
    ``total_ops`` — and on a ``lazy_servers`` cluster it materializes
    only the servers the preloaded entries hash to.  ``streams``
    returns one generator per process; nothing is materialized.
    """

    def __init__(
        self,
        spec: SynthSpec,
        total_ops: int,
        seed: int = 0,
        cross_frac: float | None = None,
        zipf_s: float | None = None,
        hot_dirs: int | None = None,
    ) -> None:
        if total_ops < 1:
            raise ValueError("total_ops must be >= 1")
        overrides = {}
        if cross_frac is not None:
            overrides["cross_frac"] = cross_frac
        if zipf_s is not None:
            overrides["zipf_s"] = zipf_s
        if hot_dirs is not None:
            overrides["hot_dirs"] = hot_dirs
        self.spec = replace(spec, **overrides) if overrides else spec
        self.total_ops_requested = total_ops
        self.seed = seed
        #: Filled by :meth:`setup`.
        self.hot: List[int] = []
        self.shared: List[Tuple[int, str, int]] = []
        self._homes: List[int] = []
        self._cum: List[float] = []
        #: Ops actually generated (``per_proc * nproc``), set by
        #: :meth:`streams`.
        self.generated_ops = 0

    # -- namespace setup (O(dirs + processes), not O(ops)) -----------------

    def setup(self, cluster: "Cluster", processes: List["ClientProcess"]) -> None:
        """Preload the fixed namespace: hot dirs, seed files, homes."""
        spec = self.spec
        self.hot = []
        self.shared = []
        self._homes = []
        for i in range(spec.hot_dirs):
            d = cluster.preload_dir(ROOT_HANDLE, f"{spec.name}-hot{i}")
            self.hot.append(d)
            for j in range(spec.seed_files):
                name = f"seed{j}"
                handle = cluster.preload_file(d, name)
                self.shared.append((d, name, handle))
        for i, _p in enumerate(processes):
            self._homes.append(
                cluster.preload_dir(ROOT_HANDLE, f"{spec.name}-home{i}")
            )
        # Zipf CDF over the hot-directory ranking, sampled by bisect.
        weights = [1.0 / ((k + 1) ** spec.zipf_s) for k in range(spec.hot_dirs)]
        total = sum(weights)
        acc = 0.0
        cum = []
        for w in weights:
            acc += w
            cum.append(acc / total)
        cum[-1] = 1.0
        self._cum = cum

    # -- streams -----------------------------------------------------------

    def per_process_ops(self, num_processes: int) -> int:
        return max(1, self.total_ops_requested // num_processes)

    def streams(
        self, cluster: "Cluster", processes: List["ClientProcess"]
    ) -> Dict["ClientProcess", Iterator[FileOperation]]:
        """Set up the namespace and return one lazy op stream per process."""
        self.setup(cluster, processes)
        per_proc = self.per_process_ops(len(processes))
        self.generated_ops = per_proc * len(processes)
        return {
            p: self._stream(cluster, p, i, per_proc)
            for i, p in enumerate(processes)
        }

    def _stream(
        self,
        cluster: "Cluster",
        proc: "ClientProcess",
        pidx: int,
        count: int,
    ) -> Iterator[FileOperation]:
        """One process's op generator: O(1) state, never materialized.

        Pure function of ``(spec, seed, pidx)`` and the placement hash;
        the RNG is seeded from a string, which CPython hashes with
        sha512 — stable across interpreters and ``PYTHONHASHSEED``.
        """
        spec = self.spec
        placement = cluster.placement
        nsrv = placement.num_servers
        rng = random.Random(f"synth:{spec.name}:{self.seed}:{pidx}")
        rand = rng.random
        randrange = rng.randrange
        cum = self._cum
        hot = self.hot
        shared = self.shared
        home = self._homes[pidx]
        p_hot = spec.p_hot
        cross_frac = spec.cross_frac
        pool_cap = spec.pool_cap
        mix_types = list(spec.op_mix.keys())
        acc = 0.0
        mix_cum = []
        for w in spec.op_mix.values():
            acc += w
            mix_cum.append(acc)
        mix_cum[-1] = 1.0

        #: Bounded live-file pool: (parent, name, handle).  A create at
        #: capacity overwrites a random slot (the evicted file stays in
        #: the namespace, the generator just stops tracking it).
        files: List[Tuple[int, str, int]] = []
        serial = 0

        def hot_dir() -> int:
            return hot[bisect_left(cum, rand())]

        def pick_parent() -> int:
            return hot_dir() if rand() < p_hot else home

        def pick_ref() -> Tuple[int, str, int]:
            """A file to read/link: the shared hot pool or our own."""
            if not files or rand() < p_hot:
                return shared[randrange(len(shared))]
            return files[randrange(len(files))]

        def gen_create() -> FileOperation:
            nonlocal serial
            serial += 1
            parent = pick_parent()
            name = f"p{pidx}-{serial}"
            dsrv = placement.dirent_server(parent, name)
            if nsrv > 1 and rand() < cross_frac:
                # Force the inode off the dirent's server: this create
                # WILL split across two servers (Table I).
                server = (dsrv + 1 + randrange(nsrv - 1)) % nsrv
            else:
                server = dsrv
            serial_handle = _HANDLE_BASE * (pidx + 1) + serial
            handle = serial_handle * nsrv + server
            ref = (parent, name, handle)
            if len(files) >= pool_cap:
                files[randrange(pool_cap)] = ref
            else:
                files.append(ref)
            return FileOperation(
                OpType.CREATE, proc.new_op_id(),
                parent=parent, name=name, target=handle,
            )

        for _ in range(count):
            op_type = mix_types[bisect_left(mix_cum, rand())]

            if op_type is OpType.CREATE:
                yield gen_create()

            elif op_type is OpType.REMOVE or op_type is OpType.UNLINK:
                if not files:
                    yield gen_create()
                    continue
                parent, name, handle = files.pop(randrange(len(files)))
                yield FileOperation(
                    op_type, proc.new_op_id(),
                    parent=parent, name=name, target=handle,
                )

            elif op_type is OpType.RENAME:
                if not files:
                    yield gen_create()
                    continue
                i = randrange(len(files))
                parent, name, handle = files[i]
                serial += 1
                new_parent = pick_parent()
                new_name = f"p{pidx}-r{serial}"
                files[i] = (new_parent, new_name, handle)
                yield FileOperation(
                    OpType.RENAME, proc.new_op_id(),
                    parent=parent, name=name, target=handle,
                    new_parent=new_parent, new_name=new_name,
                )

            elif op_type is OpType.LINK:
                _p, _n, handle = pick_ref()
                serial += 1
                parent = pick_parent()
                name = f"p{pidx}-l{serial}"
                ref = (parent, name, handle)
                if len(files) >= pool_cap:
                    files[randrange(pool_cap)] = ref
                else:
                    files.append(ref)
                yield FileOperation(
                    OpType.LINK, proc.new_op_id(),
                    parent=parent, name=name, target=handle,
                )

            elif op_type is OpType.STAT or op_type is OpType.SETATTR:
                _p, _n, handle = pick_ref()
                yield FileOperation(op_type, proc.new_op_id(), target=handle)

            elif op_type is OpType.LOOKUP:
                parent, name, _h = pick_ref()
                yield FileOperation(
                    OpType.LOOKUP, proc.new_op_id(), parent=parent, name=name
                )

            else:  # READDIR — validated supported set makes this exhaustive
                yield FileOperation(
                    OpType.READDIR, proc.new_op_id(), parent=hot_dir()
                )


def op_fingerprint(op: FileOperation) -> tuple:
    """A stable, comparable identity of one generated operation."""
    return (
        op.op_type.value, op.op_id, op.parent, op.name, op.target,
        op.new_parent, op.new_name,
    )
