"""Benchmark command: one workload, one seed, one JSON result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cth --seed 0 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped,
replaying the workload's cells for at least ``--seconds``; ``--trace 1``
makes the traced per-layer run over the first cell (``--seconds`` is
not used) and writes its spans to
``.perfbench/spans-<workload>-seed<seed>.npz``.  Human-readable lines
(cell details, host, revision) come first; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every correctness and determinism gate passed.

``python3 perfbench/run.py --describe`` prints each workload's
configuration and reason, each metric's unit, direction and kind
(modeled or simulator), and the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from repro.sim import KERNEL_VARIANT

    from perfbench.measure import (
        END_TO_END,
        PER_LAYER,
        describe,
        run_end_to_end,
        run_traced,
    )
    from perfbench.workloads import WORKLOADS, BenchmarkFailure

    if argv is None:
        argv = sys.argv[1:]
    if argv == ["--describe"]:
        print(json.dumps(describe(), indent=2))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(json.dumps({
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "kernel_variant": KERNEL_VARIANT},
        "revision": {"git": _git_revision(), "src_sha256": _source_digest()},
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
    }))
    try:
        if args.trace:
            out_dir = ROOT / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            result = run_traced(args.workload, args.seed, spans_path=spans)
            table = {k: unit for k, (unit, _m) in PER_LAYER.items()}
        else:
            result = run_end_to_end(args.workload, args.seed, args.seconds)
            table = {k: spec[0] for k, spec in END_TO_END.items()}
    except BenchmarkFailure as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        # A gate stops the run where it fails, so the counts are not
        # known: report the run as one failed attempt.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for line in result["lines"]:
        print(line)
    metrics = result["metrics"]
    assert set(metrics) == set(table), set(metrics) ^ set(table)
    kinds = {k: spec[2] for k, spec in END_TO_END.items()}
    for name, value in metrics.items():
        label = kinds.get(name, "layer")
        print(f"{name} = {value!r} {table[name]} [{label}]")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": table[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
