"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload battle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the ``src/`` tree is imported
from there; nothing needs to be installed).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones; ``--workload all``
runs every workload in turn and prints a table.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 412, "failed": 0,
     "metrics": {"tick_ms_p50": {"value": 291.3, "unit": "ms"}, ...}}

Exit status: 0 on success, 1 when the correctness gate fails (the JSON
line then says ``"correct": false`` and carries no metrics), 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("battle", "battle-ops")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; exit 2 without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _declared_metrics(trace: bool) -> set[str] | None:
    """Metric names BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _log(message: str) -> None:
    print(message, flush=True)


def run_one(args) -> int:
    _import_program()
    import workloads

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        metrics, rec = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), out_dir, _log
        )
    except workloads.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    declared = _declared_metrics(bool(args.trace))
    if declared is not None and declared != set(metrics):
        raise SystemExit(
            f"run.py: metrics {sorted(set(metrics) ^ declared)} disagree "
            "with BENCHMARK.json"
        )
    for name, (value, unit) in metrics.items():
        _log(f"  {name:34s} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": sum(rec.attempted.values()),
                "failed": sum(rec.failed.values()),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0


def run_all(args) -> int:
    """Run every workload in its own process (``peak_rss_mb`` is per
    process) and print the metrics side by side."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = status or proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"{'metric':36s}" + "".join(f"{w:>18s}" for w in results))
    for metric in names:
        cells = []
        for result in results.values():
            entry = result["metrics"].get(metric)
            cells.append(f"{entry['value']:>14.3f} {entry['unit']:<3s}" if entry else " " * 18)
        print(f"{metric:36s}" + "".join(cells))
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[*WORKLOADS, "all"],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
