"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 scjbench/run.py --workload join-highcard --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the traced
variant and prints the per-layer metrics (see ``BENCHMARK.json``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name the workload's metrics as the docs use them and give the run's
metadata.  Traces are written under ``.bench_out/``.

The program under test is imported from ``src/`` of the same checkout.
The run refuses to start (exit code 2, no result) when ``src/`` is
missing or when ``REPRO_KERNEL``, ``REPRO_SANITIZE`` or
``REPRO_RACEDETECT`` is set, because each would measure a different
program than the one users get.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Environment variables that change which program runs.
REFUSED_ENV = ("REPRO_KERNEL", "REPRO_SANITIZE", "REPRO_RACEDETECT")
WORKLOADS = ("join-highcard", "join-lowcard", "join-parallel", "serve-mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="input sizes; 'toy' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"scjbench: {src} holds no repro package; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"scjbench: imported repro from {repro.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"scjbench: refusing to run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    try:
        import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from scjbench.workloads import SIZES, run_workload

    trace_dir = None
    if args.trace:
        trace_dir = ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
    outcome = run_workload(args.workload, args.seed, args.seconds, SIZES[args.size], trace_dir, ROOT)
    for name, value, unit in outcome.report:
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("meta " + json.dumps(outcome.meta, sort_keys=True))
    result = {
        "correct": outcome.failed == 0 and not outcome.meta.get("warmup_mismatch", False),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
