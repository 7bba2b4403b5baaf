#!/usr/bin/env python3
"""The bytes-to-answers benchmark: one command, from outside the program.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py [--seed 11] [--workload NAME ...] [--out perf/out/result.json]

Each workload runs in a fresh child process (``perf/worker.py``,
``PYTHONHASHSEED=0``, one load-generating thread).  Every metric is printed
as ``workload metric value unit``; the result JSON and, for traced runs, one
span file per workload go under ``perf/out/``.  The last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` — and the exit code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
#: per-layer metrics with no measurement (not applicable to the workload, or
#: their probe's symbol is gone) read -1 on the last line; the result file
#: keeps them as null, with the reason under ``probes_unavailable``
NO_MEASUREMENT = -1.0


def environment_stamp(seed: int, first_result: dict) -> dict:
    def git(*arguments: str) -> str:
        try:
            return subprocess.run(
                ["git", *arguments], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = git("rev-parse", "HEAD")
    return {
        "python": first_result["python"],
        "numpy": first_result["numpy"],
        "cpu_model": cpu_model or platform.processor(),
        "nproc": os.cpu_count(),
        "commit": commit or None,
        "dirty": bool(git("status", "--porcelain")) if commit else None,
        "seed": seed,
        "argv": sys.argv[1:],
    }


def run_worker(workload: str, args: argparse.Namespace, out_dir: Path) -> dict:
    """Measure one workload in a child process and return its result."""
    environment = dict(os.environ, PYTHONHASHSEED="0")
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + [p for p in (os.environ.get("PYTHONPATH"),) if p]
    )
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        result_file = Path(scratch) / "result.json"
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", str(args.scale), "--result", str(result_file),
        ]
        if args.trace:
            command += ["--trace-file", str(out_dir / f"trace_{workload}.jsonl")]
        if args.inject_wrong_answer:
            command.append("--inject-wrong-answer")
        child = subprocess.Popen(command, env=environment)
        try:
            code = child.wait()
        except BaseException:
            child.kill()
            child.wait()
            raise
        if code != 0:
            raise SystemExit(f"perf/worker.py failed on {workload} (exit code {code})")
        return json.loads(result_file.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced round and the per-layer probes")
    parser.add_argument("--out", default=str(HERE / "out" / "result.json"))
    parser.add_argument("--scale", type=float, default=1.0, help="document size factor (tests only)")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt one logged reply, to see the checker count it (tests only)")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: the program under test is missing ({SOURCE}/repro)", file=sys.stderr)
        return 2
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    names: List[str] = args.workload or declared
    for name in names:
        if name not in declared:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(declared)}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    results: Dict[str, dict] = {}
    for name in names:
        result = results[name] = run_worker(name, args, out.parent)
        for group in ("end_to_end", "per_layer"):
            for metric, entry in result[group].items():
                value = "null" if entry["value"] is None else repr(entry["value"])
                print(f"{name} {metric} {value} {entry['unit']}")
        for failure in result["failures"]:
            print(f"{name} FAILED {failure}", file=sys.stderr)
    out.write_text(json.dumps(
        {"environment": environment_stamp(args.seed, results[names[0]]), "workloads": results},
        indent=1
    ))

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, entry in result[group].items():
            value = NO_MEASUREMENT if entry["value"] is None else entry["value"]
            metrics[prefix + metric] = {"value": value, "unit": entry["unit"]}
    failed = sum(result["failed"] for result in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
