"""Smoke self-test of the benchmark: ``python3 perfbench/smoke.py``.

Runs every workload at tiny size, untraced and traced, and checks that every
end-to-end and per-layer metric named in ``BENCHMARK.json`` is emitted and
that no sample failed. Takes about a minute; it is not part of the tier-1
test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            label = f"{workload} trace={trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: fail_frac {result['failed']}/{result['attempted']}")
            for metric in expected[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} missing or wrong unit")
            status = "ok" if len(problems) == before else "FAIL"
            print(f"{status} {label}: {result['attempted']} samples")
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
