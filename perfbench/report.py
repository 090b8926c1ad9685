"""Print every benchmark metric, by name and unit, for every workload.

    python3 perfbench/report.py [--seed N]

Runs ``run.py`` twice per workload (``--trace 0`` for the end-to-end
metrics, ``--trace 1`` for the per-layer ones) and prints one table: the
metrics of BENCHMARK.json, plus error_rate (failed / attempted runs) and
the CSV sha256 of each workload. Each run lasts BENCHMARK.json's
run_seconds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> tuple:
    """(result line, run record) of one run.py invocation."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(Path(json.loads(lines[0])["record"]).read_text())
    return json.loads(lines[-1]), record


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    rows, digests = [], []
    for workload in (w["name"] for w in SPEC["workloads"]):
        attempted = failed = 0
        for trace in (0, 1):
            result, record = bench(workload, args.seed, trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                rows.append((workload, name, f"{m['value']:.6g}", m["unit"]))
        rows.append((workload, "error_rate", f"{failed / attempted:.6g}",
                     "ratio"))
        digests.append(f"{workload} CSV sha256 {record['csv_sha256']}")
    header = ("workload", "metric", "value", "unit")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(4)]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    print("\n".join(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
