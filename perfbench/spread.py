"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload study-light --seeds 1-10

For every metric of the chosen mode this prints the median over the runs
and the distance between the first and third quartile as a share of that
median, the figure a benchmark's bound has to cover.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument(
        "--seconds", default=str(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    )
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
            "--seconds", args.seconds, "--trace", args.trace,
        ]
        proc = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({name: m["value"] for name, m in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)

    for name in runs[0]:
        values = [run[name] for run in runs]
        middle = statistics.median(values)
        spread = stats.quartile_spread(values) if len(values) > 1 and middle else float("nan")
        print(f"{name:28s} median={middle:<12.6g} spread={spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
