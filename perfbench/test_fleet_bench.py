#!/usr/bin/env python3
"""Self-test of the fleet benchmark.

    python3 perfbench/test_fleet_bench.py [--bin PATH/TO/fleet_bench]

Without --bin the benchmark is built the way run.py builds it. Checks:
- `--selftest`: a tick-sliced day equals one whole-day Cloud::run call,
  on a small instance of every workload;
- a small instance (`--tiny`) of every workload, in both modes, prints
  every metric BENCHMARK.json names, with its unit, as the last stdout
  line, and every check passes;
- the human-readable table also lists check_fail_ratio.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(binary, *args):
    proc = subprocess.run([str(binary), *args], capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{args}: exit {proc.returncode}\n{proc.stdout}"
                             f"\n{proc.stderr}")
    return proc.stdout


def check_result(stdout, expected, label):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: checks failed\n{stdout}"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in expected], (
        f"{label}: metric names {list(metrics)}")
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got}"
        assert isinstance(got["value"], (int, float)), f"{label}: {got}"
    assert any(line.startswith("check_fail_ratio") for line in lines), label


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin", type=Path)
    args = parser.parse_args()
    binary = args.bin
    if binary is None:
        sys.path.insert(0, str(HERE))
        import run as bench_run
        binary = bench_run.build()

    out = run(binary, "--selftest")
    assert "selftest: ok" in out, out
    print(out.strip())

    for workload in SPEC["workloads"]:
        name = workload["name"]
        for trace, expected in (("0", SPEC["end_to_end"]),
                                ("1", SPEC["per_layer"])):
            label = f"{name} --trace {trace}"
            stdout = run(binary, "--workload", name, "--seed", "5",
                         "--seconds", "0", "--trace", trace, "--tiny")
            check_result(stdout, expected, label)
            if trace == "1" and name != "fleet-day":
                assert "serve bypass:" in stdout and "identical" in stdout
            print(f"{label}: ok")
    print("all fleet benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
