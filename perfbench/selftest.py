"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Checks, in order:
  * the loop counts failures against ops attempted (an op that raises, one whose
    check rejects it, and one whose output changes between cycles or from its
    warm-up output all count);
  * the tail-latency rule on fixed samples;
  * a very short run of every workload, untraced and traced, prints exactly the
    metric names and units of BENCHMARK.json, with no failed op;
  * two identical traced runs give identical count metrics;
  * without the source tree the benchmark exits non-zero and prints no result.
Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SHORT_SECONDS = "1"
COUNTED_SEED = "7"

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_loop_accounting() -> None:
    import run
    from workloads import Op

    state = {"n": 0}

    def changing():
        state["n"] += 1
        return state["n"]

    def boom():
        raise ValueError("planted")

    ops = [
        Op("good", lambda: 1, lambda r: (True, b"same", "")),
        Op("raises", boom, lambda r: (True, b"", "")),
        Op("rejected", lambda: 2, lambda r: (False, b"x", "planted rejection")),
        Op("drifts", changing, lambda r: (True, str(r).encode(), "")),
    ]
    loop = run.run_loop(ops, 0.0, False)
    expect(loop.attempted == 4 and loop.failed == 2, "seconds=0 runs one whole cycle; raise and rejection fail")
    loop = run.run_loop(ops, 0.0, True)
    expect(loop.attempted == 1 and loop.failed == 0, "stop_within_cycle stops after the first op")

    warm = run.warm_up(ops[3:], 0.0)
    loop = run.run_loop(ops[3:], 0.0, False, warm.outputs)
    expect(warm.attempted == 1 and warm.failed == 0 and loop.failed == 1,
           "warm-up runs one op when given no time; a timed op must match its warm-up output")

    # from the second cycle on the drifting op fails too
    ops2 = ops + [Op("slow", lambda: time.sleep(0.05), lambda r: (True, b"", ""))]
    loop = run.run_loop(ops2, 0.2, False)
    cycles = loop.attempted // len(ops2)
    expect(cycles >= 2 and loop.failed == 2 * cycles + (cycles - 1),
           f"fail count against attempted ops over {cycles} cycles ({loop.failed}/{loop.attempted})")
    expect(abs(loop.ops_per_s * loop.wall - (loop.attempted - loop.failed)) < 1e-9,
           "ops_per_s counts only ops that completed correctly")


def check_tail_rule() -> None:
    import run

    value, pct, beyond = run.tail_latency([float(i) for i in range(1, 101)])
    expect((value, pct, beyond) == (90.0, 90.0, 10), "tail of 1..100 is p90 = 90 with 10 beyond")
    value, pct, beyond = run.tail_latency([3.0, 1.0, 2.0])
    expect((value, pct, beyond) == (3.0, 100.0, 0), "tail of fewer than 11 samples is the maximum")


def run_bench(workload: str, seed: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
         "--seconds", SHORT_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def parse_result(proc: subprocess.CompletedProcess, what: str) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{what}: last stdout line is a JSON result (exit {proc.returncode}: {proc.stderr[-300:]})")
        return None
    expect(proc.returncode == 0 and set(result) == RESULT_KEYS, f"{what}: exit 0 with exactly {sorted(RESULT_KEYS)}")
    return result


def check_workloads() -> None:
    wanted = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
              1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    counted: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1, 1):
            what = f"{workload} trace={trace}"
            result = parse_result(run_bench(workload, COUNTED_SEED, trace), what)
            if result is None:
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == wanted[trace], f"{what}: every metric name and unit of BENCHMARK.json")
            expect(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"],
                   f"{what}: {result['failed']} of {result['attempted']} ops failed")
            if trace:
                counted.setdefault(workload, []).append(
                    {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"})
        runs = counted.get(workload, [])
        expect(len(runs) == 2 and runs[0] == runs[1], f"{workload}: count metrics equal in two identical traced runs")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("campaign-random", "1", 0, cwd=bare)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed_result, "without src/ the run exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    check_loop_accounting()
    check_tail_rule()
    check_bare_directory()
    check_workloads()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
