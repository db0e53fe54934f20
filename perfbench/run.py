"""elliptica benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-random --seed 1 --seconds 30 --trace 0

``--trace 0`` warms up for ``WARMUP_S`` seconds (ops checked, not timed), then
runs the timed loop untraced for ``--seconds`` seconds (whole cycles, or single
ops where ops are alike) and reports the end-to-end metrics.
``--trace 1`` runs one cycle in which every op runs untraced and then again
with every public library function wrapped in a span (see ``tracing.py``),
and reports the per-layer metrics.  Either way the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
full record with the environment, output digest and failures goes to
``.perfbench_out/``.

The library is imported from ``src/`` of the checkout this file sits in; the
run fails (exit 2, no result line) when that source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PINNED_ENV = {
    "ELLIPTICA_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SAMPLES = 7
WARMUP_S = 1.5
TAIL_BEYOND = 10
IMPORT_PROBE = (
    "import sys, time; n = len(sys.modules); t = time.perf_counter(); import elliptica; "
    "t = time.perf_counter() - t; print(t, len(sys.modules) - n, elliptica.__file__)"
)
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # (op, seconds) per attempted op
    wall: float = 0.0
    failed: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # op key -> sha256 of its output
    _digest: object = field(default_factory=hashlib.sha256)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall

    @property
    def digest(self) -> str:
        """SHA-256 of the output bytes of the first cycle, in op order."""
        return self._digest.hexdigest()

    def add(self, op, attempt: tuple, first_cycle: bool) -> None:
        """Account one attempt; an op also fails when its output bytes differ
        from those of an earlier op with the same key."""
        dt, ok, payload, why = attempt
        self.latencies.append((op, dt))
        if ok:
            if first_cycle:
                self._digest.update(payload)
            h = hashlib.sha256(payload).digest()
            if self.outputs.setdefault(op.key, h) != h:
                ok, why = False, "output bytes differ from this op's earlier output"
        if not ok:
            self.failed += 1
            self.failures.append(f"{op.key}: {why}")


def _schedule(ops, seconds: float, stop_within_cycle: bool, start: float):
    """Yield (cycle, op) until the time is up at an allowed stopping point."""
    for cycle in itertools.count():
        for op in ops:
            yield cycle, op
            if stop_within_cycle and perf_counter() - start >= seconds:
                return
        if perf_counter() - start >= seconds:
            return


def _attempt(op, tracer=None) -> tuple[float, bool, bytes, str]:
    """Run one op (timed) and check it (untimed): (seconds, ok, output, reason)."""
    t0 = perf_counter()
    try:
        result = op.run() if tracer is None else tracer.call("bench.op", op.run)
    except Exception as exc:  # a failing op is data, never the end of the run
        return perf_counter() - t0, False, b"", f"raised {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    try:
        return (dt, *op.check(result))
    except Exception as exc:
        return dt, False, b"", f"check raised {type(exc).__name__}: {exc}"


def run_loop(ops, seconds: float, stop_within_cycle: bool, outputs: dict | None = None) -> LoopResult:
    """Closed loop over the op cycle: each op starts when the previous one ended.

    Runs at least one whole cycle; after ``seconds`` it stops at the next op
    (``stop_within_cycle``) or at the next cycle boundary.  ``outputs`` carries
    the output hashes of earlier loops, so an op must also match those.
    """
    out = LoopResult() if outputs is None else LoopResult(outputs=outputs)
    start = perf_counter()
    for cycle, op in _schedule(ops, seconds, stop_within_cycle, start):
        out.add(op, _attempt(op), cycle == 0)
    out.wall = perf_counter() - start
    return out


def warm_up(ops, seconds: float) -> LoopResult:
    """Ops from the start of the cycle, checked but not timed, until ``seconds``
    have passed (at least one op), so the first timed ops find warm caches."""
    out = LoopResult()
    start = perf_counter()
    for op in itertools.cycle(ops):
        out.add(op, _attempt(op), False)
        if perf_counter() - start >= seconds:
            break
    return out


def tail_latency(lat_ms: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond); with too few samples this is
    the maximum, at percentile 100 with nothing beyond.
    """
    ordered = sorted(lat_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def import_probe() -> tuple[float, int]:
    """Seconds and module count of `import elliptica` in a fresh interpreter."""
    from workloads import spawn

    proc = spawn([sys.executable, "-c", IMPORT_PROBE], ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.decode(errors='replace')}")
    seconds, modules, path = proc.stdout.decode().split()
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"child imported elliptica from {path}, not from {ROOT / 'src'}")
    return float(seconds), int(modules)


def environment(seed: int) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def pkg(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "missing"

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "mpmath": pkg("mpmath"),
        "threads": {key: os.environ.get(key) for key in PINNED_ENV},
        "git_commit": commit,
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def end_to_end(loop: LoopResult, setup: list[float], in_process: bool) -> tuple[dict, dict]:
    lat_ms = [1000.0 * dt for _, dt in loop.latencies]
    tail, pct, beyond = tail_latency(lat_ms)
    metrics = {
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(in_process),
    }
    extra = {"op_tail_percentile": pct, "op_tail_beyond": beyond, "ops": loop.attempted, "timed_wall_s": loop.wall,
             "latencies_ms": [[op.key, 1000.0 * dt] for op, dt in loop.latencies]}
    return metrics, extra


def traced_cli_child(tracer, workdir: Path):
    """cli-cold op runner for traced runs: the child records spans to a file."""
    from workloads import spawn

    calls = itertools.count()

    def run(argv):
        spans = workdir / f"spans-{next(calls)}.json"
        proc = spawn([sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(spans), *argv], ROOT)
        data = json.loads(spans.read_text())
        spans.unlink()
        tracer.adopt(data["spans"], data["counts"], data["verdicts"])
        return proc

    return run


def speedup_2t(batches) -> tuple[float, bool]:
    """Wall of the campaign batches at ELLIPTICA_THREADS=1 over =2, and output equality."""
    import elliptica as E

    walls, outputs = {}, {}
    try:
        for threads in (1, 2):
            os.environ["ELLIPTICA_THREADS"] = str(threads)
            t0 = perf_counter()
            outputs[threads] = [json.dumps(E.verify_landau_probes(*b), sort_keys=True) for b in batches]
            walls[threads] = perf_counter() - t0
    finally:
        os.environ["ELLIPTICA_THREADS"] = PINNED_ENV["ELLIPTICA_THREADS"]
    return walls[1] / walls[2], outputs[1] == outputs[2]


def traced_metrics(workload, ops, seed: int, workdir: Path, import_stats) -> tuple[dict, dict, list]:
    """One cycle with each op run untraced and then traced, back to back.

    Pairing the two runs of an op exposes both to the same machine state, so
    their difference is the tracing overhead.  A traced op must reproduce the
    untraced op's output bytes.  Returns the per-layer metrics, extra record
    fields, and the untraced and traced loop results.
    """
    import tracing
    import workloads as W

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tracer.op = "setup"
        if workload.in_process:
            traced_ops = tracer.call("bench.setup", workload.build, seed, workdir)
        else:
            child = traced_cli_child(tracer, workdir)
            traced_ops = tracer.call("bench.setup", workload.build, seed, workdir, child)
    finally:
        patches.uninstall()
    plain = LoopResult()
    traced = LoopResult(outputs=plain.outputs)
    for idx, (op, traced_op) in enumerate(zip(ops, traced_ops)):
        plain.add(op, _attempt(op), True)
        tracer.op = idx
        patches = tracing.install(tracer)
        try:
            traced.add(traced_op, _attempt(traced_op, tracer), True)
        finally:
            patches.uninstall()
    for loop in (plain, traced):
        loop.wall = sum(dt for _, dt in loop.latencies)

    metrics = tracing.layer_metrics(tracer)
    metrics["import.wall_s"] = statistics.median(s for s, _ in import_stats)
    metrics["import.modules"] = import_stats[0][1]
    groups: dict[str, list[float]] = {}
    for op, dt in plain.latencies:
        if op.group:
            groups.setdefault(op.group, []).append(1000.0 * dt)
    for name in ("constants", "extremal", "check-map", "boundary", "verify-theorem", "report"):
        metrics[f"cli.{name}.wall_ms"] = statistics.median(groups[name]) if name in groups else 0.0
    # a traced CLI child records its own import as a span; the rest of the op is CLI self time
    child_import = {rec[4]: rec[2] - rec[1] for rec in tracer.spans if rec[0] == "import.elliptica.cli"}
    cli_self = [1000.0 * (dt - child_import[i]) for i, (_, dt) in enumerate(traced.latencies) if i in child_import]
    metrics["cli.self_ms"] = statistics.median(cli_self) if cli_self else 0.0
    extra = {}
    metrics["harness.parallel_map.speedup_2t"] = 0.0
    if workload.name == "campaign-random":
        metrics["harness.parallel_map.speedup_2t"], extra["speedup_outputs_identical"] = speedup_2t(
            W.speedup_batches(ops))
    metrics["trace.overhead_pct"] = 100.0 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s
    extra.update({"untraced_ops_per_s": plain.ops_per_s, "traced_ops_per_s": traced.ops_per_s,
                  "modules": tracing.module_table(tracer.spans)})
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.dump()))
    extra["spans_file"] = str(spans_path.relative_to(ROOT))
    return {name: metrics[name] for name in tracing.PER_LAYER}, extra, [plain, traced]


def print_table(title: str, rows) -> None:
    print(f"\n{title}")
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>14.6g}  {unit}")


def print_modules(modules: dict) -> None:
    print("\nper module, traced cycle and set-up (inclusive s counts nested calls once)")
    print(f"  {'module':<12} {'calls':>8} {'inclusive s':>12} {'self s':>10}")
    for name, row in sorted(modules.items()):
        print(f"  {name:<12} {row['calls']:>8} {row['s']:>12.4f} {row['self_s']:>10.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("campaign-random", "sharp-extremals", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "elliptica" / "__init__.py").is_file():
        print(f"error: no elliptica source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import elliptica
    import tracing
    import workloads as W

    if not Path(elliptica.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: elliptica imported from {elliptica.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = W.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup, import_stats = [], []
        for _ in range(SETUP_SAMPLES):
            imp_s, modules = import_probe()
            import_stats.append((imp_s, modules))
            t0 = perf_counter()
            ops = workload.build(args.seed, workdir)
            setup.append(imp_s + perf_counter() - t0)

        if args.trace:
            metrics, extra, loops = traced_metrics(workload, ops, args.seed, workdir, import_stats)
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        else:
            warm = warm_up(ops, WARMUP_S)
            loops = [run_loop(ops, args.seconds, workload.stop_within_cycle, warm.outputs), warm]
            extra, units = {}, END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, e2e_extra = end_to_end(loops[0], setup, workload.in_process)
    if not args.trace:
        metrics = e2e
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    failures = [line for loop in loops for line in loop.failures]
    info = {"workload": args.workload, "trace": args.trace, **environment(args.seed),
            "output_sha256": loops[0].digest, "setup_samples_s": setup, **e2e_extra, **extra,
            "fail_ratio": failed / attempted, "failures": failures}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    rows = [(name, value, END_TO_END[name]) for name, value in e2e.items()]
    rows.append(("fail_ratio", info["fail_ratio"], f"1 ({failed} of {attempted} ops)"))
    print_table(f"end to end ({e2e_extra['ops']} ops, tail = p{e2e_extra['op_tail_percentile']:.4g} "
                f"with {e2e_extra['op_tail_beyond']} beyond)", rows)
    if args.trace:
        print_modules(info["modules"])
        print_table("per layer", [(name, value, units[name]) for name, value in metrics.items()])
    for line in failures[:20]:
        print(f"FAILED {line}")
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, "metrics": metrics}, indent=1))
    print("env " + json.dumps({k: info[k] for k in ("seed", "nproc", "python", "numpy", "scipy", "mpmath",
                                                   "threads", "git_commit", "output_sha256")}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
