"""Traced child process of the cli-cold workload.

    python3 perfbench/cli_child.py SPANS_PATH SUBCOMMAND [ARG...]

Runs ``elliptica.cli.main`` on the arguments, as ``python -m elliptica.cli``
would, with the benchmark's span wrappers installed, then writes the spans,
counters and verdicts to SPANS_PATH (also when the command fails) and exits
with the command's exit code.  Stdout is the command's own.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import elliptica.cli

    t1 = perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append(["import.elliptica.cli", t0, t1, -1, None])
    tracing.install(tracer)
    try:
        code = tracer.call("cli.main", elliptica.cli.main, argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        Path(spans_path).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
