"""One airsync CLI invocation, as the benchmark's child process.

Usage: python3 child.py SRC_DIR RECORD_PATH RUN_ID TRACE -- CLI_ARGS...

Imports ``airsync`` from SRC_DIR (and refuses any other copy), then calls
``airsync.cli.main(CLI_ARGS)``, which is what the ``airsync`` console script
runs. Without tracing, the only hook is a marker on the first
``run_scenario`` call, which ends the set-up interval, and a count of the
events each run dispatched. With TRACE=1 the span
hooks from ``hooks.py`` are installed too. RECORD_PATH receives the
marker time (CLOCK_MONOTONIC, comparable with the parent's clock) and, when
traced, the spans; both are written after the CLI returns.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src_dir, record_path, run_id, traced, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        print("usage: child.py SRC_DIR RECORD_PATH RUN_ID TRACE -- CLI_ARGS...", file=sys.stderr)
        return 2
    src = Path(src_dir).resolve()
    sys.path.insert(0, str(src))
    import airsync.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"child: imported airsync from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if traced == "1":
        import hooks

        tracer = hooks.Tracer(int(run_id))
        hooks.install(tracer)

    sim_started: list[float] = []
    dispatched: list[int] = []
    run_scenario = cli.run_scenario

    def marked(*args, **kwargs):
        if not sim_started:
            sim_started.append(time.monotonic())
        trace = run_scenario(*args, **kwargs)
        dispatched.append(getattr(trace, "dispatched", 0))
        return trace

    cli.run_scenario = marked
    code = cli.main(cli_args)

    record = Path(record_path)
    marker = {"sim_started": sim_started[0] if sim_started else None,
              "dispatched": sum(dispatched), "exit": code}
    record.with_suffix(".json").write_text(json.dumps(marker), encoding="utf-8")
    if tracer is not None:
        tracer.write(record.with_suffix(".spans"))
    return code


if __name__ == "__main__":
    sys.exit(main())
