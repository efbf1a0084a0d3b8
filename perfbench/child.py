"""Run one trajcurate command in this fresh process and report how it went.

    python3 child.py SRC RESULT TRACE RUN_ID -- ARGV...

Imports ``trajcurate`` from the source tree SRC, optionally installs the
span tracer, then times ``trajcurate.cli.main(ARGV)`` alone, so interpreter
start-up and imports stay outside the timer. Writes a JSON object to RESULT:
exit code, elapsed seconds, this process's peak RSS and, when traced, the
spans.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    src, result_path, trace, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC RESULT TRACE RUN_ID -- ARGV...")
    sys.path.insert(0, src)
    import trajcurate.cli

    if not Path(trajcurate.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported trajcurate from {trajcurate.cli.__file__}, not from {src}")
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    start, cpu_start = time.perf_counter_ns(), time.process_time_ns()
    rc = trajcurate.cli.main(argv)
    elapsed = (time.perf_counter_ns() - start) / 1e9
    cpu = (time.process_time_ns() - cpu_start) / 1e9
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    Path(result_path).write_text(json.dumps({
        "rc": rc,
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kib / 1024,
        "spans": tracer.spans if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
