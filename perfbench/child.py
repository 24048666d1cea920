"""One timed CLI process: ``python3 child.py RECORD TRACE SPANS -- ARGV...``.

Imports ``fairalloc.cli`` (timed as set-up), runs ``fairalloc.cli.main(ARGV)``
once, optionally under the layer tracer, and writes a JSON record: the
timings, the CPU time of a reference workload run just before and just after
the CLI call, the peak RSS of this process and, when traced, the per-layer
metrics. The exit code is the CLI's.
"""

import json
import resource
import sys
import time


def reference_cpu_s() -> float:
    """CPU seconds of a fixed piece of interpreter work that does not depend on
    the code under test. The machine is shared and its speed drifts by up to
    a third over tens of seconds; this measures the drift. Its memory use is
    a few kilobytes, so it does not move the peak RSS."""
    start = time.process_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(1_000_000):
        total += i % 7
        table[i & 1023] = total
    return time.process_time() - start


def main() -> int:
    record_path, trace, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RECORD TRACE SPANS -- ARGV...")

    wall0, cpu0 = time.perf_counter(), time.process_time()
    import fairalloc.cli as cli
    setup_wall, setup_cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    reference = reference_cpu_s()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rc = tracer.run(cli.main, argv) if tracer else cli.main(argv)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference += reference_cpu_s()

    record = {
        "rc": rc,
        "setup_wall_s": setup_wall,
        "setup_cpu_s": setup_cpu,
        "main_wall_s": wall,
        "main_cpu_s": cpu,
        "reference_cpu_s": reference,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.uninstall()
        record["per_layer"] = tracer.per_layer()
        tracer.write(spans_path)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
