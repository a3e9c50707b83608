"""One benchmark round in a fresh interpreter.

    python3 perfbench/child.py MODE SRC RESULT SPANS [normeval args...]

Times ``import normeval.cli`` from SRC (the set-up time), then, unless
MODE is ``import``, calls ``normeval.cli.main`` on the remaining
arguments and times it. MODE ``trace`` installs the per-layer tracer
first and writes its spans to SPANS. The measurements go to RESULT as
JSON. Only ``sys`` and ``time`` are imported before the timed import,
so the program pays for every module it needs itself.
"""

import sys
import time


def main() -> int:
    mode, src, result_path, spans_path, *argv = sys.argv[1:]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import normeval.cli as cli

    result = {"setup_s": time.perf_counter() - start}
    import json

    if mode != "import":
        import resource

        tracer = None
        if mode == "trace":
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        before = _cpu_s(resource)
        start = time.perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.span("cli.main", lambda: cli.main(argv))
        result["run_s"] = time.perf_counter() - start
        result["cpu_s"] = _cpu_s(resource) - before
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["self_times"] = tracer.self_times()
            tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _cpu_s(resource) -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


if __name__ == "__main__":
    sys.exit(main())
