"""One pass of an xlma command in a fresh interpreter, as a user runs it.

    python3 cli_pass.py SRC TRACE UNTRACED_WALL_S SPANS_PATH -- ARGV...

Imports xlma from SRC, then times ``xlma.cli.main(ARGV)`` with its output
captured. With TRACE 1 every layer's entry points are wrapped while the
command runs, the spans are written to SPANS_PATH afterwards and the
per-layer metrics (overhead against UNTRACED_WALL_S) are included. Prints one
JSON object: exit code, wall seconds, peak RSS in MB, captured output and,
when traced, the per-layer metrics.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time


def main(argv):
    split = argv.index("--")
    src, trace, untraced_wall_s, spans_path = argv[:split]
    cli_argv = argv[split + 1:]
    sys.path.insert(0, src)
    from xlma import cli

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    def command(args):
        if tracer is None:
            return cli.main(args)
        with tracer.span("cli"):
            return cli.main(args)

    gc.collect()
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            code = command(cli_argv)
            wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "code": code,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "output": captured.getvalue(),
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        result["layers"] = tracing.layer_metrics(tracer, wall_s, float(untraced_wall_s))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
