"""Run one quasisym CLI command under the span tracer (the traced ``cli`` pass).

    python cli_child.py SPANS_FILE SPAN_PREFIX SUMMARY_FILE -- CLI_ARGS...

Stdout and the exit code are the CLI's own.  The spans are appended to
SPANS_FILE with ids starting with SPAN_PREFIX; the per-layer totals and
the kernel cache statistics of this process are written to SUMMARY_FILE.
"""

import json
import sys

import workloads  # noqa: F401  (puts the checkout's src first on sys.path)
import quasisym.cli
from tracing import Tracer, kernel_cache_stats


def main() -> int:
    spans, prefix, summary, dash, *argv = sys.argv[1:]
    if dash != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    tracer.install()
    try:
        code = quasisym.cli.main(argv)
    finally:
        tracer.remove()
        sys.stdout.flush()
        totals = tracer.summary()
        totals.update(kernel_cache_stats())
        tracer.write(spans, prefix=prefix)
        with open(summary, "w", encoding="utf-8") as fh:
            json.dump(totals, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
