"""Run one flatcheck command line in a fresh interpreter and report its timing.

Usage: python3 worker.py OP_ID RESULT_JSON SPANS_JSONL|- [flatcheck arguments...]

Set-up ends when `flatcheck.cli` has been imported, which is what the
`flatcheck` console script needs before it can do anything.  With a spans
path the outside-in tracer is installed after set-up and its spans are
written there as JSONL when the command returns.  Without flatcheck
arguments the worker is a set-up probe and runs no command.  Times are
taken on the monotonic clock, which on Linux is shared by all processes,
so the parent can subtract its own spawn time.
"""

import json
import resource
import sys
import time


def main():
    op_id, result_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    from flatcheck import cli

    imported = time.monotonic()
    tracer = None
    if spans_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer(op_id)
        tracer.install()
    started = time.monotonic()
    rc = cli.main(argv) if argv else 0
    ended = time.monotonic()
    result = {"imported": imported, "started": started, "ended": ended, "rc": rc}
    if tracer is not None:
        tracer.dump(spans_path)
        result["trace_overhead_s"] = tracer.overhead + (started - imported)
        result["trace_overhead_s"] += time.monotonic() - ended
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        result["finished"] = time.monotonic()
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
