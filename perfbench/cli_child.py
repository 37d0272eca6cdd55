"""Run the syminv CLI in this process with spans recorded.

Usage: ``python cli_child.py SPANS_JSON invert ...`` with the checkout's
``src`` on PYTHONPATH.  The spans, including one for the import of
``syminv.cli``, are written to SPANS_JSON for the parent to adopt.
"""

import sys
import time

import spans

if __name__ == "__main__":
    t0 = time.perf_counter()
    from syminv import cli
    t1 = time.perf_counter()
    tracer = spans.Tracer()
    tracer.spans.append([0, None, None, "cli.import", t0, t1])
    try:
        with spans.Instrumentation(tracer):
            status = cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(status)
