"""Run one ``cobord`` CLI command with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS_FILE OP_ID -- ARGS...

Imports the package, installs the tracer, calls ``cobord.cli.main(ARGS)``
and writes the spans to SPANS_FILE at exit.  The exit status is the
command's.
"""

import sys
import time

from tracer import Tracer


def main():
    spans_file, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE OP_ID -- ARGS...")
    start = time.perf_counter()
    import cobord.cli  # noqa: F401  (the timed import)

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.op = int(op_id)
    status = 1
    try:
        status = sys.modules["cobord.cli"].main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file, {"import_s": import_s})
    return status


if __name__ == "__main__":
    sys.exit(main())
