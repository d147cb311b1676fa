"""Traced stand-in for `python -m hilb.cli`.

Usage: launch.py SPAN_FILE TASK_ID CLI_ARG...

Times `import hilb.cli`, wraps every hilb layer, runs hilb.cli.main on the
given arguments and writes the spans to SPAN_FILE when it returns. Stdout
and the exit code are those of the real CLI.
"""

import sys
from time import perf_counter_ns

from spans import Tracer, write


def main() -> int:
    span_file, task_id, *argv = sys.argv[1:]
    t0 = perf_counter_ns()
    import hilb.cli
    import_ns = perf_counter_ns() - t0
    tracer = Tracer()
    tracer.task = int(task_id)
    tracer.install(sys.modules["hilb"])
    try:
        code = hilb.cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code
    finally:
        sys.stdout.flush()
        write(span_file, {"import_ns": import_ns, **tracer.dump()})
    return code


if __name__ == "__main__":
    sys.exit(main())
