"""Start one traced ``neurolock.cli`` command.

Usage: python cli_boot.py TRACE_FILE CLI_ARGS...

Times ``import neurolock.cli`` as the span ``cli.import``, installs the
tracer, runs ``neurolock.cli.main`` with CLI_ARGS, and writes the spans to
TRACE_FILE however the command ends.
"""

import importlib
import sys

from tracer import Tracer, save


def main() -> None:
    trace_file, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.wrap("cli.import", importlib.import_module)("neurolock.cli")
    tracer.install()
    try:
        cli.main(args=args, prog_name="neurolock")
    finally:
        tracer.restore()
        save(tracer.export(), trace_file)


if __name__ == "__main__":
    main()
