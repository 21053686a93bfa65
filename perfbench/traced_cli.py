"""Run one sentipipe CLI command with its calls into the package traced.

    python3 perfbench/traced_cli.py SPANS_OUT COMMAND [ARGS...]

Behaves like ``python3 -m sentipipe COMMAND [ARGS...]`` (same output, same
exit code) and also writes the command's spans to SPANS_OUT as JSON lines.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    from sentipipe import cli

    tracer = Tracer(run_id="cli")
    with tracer.instrument():
        code = cli.main(argv)
    tracer.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
