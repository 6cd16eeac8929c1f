"""Run the fluxgrad CLI in-process with the layer tracer installed.

Usage: python clitrace.py TRACE_OUT.json SUBCOMMAND [ARGS...]

Behaves like ``python -m fluxgrad.cli SUBCOMMAND [ARGS...]`` and also
writes the tracer's counts and times to TRACE_OUT.json. The benchmark's
traced cli-cold passes run their CLI children through this file.
"""

import json
import sys

import fluxgrad.cli
import tracing


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    inst = tracing.Installation(tracer)
    try:
        code = tracer.span("cli.main", fluxgrad.cli.main)(argv)
    finally:
        inst.remove()
    with open(out_path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
