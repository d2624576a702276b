"""Run one ``versal`` command with spans recorded around versal's functions.

Usage: ``python3 perfbench/trace_child.py SPANS_OUT ARG...`` runs
``versal ARG...`` through ``versal.cli.main``, writes the spans to
``SPANS_OUT`` as JSON lines and exits with the command's exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from versal import cli
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
