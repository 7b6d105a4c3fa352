"""Traced stand-in for ``python -m interdict``: the same CLI, with spans.

Usage: ``python cli_child.py SPANS_OUT ARG...`` runs ``interdict.cli.main``
on ``ARG...`` with the layer wrappers installed, writes the spans to
``SPANS_OUT`` and exits with the CLI's exit code.
"""

import sys

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.active = True
    sid = tracer.begin("cli.import")
    import interdict.cli
    tracer.end(sid)
    tracer.install()
    sid = tracer.begin("cli.main")
    try:
        return interdict.cli.main(argv)
    finally:
        tracer.end(sid)
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
