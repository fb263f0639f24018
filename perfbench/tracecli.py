"""Run one mobiusdual CLI command with span tracing, for the traced benchmark run.

    python3 perfbench/tracecli.py SPANS_JSON -- <command> --input SPEC ...

Times the import of ``mobiusdual.cli`` as span ``cli.import``, runs the
command under span ``cli.<command>`` with the library wrapped, and writes
{"exit": code, "spans": [...], "counts": {...}} to SPANS_JSON.  The command's
own output goes to stdout exactly as with ``python -m mobiusdual.cli``.
"""

import json
import sys

from spans import Tracer


def main(argv):
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracecli.py SPANS_JSON -- <command> ...")
    tracer = Tracer()
    with tracer.span("cli.import"):
        import mobiusdual.cli as cli
    tracer.install()
    with tracer.span(f"cli.{cli_args[0]}"):
        code = cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
