"""Run one onefacemaps CLI command with library spans recorded.

Used by traced runs of the cli workload in place of
``python -m onefacemaps.cli``:

    python3 perfbench/cli_shim.py SPANS.json SUBCOMMAND [ARGS...]

The spans of the library calls the command made, and the number of
maps genus-filtered sampling kept, are written to SPANS.json; the exit
code is the command's own.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    from onefacemaps import cli

    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "filtered_kept": tracer.filtered_kept}, fh)


if __name__ == "__main__":
    sys.exit(main())
