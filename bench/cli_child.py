"""Run one auxfield CLI command with span wrappers installed.

Usage: python cli_child.py SPANS_JSON [auxfield CLI arguments ...]

Behaves like ``python -m auxfield.cli`` (same stdout, same exit code) and
writes the spans it recorded to SPANS_JSON for the traced cli_cold run to
merge. Timestamps come from CLOCK_MONOTONIC, which all processes share.
"""
import json
import sys
from dataclasses import asdict

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from auxfield import cli

    tracer = spans.Tracer()
    tracer.install(spans.layer_modules())
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump([asdict(span) for span in tracer.spans], fh)


if __name__ == "__main__":
    sys.exit(main())
