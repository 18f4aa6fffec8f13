"""Start ``repro.cli serve`` with the benchmark's boundary spans installed.

Usage: ``serve_traced.py SPAN_FILE [serve options...]``.  The serve verb
stops on SIGTERM; its spans are then written to ``SPAN_FILE``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list) -> int:
    from layers import BOUNDARIES
    from spans import Tracer, dump_spans, install

    span_path, *serve_args = argv
    tracer = Tracer()
    install(tracer, BOUNDARIES)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        dump_spans(tracer.spans, span_path)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    raise SystemExit(main(sys.argv[1:]))
