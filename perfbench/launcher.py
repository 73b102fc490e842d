"""Start ``repro serve`` with the layer wrappers of ``spans.py`` installed.

Usage: ``python3 perfbench/launcher.py SPANS_FILE serve ARGS...``.  The
process layout is the one of ``python3 -m repro serve ARGS...``: the
wrappers are installed, then the normal CLI entry point runs; when the
daemon has drained, the spans are written to SPANS_FILE.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
