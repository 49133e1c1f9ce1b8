"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/serve_traced.py SPANS_JSON serve [serve options]``
(with the program's ``src`` on ``PYTHONPATH``).  Runs ``repro.cli.main`` with
the remaining arguments and, when the server shuts down, writes every span
event it recorded to ``SPANS_JSON`` for the benchmark to read.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from repro import cli  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = layers.Recorder()
    layers.install(recorder)
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
