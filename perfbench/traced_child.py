"""Run one treehopf CLI invocation in-process under the span tracer.

Usage: ``python3 perfbench/traced_child.py SUMMARY.json SPANS.bin -- ARGV...``

Behaves like ``python -m treehopf ARGV...`` (same stdout, stderr and exit
code), so the benchmark applies the same correctness checks to traced and
untraced runs.  Treehopf must be importable (``PYTHONPATH=src``).  Writes the
per-layer totals to SUMMARY.json and the raw spans to SPANS.bin.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    summary_path, spans_path, treehopf_argv = argv[0], argv[1], argv[3:]

    import treehopf.cli  # noqa: F401  (loads every treehopf module)

    tracer = Tracer()
    tracer.install()
    tracer.begin_run()
    try:
        result = treehopf.cli.run(treehopf_argv)
    finally:
        tracer.uninstall()
    if result.payload:
        print(result.payload, file=sys.stderr if result.exit_code == 2 else sys.stdout)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.layer_totals(), handle)
    tracer.dump_spans(spans_path)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
