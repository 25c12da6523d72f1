"""``repro serve`` under the benchmark's layer spans.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve ARGS...`` —
installs the span wrappers, runs the same ``repro.cli.main(["serve", ...])``
users run, and writes the recorded spans to SPANS.json once SIGTERM has
drained the server and ``main`` returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_repo_sources  # noqa: E402

use_repo_sources()

import repro.cli  # noqa: E402
from tracing import SpanRecorder, install_layer_spans, install_server_spans  # noqa: E402


def main() -> int:
    spans_out, argv = Path(sys.argv[1]), sys.argv[2:]
    recorder = SpanRecorder()
    install_layer_spans(recorder)
    install_server_spans(recorder)
    code = repro.cli.main(argv)
    recorder.dump(spans_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
