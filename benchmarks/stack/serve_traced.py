#!/usr/bin/env python3
"""Run the simulation service with span tracing installed.

Equivalent to ``python -m repro serve`` except that the layer wrappers
of :mod:`stack.spans` are installed before the server (and so its
worker pool) is created.  Spans go to ``--spans DIR``; the server stops
on SIGINT and saves its remaining spans on the way out::

    python benchmarks/stack/serve_traced.py --spans DIR --port 0 --workers 2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

from stack.spans import Tracer, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()

    tracer = Tracer(args.spans)
    install(tracer)
    from repro.service import create_server

    server = create_server(port=args.port, workers=args.workers)
    print(f"repro service listening on {server.url} (traced)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
