"""The serving process of the HTTP phase: ``python3 -m bench.server_child ROOT``.

Runs what ``python -m repro serve`` runs without FastAPI — ``build_api`` behind
the stdlib ``FallbackServer`` with the default 2 ms batching window — pinned
here so an installed FastAPI cannot change the measured path.  Prints its port
as one JSON line, then serves until terminated.
"""

from __future__ import annotations

import json
import sys

from bench.spec import add_src_to_path


def main(registry_root: str) -> int:
    add_src_to_path()
    from repro.serving.app import build_api
    from repro.serving.http_fallback import FallbackServer

    server = FallbackServer(build_api(registry_root), host="127.0.0.1", port=0)
    print(json.dumps({"port": server.port}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
