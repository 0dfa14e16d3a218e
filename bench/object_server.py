"""The remote workload's object server, run as its own process.

Serves ``repro.sharding.devserver.ObjectHTTPServer`` on a loopback
ephemeral port, prints its base URL as the first line of stdout, and
runs until stdin closes (the benchmark closes it, then waits).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sharding.devserver import ObjectHTTPServer  # noqa: E402


def main() -> int:
    with ObjectHTTPServer() as server:
        print(server.url, flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
