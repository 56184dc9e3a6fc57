"""Traced wire server: install the span wrappers, then ``serve``.

``python3 perfbench/launcher.py <snapshot-dir> [serve options...]``
runs ``python -m repro.service serve`` in this process after
:func:`tracer.install`.  Each ``ping`` frame first writes the
cumulative span totals to ``<snapshot-dir>/snap-<n>.json``, so the
client can split the server's spans by phase; the reply follows the
write, so the file is complete once the client has the answer.
"""

import json
import sys

sys.dont_write_bytecode = True

import tracer as tracing  # noqa: E402


def main(argv: list[str]) -> int:
    snapshot_dir, serve_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True

    from repro.service import __main__ as service_cli
    from repro.service.transport.server import ServiceSink

    traced_handle = ServiceSink.handle
    snapshots = [0]

    def handle(sink, frame):
        if isinstance(frame, dict) and frame.get("op") == "ping":
            path = f"{snapshot_dir}/snap-{snapshots[0]}.json"
            with open(path, "w", encoding="utf-8") as out:
                json.dump(tracer.snapshot(), out)
            snapshots[0] += 1
        return traced_handle(sink, frame)

    ServiceSink.handle = handle
    return service_cli.main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
