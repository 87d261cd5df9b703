"""Host a ``ServeDaemon`` with the daemon-side layer wrappers installed.

The traced twin of ``repro-serve run --host 127.0.0.1 --port 0
--obs-port 0 --endpoints-file PATH``: same config (the CLI's defaults),
same endpoints file, same SIGTERM drain.  On exit it writes the
per-layer totals as JSON to ``--layers-out`` and the spans beside it.

    python3 perfbench/serve_host.py --endpoints-file E.json --layers-out L.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import prepare_process  # noqa: E402
from tracing import Patches, Recorder  # noqa: E402


async def serve(endpoints_file: str, recorder: Recorder) -> None:
    from repro.net.frames import DedupIndex, Message
    from repro.serve.daemon import ServeConfig, ServeDaemon
    from repro.serve.groups import BarrierGroup

    with Patches(recorder) as patches:
        patches.wrap(Message, "from_bytes", "serve.daemon.decode")
        patches.wrap(DedupIndex, "accept", "serve.daemon.dedup")
        patches.wrap(BarrierGroup, "offer", "serve.groups.offer")
        patches.wrap(BarrierGroup, "dispatch", "serve.groups.dispatch")
        daemon = ServeDaemon(ServeConfig(host="127.0.0.1", port=0, obs_port=0))
        await daemon.start()
        daemon.write_endpoints(endpoints_file)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        await daemon.shutdown()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--endpoints-file", required=True)
    parser.add_argument("--layers-out", required=True)
    args = parser.parse_args()
    prepare_process()
    recorder = Recorder()
    asyncio.run(serve(args.endpoints_file, recorder))
    out = Path(args.layers_out)
    recorder.dump(out.with_suffix(".spans.jsonl"))
    out.write_text(json.dumps(recorder.totals))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
