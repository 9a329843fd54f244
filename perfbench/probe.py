"""Set-up probe: one fresh interpreter taken from start to ready.

Ready means ``hopctx`` is imported the way the CLI imports it, the workload's
config file is parsed and validated, and for a remote-oracle config the
loopback server has answered its first request.  Prints one JSON line with
the ``time.monotonic()`` reading at ready and the phase times, then stops the
server.  ``run.py`` starts it and takes ready minus its own reading before
the start as the set-up time.

    PYTHONPATH=src python3 perfbench/probe.py CONFIG_FILE
"""

import json
import sys
import time
from pathlib import Path


def main(config_path: str) -> int:
    t0 = time.perf_counter()
    from hopctx import cli, experiments  # noqa: F401  (cli: the import users pay)
    t1 = time.perf_counter()
    mapping = experiments.parse_config_text(Path(config_path).read_text())
    config = experiments.ExperimentConfig.from_mapping(mapping)
    t2 = time.perf_counter()
    server = None
    if config.oracle_kind == "remote":
        from loopback import LoopbackServer

        server = LoopbackServer(config)
        mapping["oracle.endpoint"] = server.endpoint
        experiments.ExperimentConfig.from_mapping(mapping)
    ready = time.monotonic()
    t3 = time.perf_counter()
    if server is not None:
        server.close()
    print(json.dumps({"ready": ready, "import_s": t1 - t0, "config_s": t2 - t1, "server_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
