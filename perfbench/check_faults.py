"""Remote-oracle faults must end as failed calls, never as hangs.

Runs the remote-oracle workload's config once against a refused port and
once against a listener that completes connections but never answers, and
checks that each call fails within RemoteOracle's retry budget (three
attempts of at most 10 s each).  Exits 0 when both behave.

    python3 perfbench/check_faults.py
"""

import socket
import sys
import tempfile
import time
from pathlib import Path

import run

CLIENT_BUDGET_S = 3 * 10.0 + 5.0


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    w = run.WORKLOADS["remote-oracle"]
    work_root = run.HERE / ".work"
    work_root.mkdir(exist_ok=True)
    passed = True
    with tempfile.TemporaryDirectory(dir=work_root) as work, \
            socket.socket() as refused, socket.socket() as stalled:
        refused.bind(("127.0.0.1", 0))  # bound, not listening: connections are refused
        stalled.bind(("127.0.0.1", 0))
        stalled.listen(8)  # the kernel completes connections; nothing reads or answers
        for name, sock in (("refused", refused), ("stalled", stalled)):
            config = Path(work) / f"{name}.cfg"
            endpoint = f"http://127.0.0.1:{sock.getsockname()[1]}/predict"
            run.write_config(w, 0, config, **{"oracle.endpoint": endpoint})
            t0 = time.perf_counter()
            call = run.run_call(w, config, Path(work) / "out.csv", None)
            elapsed = time.perf_counter() - t0
            ok = not call.ok and elapsed < CLIENT_BUDGET_S
            passed &= ok
            print(f"{name}: call {'failed' if not call.ok else 'succeeded'} after {elapsed:.1f} s: "
                  f"{'ok' if ok else 'NOT OK'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
