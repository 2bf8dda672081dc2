"""Cold set-ups timed in a process of their own, spread over the timed loop.

A set-up (``harness.Run``: plan and build caches cleared, catalog
generation, service start, warm-up reads) lasts 30–150 ms, so set-ups run
back to back all land in one stretch of a shared machine and their median
follows that stretch. :class:`SetupTimer` instead asks a second process
for one set-up between operations of the timed loop, one every
``SETUP_EVERY`` seconds of service time, while the loop waits, and
``setup_s`` is the median of those. The second process
has caches of its own, so its set-ups neither disturb the service under
test nor find its caches warm; it inherits the benchmark's CPU.

The child side reads one line per set-up on standard input and answers
with one JSON line: the set-up's seconds and the warm-up responses that
failed their checks. Run as ``python3 perfbench/setups.py <workload> <seed>``
with the program's ``src`` directory on ``PYTHONPATH`` (``SetupTimer`` sets it).
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Seconds of service time between two timed set-ups.
SETUP_EVERY = 1.0


class SetupTimer:
    """The parent's handle on the set-up process."""

    def __init__(self, workload: str, seed: int):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "setups.py"), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.seconds: list[float] = []
        self.errors: list[str] = []

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"set-up process ended with code {self.proc.wait()}")
        return json.loads(line)

    def ready(self) -> None:
        """Wait until the child has imported the program and primed itself."""
        self._reply()

    def time_one(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        reply = self._reply()
        self.seconds.append(reply["seconds"])
        self.errors += reply["errors"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _set_up(workload_cls, seed: int) -> dict:
    from harness import Run

    gc.collect()
    run = Run(workload_cls, seed)
    run.close()
    return {"seconds": run.setup_seconds, "errors": run.warm_errors}


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    from workloads import WORKLOADS

    # The first set-up in a process also pays the program's lazy imports;
    # it is left out, as it is for the service under test.
    _set_up(WORKLOADS[workload], seed)
    print(json.dumps({}), flush=True)
    for _ in sys.stdin:
        print(json.dumps(_set_up(WORKLOADS[workload], seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
