"""Time one fresh-process set-up: import jsrelax and build a workload's inputs.

    python3 perfbench/probe_setup.py WORKLOAD SEED WORKDIR

Prints the seconds from before `import jsrelax` to the inputs being built.
perfbench/run.py starts several of these and reports their median as setup_s.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import jsrelax  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - start)
