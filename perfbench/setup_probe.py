"""Set-up probe: a fresh interpreter imports hybridlab, parses and validates
the files of one workload, then prints time.monotonic().

    python3 perfbench/setup_probe.py <workload>

run.py subtracts the monotonic time it read just before starting this
process, so the figure covers interpreter start, imports and parsing.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    workloads.setup(sys.argv[1])
    print(repr(time.monotonic()))
