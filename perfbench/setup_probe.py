"""Print the seconds a fresh interpreter spends importing spinctrl and building
one workload's objects, up to its first job's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE
"""

import time

start = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3]).inputs(0)
print(repr(time.perf_counter() - start))
