"""Set-up of one workload in a fresh interpreter, timed by run.py.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports rmaccess and builds the workload's spec and the frame, geometry and
detector configs of each of its points, then exits.
"""

import sys

import benchenv

if __name__ == "__main__":
    benchenv.prepare()
    import workloads

    workloads.build_configs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
