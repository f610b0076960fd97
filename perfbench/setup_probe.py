"""Set up one workload in a fresh process and exit; run.py times this as setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
