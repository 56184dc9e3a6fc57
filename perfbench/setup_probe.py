"""Build one in-process workload's state, print ``ready``, exit.

``python3 perfbench/setup_probe.py <bulk-scan|mac-sim> <seed>``; the
parent times spawn to the ``ready`` line (see ``common.probe_setup``).
"""

import sys

sys.dont_write_bytecode = True

import mac_workload  # noqa: E402
import scan_workload  # noqa: E402

BUILDERS = {"bulk-scan": scan_workload.build, "mac-sim": mac_workload.build}

if __name__ == "__main__":
    BUILDERS[sys.argv[1]](int(sys.argv[2]))
    print("ready", flush=True)
