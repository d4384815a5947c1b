"""Child process that times one cold set-up of a workload.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints {"setup_s": seconds}: from the start of this script, through the
imports of numpy and baselcost, to the end of the workload's set-up.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import benchenv  # noqa: E402


def main(argv) -> int:
    name, seed, workdir = argv
    benchenv.bootstrap()
    import workloads

    benchenv.check_import_location(workloads.baselcost)
    workloads.WORKLOADS[name].setup(int(seed), Path(workdir))
    print(json.dumps({"setup_s": perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
