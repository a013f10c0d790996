"""One benchmark set-up in a fresh process, for the `setup_s` metric.

Does what a user's process does before it calls into the co-design loop:
start the interpreter, import gearevo, resolve the workload's config with
`parse_config` and set up CMA-ES and the design expansion.  Prints the
CLOCK_MONOTONIC time at which that finished; the parent subtracts the time
at which it started this process.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import bootstrap


def main(argv: list[str]) -> int:
    bootstrap.prepare()
    import time

    from workloads import WORKLOADS

    name, seed = argv
    WORKLOADS[name]().setup(int(seed))
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
