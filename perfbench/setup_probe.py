"""Set-up probe: import robustcusum, parse one config file, print the clock.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG

run.py times `setup_s` from spawning this script to the `time.monotonic()`
value it prints.  It imports nothing of the benchmark's own, so the figure
is interpreter start-up plus the package's import and config parse.
"""

import sys
import time


def main(config_path):
    import robustcusum.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    from robustcusum.config import parse_config

    with open(config_path, encoding="utf-8") as fh:
        parse_config(fh.read())
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1])
