"""One set-up as a user pays it: a fresh interpreter imports rockrelax and
builds a workload's instances (built-in examples, or JSON configs read,
validated and instantiated).

    python3 perfbench/probe.py SETUP.json

SETUP.json holds {"examples": [[name, nu], ...], "configs": [config, ...]}.
The host-speed readings taken meanwhile (see calibrate.py) and the time
they took are printed as one JSON line.
"""
import json
import sys

import calibrate


def main(path: str) -> None:
    import rockrelax  # noqa: F401  (the import is part of what is timed)
    from rockrelax.instances import build_example, build_from_config, instantiate

    with open(path) as fh:
        setup = json.load(fh)
    for name, nu in setup["examples"]:
        build_example(name, nu)
    for config in setup["configs"]:
        instantiate(build_from_config(config))


if __name__ == "__main__":
    ticker = calibrate.Ticker()
    ticker.start()
    try:
        main(sys.argv[1])
    finally:
        ticker.stop()
    print(json.dumps({"stolen": ticker.stolen, "readings": ticker.readings}))
