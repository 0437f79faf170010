"""Time the set-up every spectratact process pays, in a fresh interpreter.

Prints one JSON line: ``import_s`` (importing the package, numpy and
scipy included), ``build_s`` (the configs the benchmark's pipelines use,
including the two encoder calibrations inside ``TwinAssembly``) and
``kernel_s``, the host-speed reference measured afterwards in the same
process, which tells which speed state the probe ran in.
Run from the checkout root: ``python3 benchmarks/setup_probe.py``.
"""

import json
import os
import statistics
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    from spectratact import fivebar, sensor, twin

    imported = time.perf_counter()
    json.dumps(sensor.SensorConfig.default().to_dict())
    json.dumps(twin.TwinAssembly().to_dict())
    fivebar.GridSpec(-60.0, 140.0, 1.0, 200.0, 80, 80)
    fivebar.FiveBarConfig()
    built = time.perf_counter()
    import hostspeed
    kernel_s = statistics.median(hostspeed.reference_times())
    print(json.dumps({"import_s": imported - start, "build_s": built - imported,
                      "kernel_s": kernel_s}))


if __name__ == "__main__":
    main()
