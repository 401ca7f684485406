"""Time one set-up from a fresh interpreter and print it as JSON.

Usage: python3 setup_probe.py <src dir> <workload> <scenario seed> [--run]

Set-up is importing `hashcast`, building the `ScenarioConfig` and
constructing the run object, which creates keys, access delays and the
backbone.  The interpreter's own start-up is not counted.  With `--run` the
probe then runs the scenario and also reports the peak resident set size of
this process, which ran nothing but that one scenario.
"""

import json
import resource
import sys
from time import perf_counter


def main() -> int:
    src, workload, scenario_seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    run_scenario = sys.argv[4:] == ["--run"]
    sys.path.insert(0, src)
    from workloads import scenario_dict

    data = scenario_dict(workload, scenario_seed)
    t0 = perf_counter()
    import hashcast.simulation as simulation
    from hashcast.config import ScenarioConfig

    t1 = perf_counter()
    config = ScenarioConfig.from_dict(data)
    t2 = perf_counter()
    run_cls = simulation.BaselineRun if config.mode == "baseline" else simulation.VericomRun
    run = run_cls(config)
    t3 = perf_counter()
    out = {"import_s": t1 - t0, "from_dict_s": t2 - t1, "construct_s": t3 - t2}
    if run_scenario:
        run.run()
        out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
