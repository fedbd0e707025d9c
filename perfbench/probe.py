"""One fresh-interpreter probe of a workload; prints one JSON line.

``setup_s`` is the time from the first ``import repro`` to having built every
``Experiment(config)`` of the workload. With ``--run`` the probe then runs
the workload once through ``run_many`` and reports the digest of each result
and the process's peak resident set.

    python3 perfbench/probe.py --workload bulk --seed 1 [--run]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def peak_rss_kib() -> int:
    """This process's own peak resident set, in KiB.

    ``getrusage``'s ``ru_maxrss`` is not used: Linux carries it across
    ``execve``, so a probe would report its parent's resident set whenever
    that is the larger. ``VmHWM`` belongs to the address space the probe
    runs in.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import repro  # noqa: F401
    from repro.core.experiment import Experiment
    from workloads import build_configs

    configs = build_configs(args.workload, args.seed)
    experiments = [Experiment(config) for config in configs]
    report = {"setup_s": time.perf_counter() - start}
    del experiments

    if args.run:
        from repro.core.runner import run_many
        from repro.golden import result_digest

        results = run_many(configs, jobs=1, cache=None)
        report["digests"] = [result_digest(result) for result in results]
        report["peak_rss_mb"] = peak_rss_kib() / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    main()
