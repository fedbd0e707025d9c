"""The simulator's benchmark: host time per workload, per-layer spans and exact
work counts, with every simulated result checked.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload through ``run_many(configs, jobs=1,
cache=None)`` with no spans installed and reports the end-to-end metrics:
``host_s`` (median wall time of one pass), ``setup_s`` (import plus building
every ``Experiment``, median over fresh interpreters that load bytecode from
the benchmark's own warmed cache) and ``peak_rss_mb`` (peak resident set of a
fresh process that ran the workload once).

``--trace 1`` alternates untraced and span-traced passes, runs one cProfile
pass, reads the simulator's own counters and reports the per-layer metrics;
it writes the last traced pass's spans as folded stacks to
``.perfbench-out/<workload>-seed<seed>.folded``.

Both modes digest every result (``repro.golden.result_digest``): every pass
must repeat the first pass's digests, at the reference seed they must match
``reference_digests.json``, and one audited pass must be violation-free. The
last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` count experiments; ``metrics`` holds ``{"value", "unit"}`` pairs.

``--write-reference`` regenerates ``reference_digests.json`` at the
reference seed (only after an intended change to simulated behaviour).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_FILE = os.path.join(HERE, "reference_digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
#: The benchmark's own bytecode cache (``sys.pycache_prefix``): every process
#: of a run reads and writes bytecode here and never in ``__pycache__``
#: folders, so ``setup_s`` does not depend on what other tools left there.
PYCACHE_DIR = os.path.join(OUT_DIR, "pycache")
#: Timed fresh interpreters per run for ``setup_s``. Before them, an untimed
#: probe fills the bytecode cache, and a second one runs the workload for
#: ``peak_rss_mb`` and a cross-process digest check.
SETUP_PROBES = 21
#: Layers reported from spans (``<layer>.calls`` and ``<layer>.self_s``).
SPAN_LAYERS = (
    "engine", "tcp", "train", "nic", "link", "napi", "gro", "cache", "cpu",
    "profiler", "metrics", "mem", "socket", "sched", "trace", "export",
)
#: Layers whose spans report ``self_s`` only (calls are not meaningful).
SELF_ONLY = {"engine", "napi"}

sys.path.insert(0, SRC)
sys.pycache_prefix = PYCACHE_DIR


class OutputCheck:
    """Counts experiments attempted and failed over one benchmark run."""

    def __init__(self, reference):
        self.reference = reference
        self.baseline = None
        self.attempted = 0
        self.failed = 0
        #: Benchmark-level inconsistencies (counts that should agree but do
        #: not); they make the run incorrect without failing an experiment.
        self.errors = []
        self.notes = []

    def results(self, label, results):
        """Digest one pass: it must repeat the first pass (same seed, same
        digests) and, at the reference seed, the committed reference."""
        from repro.golden import result_digest

        self.digests(label, [result_digest(result) for result in results])

    def digests(self, label, digests):
        if self.baseline is None:
            self.baseline = digests
        self.attempted += len(digests)
        for index, digest in enumerate(digests):
            wrong = digest != self.baseline[index] or (
                self.reference is not None and digest != self.reference[index]
            )
            if wrong:
                self.failed += 1
                self.notes.append(f"{label}: experiment {index} digest {digest[:12]}")

    def raised(self, label, count, error):
        self.attempted += count
        self.failed += count
        self.notes.append(f"{label}: {type(error).__name__}: {error}")

    def audit(self, configs):
        """Run every config once with the conservation auditor."""
        from repro.core.runner import run_many

        try:
            results = run_many(configs, jobs=1, audit=True)
        except Exception as error:  # counted as failed experiments
            self.raised("audit", len(configs), error)
            return
        self.attempted += len(results)
        for index, result in enumerate(results):
            if not result.audit_report.ok:
                self.failed += 1
                self.notes.append(f"audit: experiment {index}: {result.audit_report.render()}")


def timed_pass(configs, check, label, stats=None):
    """One pass of the workload through ``run_many``; wall seconds or None."""
    from repro.core.runner import run_many

    start = time.perf_counter()
    try:
        results = run_many(configs, jobs=1, cache=None, stats=stats)
    except Exception as error:  # counted as failed experiments
        check.raised(label, len(configs), error)
        return None, None
    elapsed = time.perf_counter() - start
    return elapsed, results


def probe(workload, seed, run):
    command = [sys.executable, os.path.join(HERE, "probe.py"),
               "--workload", workload, "--seed", str(seed)]
    if run:
        command.append("--run")
    env = dict(os.environ, PYTHONPYCACHEPREFIX=PYCACHE_DIR)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def end_to_end(args, configs, check):
    durations = []
    deadline = time.perf_counter() + args.seconds
    while not durations or time.perf_counter() < deadline:
        elapsed, results = timed_pass(configs, check, "timed pass")
        if results is None:
            if time.perf_counter() >= deadline:
                break
            continue
        durations.append(elapsed)
        check.results("timed pass", results)
    if not durations:
        return None

    # Fills the bytecode cache, so that the probes after it load bytecode
    # and none compiles.
    probe(args.workload, args.seed, run=False)
    report = probe(args.workload, args.seed, run=True)
    check.digests("fresh process", report["digests"])
    rss = report["peak_rss_mb"]
    setups = [probe(args.workload, args.seed, run=False)["setup_s"]
              for _ in range(SETUP_PROBES)]

    rows = [
        ("host_s", durations, "s"),
        ("setup_s", setups, "s"),
        ("peak_rss_mb", [rss], "MB"),
    ]
    return rows


def per_layer(args, configs, check):
    import spans
    from layers import capture_runs, counters, py_calls
    from repro.core.runner import RunnerStats, run_many

    untraced, traced = [], []
    self_samples = {layer: [] for layer in SPAN_LAYERS}
    calls = counts = recorder = None
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        elapsed, results = timed_pass(configs, check, "untraced pass")
        if results is not None:
            untraced.append(elapsed)
            check.results("untraced pass", results)
        recorder = spans.SpanRecorder()
        stats = RunnerStats()
        with capture_runs() as runs, spans.install(recorder) as missing:
            elapsed, results = timed_pass(configs, check, "traced pass", stats)
        if results is None:
            if time.perf_counter() >= deadline:
                break
            continue
        traced.append(elapsed)
        check.results("traced pass", results)
        if missing and len(traced) == 1:
            print(f"# entry points not found: {', '.join(missing)}")
        pass_calls, pass_self_ns = recorder.layer_totals()
        for layer in SPAN_LAYERS:
            self_samples[layer].append(pass_self_ns.get(layer, 0) / 1e9)
        pass_counts = counters(runs)
        if calls is None:
            calls, counts = pass_calls, pass_counts
            if stats.events_fired + stats.express_fired != counts["engine.dispatches"]:
                check.errors.append(
                    f"RunnerStats {stats.events_fired}+{stats.express_fired} "
                    f"!= engine.dispatches {counts['engine.dispatches']}")
        elif (pass_calls, pass_counts) != (calls, counts):
            check.errors.append("span calls or counters did not repeat")
    if not traced or not untraced:
        return None

    package_root = os.path.join(SRC, "repro")
    holder = []
    python_calls = py_calls(
        lambda: holder.append(run_many(configs, jobs=1, cache=None)), package_root
    )
    check.results("cProfile pass", holder[0])

    os.makedirs(OUT_DIR, exist_ok=True)
    folded = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.folded")
    with open(folded, "w") as handle:
        handle.write("\n".join(recorder.folded_stacks()) + "\n")
    print(f"# folded stacks of the last traced pass ({len(recorder)} spans): {folded}")

    n_traced = len(traced)
    rows = []
    for layer in SPAN_LAYERS:
        if layer not in SELF_ONLY:
            rows.append((f"{layer}.calls", [calls.get(layer, 0)] * n_traced, "count"))
        rows.append((f"{layer}.self_s", self_samples[layer], "s"))
    for layer in (*SPAN_LAYERS, "syscall", "other", "total"):
        if layer in python_calls:
            rows.append((f"{layer}.py_calls", [python_calls[layer]], "count"))
    units = {
        "engine.cancel_ratio": "ratio", "napi.frames_per_poll": "frames",
        "gro.merge_ratio": "ratio", "cache.bytes_evicted": "B",
        "cache.rx_miss_rate": "ratio", "mem.pcp_ratio": "ratio",
        "cpu.busy_cores": "cores", "model.gbps_per_core": "Gbps",
    }
    for name, value in counts.items():
        rows.append((name, [value] * n_traced, units.get(name, "count")))
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    rows.append(("bench.span_overhead", [overhead], "ratio"))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    import repro
    from repro.golden import result_digest
    from workloads import REFERENCE_SEED, WORKLOADS, build_configs

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        sys.exit(f"perfbench: repro must be imported from {SRC}, not {repro.__file__}")

    if args.write_reference:
        from repro.core.runner import run_many

        document = {"seed": REFERENCE_SEED, "digests": {
            name: [result_digest(result) for result in
                   run_many(build_configs(name, REFERENCE_SEED), jobs=1, cache=None)]
            for name in WORKLOADS
        }}
        with open(REFERENCE_FILE, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return 0

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed is None:
        args.seed = REFERENCE_SEED
    reference = None
    if args.seed == REFERENCE_SEED:
        with open(REFERENCE_FILE) as handle:
            document = json.load(handle)
        reference = document["digests"][args.workload]

    configs = build_configs(args.workload, args.seed)
    check = OutputCheck(reference)
    # The audited pass also lets lazy imports and first-use costs finish
    # before anything is timed.
    check.audit(configs)
    rows = (per_layer if args.trace else end_to_end)(args, configs, check)
    if rows is None:
        print("perfbench: no pass of the workload completed", file=sys.stderr)
        for note in check.notes:
            print(f"perfbench: {note}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'unit':<6} samples")
    metrics = {}
    for name, values, unit in rows:
        low, median, high = quartiles(values)
        print(f"  {name:<24} {median:>14.6g} {low:>14.6g} {high:>14.6g} {unit:<6} {len(values)}")
        metrics[name] = {"value": median, "unit": unit}
    failed_frac = check.failed / check.attempted
    print(f"  {'failed_frac':<24} {failed_frac:>14.6g} {'':>14} {'':>14} "
          f"{'ratio':<6} {check.attempted}")
    for note in check.notes + check.errors:
        print(f"# FAILED {note}")
    print(json.dumps({
        "correct": check.failed == 0 and not check.errors,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
