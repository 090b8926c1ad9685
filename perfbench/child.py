"""Measured tieralloc runs in a fresh interpreter.

    python3 child.py setup OUT_JSON SCENARIO
    python3 child.py run OUT_JSON BUDGET_S SPANS_PATH|- SCENARIO...

Both modes time set-up from interpreter start: ``import tieralloc``,
``load_scenario`` and ``build_deployment`` of the first scenario. ``setup``
then times one calibration loop (see ``calibrate``). ``run`` instead makes one untimed warm-up experiment of the first scenario, and runs
the scenarios' experiments in turn while the next one is expected to end
within BUDGET_S of the warm-up's start (each scenario at least once). Each
experiment times ``run_experiment`` plus ``rows_to_csv`` and records the
CSV's sha256; scenario k's first CSV is written to ``OUT_JSON`` with the
suffix ``-k.csv`` in place of ``.json``. Before each experiment, and after
the last, the process times a fixed calibration loop on each CPU and moves
to the fastest; the experiments' times, the calibration times and peak RSS
are reported.
With a SPANS_PATH other than ``-`` the experiments are traced: each one's
layer statistics go into OUT_JSON and the last one's spans into SPANS_PATH.
The caller puts ``src`` on PYTHONPATH.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def calibrate() -> float:
    """Seconds a fixed pure-Python loop (dict updates and float sums, about
    25 ms on a quiet 2-core x86 VM) takes now. It uses no tieralloc code, so
    it measures the host's speed and not the program's."""
    start = time.perf_counter()
    sums: dict[int, float] = {}
    acc = 0.0
    for i in range(150000):
        k = i % 97
        sums[k] = sums.get(k, 0.0) + i * 0.5
        acc += (i % 13) * 1.25
    return time.perf_counter() - start


def pin_fastest_cpu(cpus: list[int]) -> float:
    """Pin this process to the CPU of ``cpus`` on which ``calibrate`` runs
    fastest, and return that time. On a shared host a CPU runs about 1.5x
    slower, for seconds to minutes, while a neighbour loads the core under
    it; each CPU switches on its own."""
    timed = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timed.append((calibrate(), cpu))
    best, cpu = min(timed)
    os.sched_setaffinity(0, {cpu})
    return best


def main(argv: list[str]) -> None:
    mode, out_path = argv[:2]
    from tieralloc import harness, scenario

    paths = argv[2:3] if mode == "setup" else argv[4:]
    scenarios = [scenario.load_scenario(p) for p in paths]
    scenario.build_deployment(scenarios[0])
    result = {"setup_s": time.perf_counter() - _T0}
    if mode == "setup":
        result["calibration_s"] = [calibrate()]
    else:
        budget, spans_path = float(argv[2]), argv[3]
        tracer = None
        if spans_path != "-":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()

        def experiment(k: int) -> tuple[float, str]:
            start = time.perf_counter()
            text = harness.rows_to_csv(harness.run_experiment(scenarios[k]))
            return time.perf_counter() - start, text

        def keep(k: int, text: str) -> None:
            sha = hashlib.sha256(text.encode()).hexdigest()
            if k not in written:
                written[k] = f"{out_path[:-len('.json')]}-{k}.csv"
                with open(written[k], "w") as fh:
                    fh.write(text)
            shas.setdefault(str(k), []).append(sha)

        written: dict[int, str] = {}
        shas: dict[str, list[str]] = {}
        experiments, calibration, layers = [], [], []
        cpus = sorted(os.sched_getaffinity(0))
        begin = time.perf_counter()
        keep(0, experiment(0)[1])
        last, i = 0.0, 0
        while i < len(scenarios) or \
                time.perf_counter() - begin + last <= budget:
            k = i % len(scenarios)
            calibration.append(pin_fastest_cpu(cpus))
            if tracer is not None:
                tracer.reset()
            last, text = experiment(k)
            experiments.append([k, last])
            keep(k, text)
            if tracer is not None:
                layers.append(tracer.summary())
            i += 1
        calibration.append(pin_fastest_cpu(cpus))
        result["experiments"] = experiments
        result["calibration_s"] = calibration
        result["csv_sha256"] = shas
        result["csv"] = [written[k] for k in range(len(scenarios))]
        result["csv_columns"] = list(harness.CSV_COLUMNS)
        result["peak_rss_mb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
        if tracer is not None:
            result["layers"] = layers
            tracer.write_spans(spans_path)
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
