"""The WmXML benchmark: one command per workload, seed and mode.

Run from the root of a checkout:

    python3 perfbench/run.py --workload owner_http --seed 1 --seconds 20
    python3 perfbench/run.py --workload batch_pool --seed 1 --trace 1
    python3 perfbench/run.py --workload owner_http --repeat 10 --out a.json
    python3 perfbench/run.py --compare a.json b.json

A single run builds its inputs from ``--seed``, sets up (median of
several set-ups is ``setup_s``), measures for ``--seconds``, checks
every correctness gate and prints, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` makes
an untraced and then a traced pass and reports the per-layer metrics.
The line before it stamps the host fingerprint, and an end-to-end run
prints before that a ``wall`` line: the wall-clock latencies and rates
callers see, reported but not gated (see :data:`WALL_UNITS`).

``--repeat N`` runs N single runs on seeds seed..seed+N-1, each in a
fresh process, and prints every metric's median, quartiles and spread;
``--out`` keeps that summary, stamped with the host fingerprint, and
``--compare`` judges two such summaries against the bounds in
BENCHMARK.json, refusing when they come from different hosts.
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
sys.path.insert(0, HERE)

from wmbench import host, layers, stats  # noqa: E402

#: The gated end-to-end metrics (BENCHMARK.json): costs in CPU time,
#: which the host's CPU steal does not move.
E2E_UNITS = {
    "embed_cpu_ms": "ms", "detect_cpu_ms": "ms", "ok_ratio": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}
#: What callers see in wall-clock time, printed on the ``wall`` line:
#: reported, never gated, as CPU steal moves it by tens of per cent.
WALL_UNITS = {
    "embed_p50_ms": "ms", "embed_p95_ms": "ms",
    "detect_p50_ms": "ms", "detect_p95_ms": "ms",
    "embed_docs_per_s": "docs/s", "detect_docs_per_s": "docs/s",
    "setup_wall_s": "s", "lag_p99_ms": "ms",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _import_program() -> None:
    """Make the program under test importable, or stop."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        log(f"perfbench: no program to measure: {source}/repro is missing")
        sys.exit(2)
    sys.path.insert(0, source)


def end_to_end(workload) -> tuple[dict, dict]:
    """The gated result and the ``wall`` line of one run."""
    from wmbench.workloads import SETUP_REPEATS

    setups, walls = [], []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        setups.append(workload.start())
        walls.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            workload.stop()
    measured = workload.measure()
    rss = workload.peak_rss_mb()
    errors = measured.errors + workload.verify()
    workload.stop()
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": rss,
              "ok_ratio": ((measured.attempted - measured.failed)
                           / measured.attempted
                           if measured.attempted else 0.0)}
    wall = {"setup_wall_s": statistics.median(walls),
            "lag_p99_ms": layers.lag_p99(measured.lags_ms)}
    for kind in ("embed", "detect"):
        samples = measured.latencies.get(kind) or []
        if not samples or kind not in measured.cpu_ms:
            errors.append(f"no successful {kind} was timed")
            continue
        values[f"{kind}_cpu_ms"] = measured.cpu_ms[kind]
        summary = stats.summarize(samples)
        wall[f"{kind}_p50_ms"] = summary["p50"]
        wall[f"{kind}_p95_ms"] = summary["p95"]
        wall[f"{kind}_docs_per_s"] = measured.docs_per_s.get(kind, 0.0)
        log(f"{kind}: {values[f'{kind}_cpu_ms']:.3f} CPU ms/doc; wall "
            f"n={summary['n']} p50={summary['p50']:.3f} ms "
            f"p95={summary['p95']:.3f} ms ({summary['beyond_p95']} beyond"
            f"{', thin tail' if summary['thin'] else ''}), "
            f"{wall[f'{kind}_docs_per_s']:.3f} docs/s saturated")
    log(f"setup: CPU s {[round(s, 3) for s in setups]}, "
        f"wall s {[round(s, 3) for s in walls]}")
    return (_result(values, E2E_UNITS, measured, errors),
            {name: {"value": wall[name], "unit": unit}
             for name, unit in WALL_UNITS.items() if name in wall})


def traced(workload, name: str) -> dict:
    workload.start()
    plain = workload.measure()
    errors = plain.errors + workload.verify()
    workload.stop()
    workload.start(traced=True)
    measured = workload.measure()
    errors += measured.errors + workload.verify()
    workload.stop()
    spans, counts = workload.traced_spans(measured)
    index = layers.SpanIndex(spans)
    errors += [f"span never fired on its heavy workload: {silent}"
               for silent in layers.silent_layers(name, index, counts)]
    values = layers.compute(
        index, counts, measured.round_trips,
        layers.overhead_ratio(measured.p50(), plain.p50()),
        layers.lag_p99(plain.lags_ms))
    log(f"traced: {len(spans)} spans; counters {sorted(counts.items())}")
    units = {layer.name: layer.unit for layer in layers.LAYERS}
    plain.attempted += measured.attempted
    plain.failed += measured.failed
    return _result(values, units, plain, errors)


def _result(values: dict, units: dict, measured, errors: list) -> dict:
    for error in errors[:20]:
        log(f"gate failed: {error}")
    if len(errors) > 20:
        log(f"... and {len(errors) - 20} more failed gates")
    missing = [name for name in units if name not in values]
    if missing:
        errors = errors + [f"metrics not measured: {missing}"]
        log(f"gate failed: metrics not measured: {missing}")
    return {"correct": not errors, "attempted": max(1, measured.attempted),
            "failed": measured.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items() if name in values}}


def run_once(args) -> int:
    _import_program()
    from wmbench.workloads import WORKLOADS, Context, make_tmp, remove_tmp

    fingerprint = host.fingerprint()
    ctx = Context(root=ROOT, seed=args.seed, seconds=float(args.seconds),
                  nproc=host.usable_cores(), tmp=make_tmp(ROOT))
    workload = WORKLOADS[args.workload](ctx)
    wall = None
    try:
        workload.build_inputs()
        if args.trace:
            result = traced(workload, args.workload)
        else:
            result, wall = end_to_end(workload)
    finally:
        workload.abort()
        remove_tmp(ctx.tmp)
    if wall is not None:
        print("wall " + json.dumps(wall))
    print("host " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# -- repeat and compare -------------------------------------------------------


def repeat(args) -> int:
    _import_program()
    runs = []
    fingerprint = host.fingerprint()
    for offset in range(args.repeat):
        seed = args.seed + offset
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if result is None or not result["correct"]:
            log(f"seed {seed}: run failed (exit {completed.returncode})")
            return 1
        for line in lines:
            if line.startswith("wall "):
                result["metrics"].update(
                    {f"wall.{name}": metric for name, metric
                     in json.loads(line[len("wall "):]).items()})
        runs.append({"seed": seed, **result})
        log(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()))
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        summary[name] = {**stats.quartiles(values), "values": values,
                         "unit": runs[0]["metrics"][name]["unit"]}
        item = summary[name]
        print(f"{name:28s} median {item['median']:.6g} {item['unit']}  "
              f"q1 {item['q1']:.6g}  q3 {item['q3']:.6g}  "
              f"spread {item['spread']:.2%}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"host": fingerprint, "workload": args.workload,
                       "seconds": args.seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, handle, indent=1)
    return 0


def compare(first_path: str, second_path: str) -> int:
    with open(first_path, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(second_path, encoding="utf-8") as handle:
        second = json.load(handle)
    same, reason = host.comparable(first["host"], second["host"])
    if not same:
        log(f"perfbench: refusing to compare across hosts: {reason}")
        return 2
    for key in ("workload", "seconds", "trace"):
        if first[key] != second[key]:
            log(f"perfbench: refusing to compare: {key} differs")
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {metric["name"]: metric
                    for metric in json.load(f)["end_to_end"]}
    worse = 0
    for name, base in first["summary"].items():
        if name not in second["summary"] or name not in declared:
            continue
        new = second["summary"][name]
        change = (new["median"] - base["median"]) / base["median"]
        if declared[name]["better"] == "higher":
            change = -change
        bound = declared[name]["bound"]
        verdict = "worse" if change > bound else "ok"
        worse += verdict == "worse"
        print(f"{name:24s} {base['median']:.6g} -> {new['median']:.6g} "
              f"{'worse' if change > 0 else 'better'} by {abs(change):.2%}"
              f" (bound {bound:.0%}): {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("owner_http", "provenance_http",
                                 "batch_pool"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times on consecutive seeds")
    parser.add_argument("--out", help="where --repeat keeps its summary")
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY.json")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
