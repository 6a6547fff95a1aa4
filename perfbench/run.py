#!/usr/bin/env python3
"""The LIGER benchmark: train, corpus and serve workloads behind one command.

    python3 perfbench/run.py --workload train|corpus|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench (Release only)
into .bench_build/perfbench, runs the workload in its own process, checks
its outputs, and prints every metric by name with its unit and sample
count. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import analysis  # noqa: E402

WORKLOADS = ("train", "corpus", "serve")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the workload binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "Serve.h")):
        raise BenchError("no LIGER sources in %s: run from a source checkout" % ROOT)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_workload", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench_workload")


def run_workload(binary, args, work_dir):
    out = os.path.join(work_dir, "result.json")
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work_dir, "--out=" + out]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("workload did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode:
        raise BenchError("workload exited with code %d" % proc.returncode)
    with open(out) as f:
        return json.load(f)


def tail_of(raw, key):
    """(tail percentile, value) of a latency series. The percentile is the
    rule's choice at the sample count the workload guarantees, so it is
    the same in every run however fast the machine was."""
    samples = raw["series"][key]
    tail = analysis.tail_percentile(min(len(samples), raw["values"]["min_samples"]))
    if tail is None:
        raise BenchError("only %d latency samples: too few for a median with "
                         "%d beyond it" % (len(samples), analysis.MIN_BEYOND))
    return tail, analysis.percentile(samples, tail)


def end_to_end(raw):
    """{name: (value, samples, note)} for the end-to-end metrics."""
    series = raw["series"]
    op = series["op_ms"]
    tail, tail_ms = tail_of(raw, "op_ms")
    return {
        "setup_s": (analysis.median(raw["setup_s"]), len(raw["setup_s"]), "median"),
        "peak_rss_mb": (analysis.median(series["rss_mb"]), len(series["rss_mb"]), "median"),
        "throughput_per_s": (analysis.median(series["rate"]), len(series["rate"]), "median"),
        "latency_p50_ms": (analysis.percentile(op, 50), len(op), "p50"),
        "latency_tail_ms": (tail_ms, len(op), "p%g" % tail),
    }


def named_figures(workload, raw):
    """The workload's figures under their own names: (name, value, unit, samples)."""
    series, values = raw["series"], raw["values"]

    def med(label, key, unit):
        return (label, analysis.median(series[key]), unit, len(series[key]))

    if workload == "train":
        steps = series["step_ms"]
        return [("final_loss", values["final_loss"], "-", 1),
                ("train_samples", values["train_samples"], "-", 1),
                med("samples_per_s", "rate", "samples/s"),
                med("run_p50_ms", "op_ms", "ms"),
                med("step_p50_ms", "step_ms", "ms"),
                ("step_p95_ms", analysis.percentile(steps, 95), "ms", len(steps))]
    if workload == "corpus":
        return [med("cold_methods_per_s", "rate", "raw methods/s"),
                med("warm_methods_per_s", "warm_rate", "raw methods/s"),
                med("cold_pass_p50_ms", "op_ms", "ms")]
    lat = series["op_ms"]
    tail, tail_ms = tail_of(raw, "op_ms")
    return [("requests_per_s", values["requests_per_s"], "requests/s", len(lat)),
            med("latency_p50_ms", "op_ms", "ms"),
            ("latency_p%g_ms" % tail, tail_ms, "ms", len(lat)),
            med("novel_p50_ms", "novel_ms", "ms"),
            med("repeat_p50_ms", "repeat_ms", "ms"),
            med("lease_wait_p50_ms", "lease_wait_ms", "ms")]


def span_durations_ms(spans, name):
    return [(s.end - s.start) * 1e3 for s in spans if s.name == name]


def per_layer(workload, raw, spans):
    """{metric: value} measured by this workload's traced run."""
    series, values = raw["series"], raw["values"]
    out = {k: v for k, v in values.items() if "." in k and not k.startswith("traffic.")}
    self_s = analysis.self_by_name(spans)
    if workload == "train":
        steps = values["eval.steps"]
        for name in ("models.loss_forward", "nn.loss_sum", "nn.backward",
                     "nn.sink_reduce", "nn.adam", "nn.arena_reset"):
            out[name + "_s"] = self_s.get(name, (0, 0.0))[1] / steps
        out["eval.shard_imbalance"] = analysis.shard_imbalance(spans)
        step_wall = sum(span_durations_ms(spans, "eval.step"))
        serial = sum(span_durations_ms(spans, "nn.sink_reduce") +
                     span_durations_ms(spans, "nn.adam"))
        out["eval.serial_share"] = serial / step_wall
        overhead = analysis.median(series["rate"]) / analysis.median(series["traced_rate"])
    elif workload == "corpus":
        out["testgen.warm_methods_per_s"] = analysis.median(series["warm_rate"])
        overhead = analysis.median(series["rate"]) / analysis.median(series["traced_rate"])
    else:
        for name in ("lang.parse_typecheck", "testgen.collect_miss",
                     "testgen.collect_hit", "models.predict"):
            out[name + "_ms"] = analysis.median(span_durations_ms(spans, name))
        out["serve.lease_wait_ms"] = analysis.median(series["lease_wait_ms"])
        out["serve.novel_p50_ms"] = analysis.median(series["novel_ms"])
        out["serve.repeat_p50_ms"] = analysis.median(series["repeat_ms"])
        overhead = analysis.median(series["traced_op_ms"]) / analysis.median(series["op_ms"])
    out["bench.trace_overhead_pct"] = (overhead - 1) * 100
    return out


def layer_table(spans):
    """Rows (name, calls, self thread-seconds, wall seconds) plus the
    unattributed remainder and the traced total they add up to."""
    total, shares, unattributed = analysis.attribute_wall(spans)
    self_s = analysis.self_by_name(spans)
    rows = [(name, self_s[name][0], self_s[name][1], wall)
            for name, wall in sorted(shares.items(), key=lambda kv: -kv[1])]
    if abs(sum(shares.values()) + unattributed - total) > 1e-6 * max(1.0, total):
        raise BenchError("layer shares do not add up to the traced total")
    return rows, unattributed, total


def print_table(title, header, rows):
    print(title)
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)

    binary = build()
    work_dir = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        raw = run_workload(binary, args, work_dir)
        spans = []
        if args.trace:
            spans = analysis.read_spans(raw["info"]["spans"])
            shutil.copy(raw["info"]["spans"], os.path.join(BUILD, "spans-%s.tsv" % args.workload))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = raw["values"]
    print("perfbench %s: seed %d, %s build, %d cpus, %d threads, %g s, trace %d"
          % (args.workload, args.seed, raw["info"]["build_type"], values["cpus"],
             values["threads"], args.seconds, args.trace))
    e2e = end_to_end(raw) if not args.trace else None
    if e2e:
        print_table("end-to-end", ("metric", "value", "unit", "samples", "stat"),
                    [(m["name"], fmt(e2e[m["name"]][0]), m["unit"], e2e[m["name"]][1],
                      e2e[m["name"]][2]) for m in spec["end_to_end"]])
    print_table("workload figures", ("figure", "value", "unit", "samples"),
                [(n, fmt(v), u, c) for n, v, u, c in named_figures(args.workload, raw)])
    traffic = {k: v for k, v in values.items() if k.startswith("traffic.")}
    if traffic:
        requests = sum(v for k, v in traffic.items() if k != "traffic.distinct_sources")
        print("traffic: %d requests, %d distinct sources, measured repeat share %.3f; %s"
              % (requests, traffic["traffic.distinct_sources"],
                 values["testgen.trace_cache_hit_ratio"],
                 ", ".join("%s %d" % (k[8:], v) for k, v in sorted(traffic.items())
                           if k != "traffic.distinct_sources")))
    print("checks: %d attempted, %d failed" % (raw["attempted"], raw["failed"]))
    for example in raw["failure_examples"]:
        print("  failed: " + example)

    if args.trace:
        measured = per_layer(args.workload, raw, spans)
        rows, unattributed, total = layer_table(spans)
        measured["bench.unattributed_pct"] = 100.0 * unattributed / total
        table = [(n, c, "%.4f" % s, "%.4f" % w, "%.1f%%" % (100 * w / total))
                 for n, c, s, w in rows]
        table.append(("unattributed", "-", "-", "%.4f" % unattributed,
                      "%.1f%%" % (100 * unattributed / total)))
        table.append(("traced total", "-", "-", "%.4f" % total, "100.0%"))
        print_table("layers (traced wall time shared among concurrent spans)",
                    ("span", "calls", "self_s", "wall_s", "share"), table)
        print_table("per-layer metrics of this workload",
                    ("metric", "value", "unit", "per", "moves"),
                    [(m["name"], fmt(measured[m["name"]]), m["unit"],
                      layers[m["name"]]["per"], layers[m["name"]]["moves"])
                     for m in wanted if m["name"] in measured])
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in wanted}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in wanted}

    failed = raw["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, KeyError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
