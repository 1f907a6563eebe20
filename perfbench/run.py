"""fairint benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit_fair --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare OLD NEW
    python3 perfbench/run.py --collect perfbench/out BUNDLE.json

``--trace 0`` measures the end-to-end metrics with no instrumentation,
repeating rounds of the workload's journey (see workloads.py) for
``--seconds``. ``--trace 1`` is a separate run that records spans around
the calls into each fairint module and reports the per-layer split; it
runs four rounds, whatever ``--seconds`` says, so that its counts are
exact. Both print a readable report, then, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Each run also writes its full result
(environment, every metric, raw samples, failed checks) to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``; a traced run
writes its spans next to it. ``--compare`` prints per-metric deltas
between two sets of such files (see compare.py); it is a report, not a
gate. ``--collect`` bundles result files into one.

End-to-end times are medians over the run, scaled to nominal machine
speed by the gauges in reference.py; the raw medians are reported beside
them. The program is imported from ``src/`` of the checkout, and the
benchmark refuses to run without it. BLAS is pinned to one thread.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
TRACED_ROUNDS = 4

# The gauges that track each call's kind of work (see reference.py).
GAUGES = {"cli_probe": ("interp", "blas")}

# Span around each operation of a round in the traced run.
OP_SPANS = {"lib_train": "training.train", "cli_train": "cli.train", "cli_eval": "cli.eval",
            "cli_explain": "cli.explain", "cli_probe": "cli.probe", "load_csv": "data.load_csv"}


def environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # numpy without the dict form
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def set_up(wl, reference, checker, workload, seed, work, import_s, repeats):
    """Generate inputs, write files, split and warm up, ``repeats`` times.

    Returns (scaled median seconds, raw median seconds, inputs). Import
    time is paid once per process and added to every repetition.
    """
    from fairint import ModelConfig, load_csv, load_schema, train

    reference.gauge()  # the gauges' own first pass is slow
    before = first = reference.gauge()
    raw, scaled = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        inputs = wl.Inputs(workload, seed, work)
        # the first train() and CSV parse in a process run slower than later ones
        model, _ = train(inputs.dataset, ModelConfig(), wl.train_config(workload, 1, seed))
        load_csv(inputs.csv, load_schema(inputs.schema))
        seconds = time.perf_counter() - start
        after = reference.gauge()
        problems = []
        checker.same("warm_up.params", wl.digest(model.parameter_arrays()), problems, "trained parameters")
        checker.op("warm_up", problems)
        raw.append(import_s + seconds)
        scaled.append(reference.scale(import_s, first, first, ("interp",))
                      + reference.scale(seconds, before, after, ("interp",)))
        before = after
    return statistics.median(scaled), statistics.median(raw), inputs


def seed_pair(seeds, round_index):
    """The two training seeds of a round; the sequence wraps around the list."""
    return seeds[2 * round_index % len(seeds)], seeds[(2 * round_index + 1) % len(seeds)]


def run_timed(journey, reference, seeds, seconds):
    """Repeat rounds for ``seconds``, cycling through the training seeds.

    Runs at least one round more than it takes to use every seed, so that
    the first seeds come round again and the determinism checks see a
    repeat. Returns per-op lists of raw call
    seconds and of the same seconds scaled by the gauges run just before
    and just after each call, the rounds run, and the peak RSS after the
    minimum number of rounds.
    """
    raw, scaled = {}, {}
    min_rounds = len(seeds) // 2 + 1
    before = reference.gauge()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        for name, call in journey.round(*seed_pair(seeds, rounds)):
            elapsed = call()
            after = reference.gauge()
            raw.setdefault(name, []).append(elapsed)
            scaled.setdefault(name, []).append(
                reference.scale(elapsed, before, after, GAUGES.get(name, ("interp",))))
            before = after
        rounds += 1
        if rounds == min_rounds:
            # the heap grows with the rounds run until a full collection;
            # a fixed amount of work makes the peak comparable
            rss = peak_rss_mb()
    return raw, scaled, rounds, rss


def e2e_metrics(wl, rows, raw, scaled, setup_s, raw_setup_s, rss):
    """Contract metrics from the scaled medians; raw medians and sample counts as extras."""

    def timings(samples):
        m = {name: statistics.median(values) for name, values in samples.items()}
        out = {
            "epoch_s": (m["lib_train"] / wl.LIB_EPOCHS, "s"),
            "cli_train_s": (m["cli_train"], "s"),
            "eval_rows_per_s": (rows / m["cli_eval"], "rows/s"),
            "probe_rows_per_s": (rows / m["cli_probe"], "rows/s"),
            "load_csv_rows_per_s": (rows / m["load_csv"], "rows/s"),
        }
        if "cli_explain" in m:
            out["explain_rows_per_s"] = (rows / m["cli_explain"], "rows/s")
        return out

    scaled_timings = timings(scaled)
    explain = scaled_timings.pop("explain_rows_per_s", None)
    metrics = {"setup_s": (setup_s, "s"), **scaled_timings, "peak_rss_mb": (rss, "MB")}
    extra = {} if explain is None else {"explain_rows_per_s": explain}
    extra.update({f"raw.{name}": value for name, value in timings(raw).items()})
    extra["raw.setup_s"] = (raw_setup_s, "s")
    extra.update({f"samples.{name}": (len(values), "count") for name, values in raw.items()})
    return metrics, extra


def per_layer_metrics(table, counts, epoch_traced, epoch_untraced):
    """Per-layer split of the traced rounds; step figures are means over every traced step."""
    ms = 1000.0
    steps = len(table.select("autodiff.backward", under="training.train"))
    epochs = len(table.select("training.validate"))

    def per_step(name, under="training.train"):
        return table.total(table.select(name, under=under)) * ms / steps

    def per_call(name, under=None, self_only=False):
        spans = table.select(name, under=under)
        return table.total(spans, self_only) * ms / len(spans) if spans else 0.0

    step_spans = table.step_spans()
    gc_s, gc_collected = table.gc_within(step_spans)
    layer = {
        "autodiff.nodes_per_step": (counts["nodes_max"], "count"),
        "autodiff.matmul_nodes_per_step": (counts["ops_of_largest"].get("matmul", 0), "count"),
        "autodiff.backward_ms": (per_step("autodiff.backward"), "ms"),
        "autodiff.gc_ms_per_step": (gc_s * ms / steps, "ms"),
        "autodiff.gc_collected_per_step": (gc_collected / steps, "count"),
        "model.embed_ms": (per_step("model.embed", under="model.forward"), "ms"),
        "model.forward_ms": (per_step("model.forward"), "ms"),
        "model.eval_forward_ms": (per_call("model.eval_forward", under="cli.eval"), "ms"),
        "model.save_ms": (per_call("model.save"), "ms"),
        "model.load_ms": (per_call("model.load"), "ms"),
        "losses.ce_ms": (per_step("losses.ce"), "ms"),
        "losses.active_steps": (counts["active_steps"], "count"),
        "training.steps": (counts["steps"], "count"),
        "training.step_ms": (table.total(step_spans) * ms / steps, "ms"),
        "training.adam_ms": (per_step("training.adam"), "ms"),
        "training.validate_ms": (per_call("training.validate"), "ms"),
        "training.unaccounted_ms": (table.total(table.select("training.train"), True) * ms / epochs, "ms"),
        "data.batches_ms": (per_call("data.batches"), "ms"),
        "data.split_ms": (per_call("data.split"), "ms"),
        "data.load_csv_ms": (per_call("data.load_csv"), "ms"),
        "data.standardize_ms": (per_call("data.standardize"), "ms"),
        "metrics.evaluate_ms": (per_call("metrics.evaluate"), "ms"),
        "probe.fit_ms": (per_call("probe.fit"), "ms"),
        "cli.train_self_ms": (per_call("cli.train", self_only=True), "ms"),
        "cli.eval_self_ms": (per_call("cli.eval", self_only=True), "ms"),
        "trace.overhead_ms": ((epoch_traced - epoch_untraced) * ms, "ms"),
    }
    extra = {
        "autodiff.graph_nodes_ms": (per_step("autodiff.graph_nodes", under="autodiff.backward"), "ms"),
        "autodiff.nodes_min_per_step": (counts["nodes_min"], "count"),
        "autodiff.nodes_mean_per_step": (counts["nodes_total"] / counts["steps"], "count"),
        "trace.epoch_s": (epoch_traced, "s"),
        "trace.untraced_epoch_s": (epoch_untraced, "s"),
        "trace.steps": (steps, "count"),
        "trace.epochs": (epochs, "count"),
    }
    extra.update({f"autodiff.ops.{op}": (n, "count") for op, n in counts["ops_of_largest"].items()})
    if not table.select("model.sar"):
        return layer, extra
    # stages only the fair model has
    extra.update({
        "model.sar_ms": (per_step("model.sar", under="model.forward"), "ms"),
        "model.bid_ms": (per_step("model.bid", under="model.forward"), "ms"),
        "model.interaction_ms": (per_step("model.interaction", under="model.forward"), "ms"),
        "model.fuse_ms": (per_step("model.fuse", under="model.forward"), "ms"),
        "model.predict_ms": (per_step("model.predict", under="model.forward"), "ms"),
        "losses.sar_ms": (per_step("losses.sar"), "ms"),
        "losses.ifc_ms": (per_step("losses.ifc"), "ms"),
        "losses.fc_ms": (per_step("losses.fc"), "ms"),
        "losses.joint_self_ms": (table.total(table.select("losses.joint"), True) * ms / steps, "ms"),
        "losses.active_share": (counts["active_steps"] / counts["steps"], "share"),
        "cli.explain_self_ms": (per_call("cli.explain", self_only=True), "ms"),
    })
    return layer, extra


def run_traced(journey, tracing, seeds, run_id):
    """``TRACED_ROUNDS`` rounds, each a counting pass, a traced round and untraced train() calls.

    Returns (tracer, node counts over all rounds, traced and untraced
    median seconds per epoch of train()).
    """
    from workloads import LIB_EPOCHS

    tracer = tracing.Tracer(run_id)
    counters, traced, untraced = [], [], []
    for r in range(TRACED_ROUNDS):
        pair = seed_pair(seeds, r)
        # the first seed is counted twice, to check that the counts repeat exactly
        for seed in (pair[0], *pair) if r == 0 else pair:
            with tracing.NodeCounter() as counter:
                journey.lib_train(seed)
            problems = []
            journey.checker.same(f"node_counts.{seed}", counter.summary(), problems, "graph node counts")
            journey.checker.op("count_nodes", problems)
            counters.append(counter)
        with tracer:
            for name, call in journey.round(*pair):
                with tracer.span(OP_SPANS[name]):
                    elapsed = call()
                if name == "lib_train":
                    traced.append(elapsed / LIB_EPOCHS)
        untraced += [journey.lib_train(seed) / LIB_EPOCHS for seed in pair]
    counts = tracing.NodeCounter.merge(counters[1:])  # without the repeat
    return tracer, counts, statistics.median(traced), statistics.median(untraced)


def print_report(title, env, metrics, extra, checker):
    print(f"# {title}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name:32s} {value:14.6g} {unit}  (extra)")
    print(f"# operations attempted {checker.attempted}, failed {checker.failed}")
    for failure in checker.failures:
        print(f"# FAILED {failure}")


def run(args) -> int:
    if not (SRC / "fairint" / "__init__.py").is_file():
        print(f"error: {SRC / 'fairint'} not found; run from the root of a fairint checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import fairint
    import workloads as wl
    import_s = time.perf_counter() - start
    if Path(fairint.__file__).resolve().parent != SRC / "fairint":
        print(f"error: imported fairint from {fairint.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import reference

    workload = wl.WORKLOADS[args.workload]
    seeds = wl.train_seeds(args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    checker = wl.Checker()
    env = environment()
    result_extra = {}
    try:
        setup_s, raw_setup_s, inputs = set_up(wl, reference, checker, workload, args.seed, work,
                                              import_s, 1 if args.trace else SETUP_REPEATS)
        journey = wl.Journey(inputs, checker)
        if args.trace:
            import tracing

            tracer, counts, epoch_traced, epoch_untraced = run_traced(journey, tracing, seeds, tag)
            table = tracing.SpanTable(tracer)
            metrics, extra = per_layer_metrics(table, counts, epoch_traced, epoch_untraced)
            result_extra["self_ms_by_span"] = table.self_ms_by_name()
            tracer.write(OUT / f"{tag}.spans.jsonl")
        else:
            raw, scaled, rounds, rss = run_timed(journey, reference, seeds, args.seconds)
            metrics, extra = e2e_metrics(wl, inputs.rows, raw, scaled, setup_s, raw_setup_s, rss)
            extra["rounds"] = (rounds, "count")
            report = journey.last_report
            extra.update({"test_auc": (report.auc, "auc"), "test_ddp": (report.ddp, "gap"),
                          "test_deo": (report.deo, "gap")})
            result_extra.update(samples_s=raw, scaled_samples_s=scaled)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_report(tag, env, metrics, extra, checker)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    full = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                seconds=args.seconds, training_seeds=seeds, environment=env,
                failures=checker.failures,
                extra={name: {"value": value, "unit": unit} for name, (value, unit) in extra.items()},
                **result_extra)
    (OUT / f"{tag}.json").write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("fit_fair", "fit_vanilla", "cli_wide", "all"),
                        help="'all' runs every workload, timed and then traced, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print per-metric deltas between two sets of results and exit")
    parser.add_argument("--collect", nargs=2, metavar=("SOURCE", "BUNDLE"),
                        help="bundle the results under SOURCE into one file and exit")
    args = parser.parse_args(argv)
    if args.compare or args.collect:
        import compare
        return compare.main(*args.compare) if args.compare else compare.collect(*args.collect)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        import subprocess

        codes = [subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(trace)]).returncode
                 for workload in ("fit_fair", "fit_vanilla", "cli_wide") for trace in (0, 1)]
        return max(codes)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
