"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload recover --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones,
taken from wrappers around each layer's public functions.  Times are in
nominal seconds, scaled to a fixed machine speed by ``speed.SpeedMeter``.
Lines before the result give the environment and every metric by name with
its unit, the wall-clock figures included.  See ``bench/README.md`` for what
each workload and metric means.
"""

from __future__ import annotations

import os

# pin the BLAS pools of this process (and of the import probes) to one thread
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

MIN_OPS = 3  # untraced runs; a traced run does at least 2 untraced + 2 traced
SETUP_REPEATS = 5
IMPORT_PROBE = "import agrm.cli, agrm.core, agrm.data, agrm.gradients, agrm.head, agrm.losses, agrm.trainer"

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "op_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# workload-specific names for the report lines above the result
NAMED_UNITS = {
    "wall.items_per_s": "1/s",
    "wall.op_s": "s",
    "wall.setup_s": "s",
    "machine_speed": "ratio",
    "train_items_per_s": "1/s",
    "roundtrip_records_per_s": "1/s",
    "score_records_per_s": "1/s",
    "write_records_per_s": "1/s",
    "verify_draws_per_s": "1/s",
    "fd_coords_per_s": "1/s",
    "heldout_srcc": "ratio",
    "epochs_to_target": "count",
    "planted_srcc": "ratio",
    "error_rate": "ratio",
}


def layer_targets():
    """(span name, owner, attribute, count_only, units) for every traced function."""
    from agrm import cli, core, data, gradients, head, losses, trainer

    def file_bytes(args, _result):
        return os.path.getsize(args[0])

    def batch_items(args, _result):
        return len(args[1])

    span = [
        ("core.agrm_probs", core, "agrm_probs"),
        ("core.ProbVector", core.ProbVector, "__init__"),
        ("core.category_probs", core, "category_probs"),
        ("core.is_unimodal", core, "is_unimodal"),
        ("core.boundary_thetas", core, "boundary_thetas"),
        ("head.head_forward", head, "head_forward"),
        ("head.init_head", head, "init_head"),
        ("gradients.batch_loss_and_grads", gradients, "batch_loss_and_grads", batch_items),
        ("gradients.fd_check", gradients, "fd_check"),
        ("trainer.adamw_step", trainer, "adamw_step"),
        ("trainer.evaluate", trainer, "evaluate"),
        ("trainer.evaluate_by_dim", trainer, "evaluate_by_dim"),
        ("trainer.save_checkpoint", trainer, "save_checkpoint"),
        ("trainer.load_checkpoint", trainer, "load_checkpoint"),
        ("trainer.train", trainer, "train"),
        ("data.synth_generate", data, "synth_generate"),
        ("data.save_records", data, "save_records", file_bytes),
        ("data.load_records", data, "load_records", file_bytes),
        ("losses.total_loss", losses, "total_loss"),
        ("losses.srcc", losses, "srcc"),
        ("losses.plcc_metric", losses, "plcc_metric"),
        ("cli.main", cli, "main"),
    ]
    targets = [(t[0], t[1], t[2], False, t[3] if len(t) > 3 else None) for t in span]
    # counted, not timed: its cost stays in the self time of its callers
    targets.append(("data.FeatureRecord.pair", data.FeatureRecord, "pair", True, None))
    modules = [cli, core, data, gradients, head, losses, trainer]
    return targets, modules


def import_probe() -> None:
    """A fresh interpreter imports the package; the caller times it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, cwd=ROOT)


def make_phase(tracer, meter):
    """Context factory for named phases: always timed, spans only when traced."""

    @contextlib.contextmanager
    def phase(name):
        ctx = tracer.span("phase." + name, phase=name) if tracer else contextlib.nullcontext()
        with ctx:
            timer = meter.interval()
            try:
                yield timer
            finally:
                timer.stop()

    return phase


def environment(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def run(args, sizes=None) -> dict:
    """Set up, run ops until ``args.seconds`` is spent, and summarise them.

    ``sizes`` overrides the workload's input sizes (the smoke test shrinks
    them).  An op that raises counts as one failed operation and is left
    out of the timings.
    """
    from spans import Tracer
    from speed import SpeedMeter
    from workloads import WORKLOADS

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, workdir, sizes)
    tracer = None
    if args.trace:
        targets, modules = layer_targets()
        tracer = Tracer(targets, modules)

    with SpeedMeter() as meter:
        setups = []
        for _ in range(SETUP_REPEATS):
            timer = meter.interval()
            with meter.paused():
                import_probe()
            wl.generate()
            setups.append(timer.stop())
        plain, traced, attempted, failed = run_ops(args, wl, meter, tracer)
        speed = meter.speed()

    # totals over the run, not medians: a run holds as few as 3 multi-second
    # ops, and their median moved more from run to run than the total did
    items = sum(op["items"] for op in plain)
    end_to_end = {
        "items_per_s": items / sum(op["rate"].nominal for op in plain),
        "op_s": sum(op["op"].nominal for op in plain) / len(plain),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(t.nominal for t in setups),
    }
    # the same rate and the workload's own values under their specific names,
    # then the wall-clock figures the nominal ones were scaled from
    named = {wl.rate_name: end_to_end["items_per_s"]}
    for key in plain[0]["outcome"].values:
        named[key] = statistics.median(op["outcome"].values[key] for op in plain)
    named["error_rate"] = failed / attempted
    named["wall.items_per_s"] = items / sum(op["rate"].wall for op in plain)
    named["wall.op_s"] = sum(op["op"].wall for op in plain) / len(plain)
    named["wall.setup_s"] = statistics.median(t.wall for t in setups)
    named["machine_speed"] = speed

    result = {
        "ops_plain": len(plain),
        "ops_traced": len(traced),
        "op_walls_plain": [op["op"].wall for op in plain],
        "op_walls_traced": [op["op"].wall for op in traced],
        "named": named,
        "end_to_end": end_to_end,
    }
    if tracer:
        result["per_layer"] = per_layer(tracer, wl, plain, traced)
        tracer.write(workdir / "spans.npz")
    result.update(correct=failed == 0, attempted=attempted, failed=failed)
    return result


def run_ops(args, wl, meter, tracer):
    """Ops back to back until the next one would overrun ``args.seconds``.

    A traced run alternates untraced and traced ops.  Each op is kept as
    its item count, its op and rate-phase timers and the check's outcome;
    the op's outputs are dropped once checked, so memory does not grow with
    the number of ops.
    """
    plain, traced, walls = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    min_ops = MIN_OPS + 1 if tracer else MIN_OPS
    while len(walls) < min_ops or (
        time.perf_counter() - start + statistics.median(walls) <= args.seconds
    ):
        use_trace = tracer is not None and len(walls) % 2 == 1
        phase = make_phase(tracer if use_trace else None, meter)
        timer = meter.interval()
        try:
            if use_trace:
                with tracer.installed(), tracer.span("op." + args.workload):
                    st = wl.op(phase)
            else:
                st = wl.op(phase)
            timer.stop()
            outcome = wl.check(st)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            walls.append(time.perf_counter() - timer.t0)
            attempted += 1
            failed += 1
            continue
        walls.append(timer.wall)
        attempted += outcome.attempted
        failed += outcome.failed
        op = {"items": st["items"], "op": timer, "rate": st["rate"], "outcome": outcome}
        (traced if use_trace else plain).append(op)
        del st
    if not plain or (tracer is not None and not traced):
        raise RuntimeError(f"every {args.workload} operation raised; no timings to report")
    return plain, traced, attempted, failed


def result_metrics(result: dict, trace: int) -> dict:
    """The ``metrics`` object of the result line: each value with its unit."""
    if trace:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in result["per_layer"].items()}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()}


def per_layer(tracer, wl, plain, traced) -> dict:
    """Per-layer metrics from the traced ops; see bench/README.md for names."""
    n_ops = len(traced)
    metrics = {}
    for name, stats in tracer.layer_stats(n_ops).items():
        for stat, value in stats.items():
            metrics[f"{name}.{stat}"] = value
    items = sum(op["items"] for op in traced)
    count_phase = wl.count_phase
    metrics["core.agrm_probs.calls_per_item"] = tracer.count("core.agrm_probs", count_phase) / items
    metrics["head.head_forward.calls_per_record"] = (
        tracer.count("head.head_forward", count_phase) / items
    )
    metrics["data.FeatureRecord.pair.calls_per_item"] = (
        tracer.count("data.FeatureRecord.pair", count_phase) / items
    )
    blg = tracer.units("gradients.batch_loss_and_grads")
    metrics["gradients.batch_loss_and_grads.us_per_item"] = (
        metrics["gradients.batch_loss_and_grads.total_ms"] * n_ops * 1e3 / blg if blg else 0.0
    )
    metrics["data.save_records.bytes"] = tracer.units("data.save_records") / n_ops
    metrics["data.load_records.bytes"] = tracer.units("data.load_records") / n_ops
    values = [op["outcome"].values for op in traced]
    metrics["trainer.train.epochs_to_target"] = float(
        statistics.median(v.get("epochs_to_target", 0) for v in values)
    )
    metrics["trainer.evaluate.heldout_srcc"] = float(
        statistics.median(v.get("heldout_srcc", 0.0) for v in values)
    )
    plain_s = statistics.median(op["op"].nominal for op in plain)
    traced_s = statistics.median(op["op"].nominal for op in traced)
    metrics["trace.overhead_ms"] = (traced_s - plain_s) * 1e3
    metrics["trace.overhead_pct"] = (traced_s - plain_s) / plain_s * 100.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "agrm").is_dir():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    env = environment(args)
    result = run(args)
    (WORK / args.workload / "result.json").write_text(
        json.dumps({"env": env, **result}, indent=2, sort_keys=True) + "\n"
    )

    print("env " + json.dumps(env, sort_keys=True))
    print(f"ops: {result['ops_plain']} untraced, {result['ops_traced']} traced")
    for name, value in result["named"].items():
        print(f"{name} = {value!r} {NAMED_UNITS[name]}")
    metrics = result_metrics(result, args.trace)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {
        "calls": "count",
        "total_ms": "ms",
        "self_ms": "ms",
        "p50_us": "us",
        "tail_us": "us",
        "calls_per_item": "count",
        "calls_per_record": "count",
        "us_per_item": "us",
        "bytes": "B",
        "epochs_to_target": "count",
        "heldout_srcc": "ratio",
        "overhead_ms": "ms",
        "overhead_pct": "%",
    }[stat]


if __name__ == "__main__":
    sys.exit(main())
