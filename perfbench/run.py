"""Benchmark driver for intlab: one workload, one seed, one process.

    python3 perfbench/run.py --workload direct-flow --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; intlab is imported from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object; the full record (environment, per-item residuals and,
when traced, every span) goes to perfbench/results/.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

# Small dense matrices: BLAS threads only add noise, and one thread keeps
# floating-point sums, hence step counts, identical between runs.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
EPS = 2.220446049250313e-16

def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def digits_lost(rel_err):
    """Decimal digits lost against double precision: 0 means exact to eps.

    An error at or above 1 has no correct digit left, so it counts as
    all log10(1/eps) = 15.65 digits lost and no more.
    """
    return math.log10(min(max(rel_err, EPS), 1.0) / EPS)


class Runner:
    """Runs items of one workload, checks them and keeps the records."""

    def __init__(self, workload, clock):
        self.workload = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.records = []

    def run_item(self, ctx, inp, slot):
        """Time one item (the program calls only), then check it untimed.
        Returns the item's scaled time."""
        self.attempted += 1
        out, error, wall, scaled = self.clock.call(self.workload.run, ctx, inp)
        if error is not None:
            self._fail(slot, wall, scaled, f"{type(error).__name__}: {error}")
            return scaled
        try:
            residuals = self.workload.check(ctx, inp, out)
        except Exception as exc:  # item boundary: count it and go on
            self._fail(slot, wall, scaled, f"check raised {type(exc).__name__}: {exc}")
            return scaled
        bad = [
            name
            for name, err, tol in residuals
            if not math.isfinite(err) or (tol is not None and err > tol)
        ]
        if bad:
            self.failed += 1
        self.records.append(
            {
                "slot": slot,
                "wall_s": wall,
                "scaled_s": scaled,
                "failed": bad,
                "residuals": {name: err for name, err, _ in residuals},
            }
        )
        return scaled

    def _fail(self, slot, wall, scaled, reason):
        self.failed += 1
        print(f"item {slot} failed: {reason}", file=sys.stderr)
        self.records.append({"slot": slot, "wall_s": wall, "scaled_s": scaled, "failed": [reason]})

    def residual_max(self):
        """Largest finite value of each residual over all checked items."""
        worst = {}
        for rec in self.records:
            for name, err in rec.get("residuals", {}).items():
                if math.isfinite(err):
                    worst[name] = max(worst.get(name, 0.0), err)
        return worst


def set_up(workload, api, rng):
    """Systems, seeded inputs and one short warm-up item."""
    ctx = workload.context(api)
    inputs = workload.make_inputs(rng)
    workload.run(ctx, inputs[0], warmup=True)
    return ctx, inputs


def measure(runner, ctx, inputs, seconds):
    """Cycle over the input slots until `seconds` have passed, finishing at
    least one full pass.  Returns the scaled item times of each slot."""
    times = [[] for _ in inputs]
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(inputs) or time.perf_counter() < deadline:
        slot = k % len(inputs)
        times[slot].append(runner.run_item(ctx, inputs[slot], slot))
        k += 1
    return times


def end_to_end_metrics(runner, times, setup_s):
    slot_medians = [statistics.median(t) for t in times]
    per_item_lost = [
        digits_lost(max(rec["residuals"].values()))
        for rec in runner.records
        if rec.get("residuals") and all(math.isfinite(v) for v in rec["residuals"].values())
    ]
    return {
        "setup_s": setup_s,
        "items_per_s": len(slot_medians) / sum(slot_medians),
        "item_p50_s": statistics.median(slot_medians),
        "digits_lost": max(per_item_lost, default=digits_lost(1.0)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_measure(workload, runner, plain_ctx, tracer, traced_ctx, inputs, seconds):
    """Passes over the first trace_slots inputs, each item run untraced and
    traced back to back (order alternating), until `seconds` have passed.
    A pass starts only if the previous one would still fit."""
    slots = inputs[: workload.trace_slots]
    plain_s = traced_s = 0.0
    item_scale = {}
    passes = 0
    start = time.perf_counter()
    last = 0.0
    while passes == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for slot, inp in enumerate(slots):
            order = (False, True) if (slot + passes) % 2 == 0 else (True, False)
            for traced in order:
                if traced:
                    item_id = passes * len(slots) + slot
                    with tracer.item(item_id):
                        traced_s += runner.run_item(traced_ctx, inp, slot)
                    rec = runner.records[-1]
                    item_scale[item_id] = rec["scaled_s"] / rec["wall_s"]
                else:
                    plain_s += runner.run_item(plain_ctx, inp, slot)
        passes += 1
        last = time.perf_counter() - t0
    return passes, traced_s / plain_s - 1.0, item_scale


def per_layer_metrics(names, summary, tracer, passes, residuals, overhead):
    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    def calls(*names):
        return sum(stat(n, "calls") for n in names) / passes

    def total(*names):
        return sum(stat(n, "total_s") for n in names) / passes

    def us(*names):
        c = calls(*names)
        return total(*names) / c * 1e6 if c else 0.0

    def both(name):
        return (name, name + ":audit")

    rhs = calls("sutherland.grad", "calogero.grad") + sum(
        stat(name, "calls") / (4 * dim) for name, dim in tracer.fd_dims.items()
    ) / passes
    audit = total(*[n for n in summary if n.endswith(":audit") or n.startswith("dynamics.audit.")])
    values = {
        "dynamics.integrate_flow.calls": calls("dynamics.integrate_flow"),
        "dynamics.integrate_flow.self_s": stat("dynamics.integrate_flow", "self_s") / passes,
        "dynamics.rhs_evals": rhs,
        "dynamics.boundary_margin.calls": calls("dynamics.boundary_margin"),
        "dynamics.extract_scattering.total_s": total("dynamics.extract_scattering"),
        "dynamics.audit_s": audit,
        "sutherland.hamiltonian.calls": calls(*both("sutherland.hamiltonian")),
        "sutherland.hamiltonian.us_per_call": us(*both("sutherland.hamiltonian")),
        "sutherland.dual_hamiltonian.calls": calls(*both("sutherland.dual_hamiltonian")),
        "sutherland.dual_hamiltonian.us_per_call": us(*both("sutherland.dual_hamiltonian")),
        "sutherland.dual_hamiltonian.total_s": total(*both("sutherland.dual_hamiltonian")),
        "trace.overhead_frac": overhead,
    }
    for name in names:
        if name in values:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls(base)
        elif kind == "us_per_call":
            values[name] = us(base)
        elif kind == "total_s":
            values[name] = total(base)
        else:  # a residual: its largest value over the traced items
            values[name] = residuals.get(name, 0.0)
    return {name: values[name] for name in names}


def import_program():
    for module in ("intlab.dynamics", "intlab.linalg", "intlab.calogero", "intlab.sutherland"):
        importlib.import_module(module)


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def main():
    args = parse_args()
    if not (ROOT / "src" / "intlab" / "__init__.py").is_file():
        print(f"intlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    # Third-party imports are not the program's set-up; intlab's are.
    import numpy as np
    import scipy.integrate  # noqa: F401

    from clock import Clock

    clock = Clock()
    with clock:
        _, error, import_wall, import_scaled = clock.call(import_program)
    if error is not None:
        raise error

    import tracing
    from workloads import KNOWN_DEFECTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    stream = sorted(WORKLOADS).index(args.workload)

    runner = Runner(workload, clock)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "import_wall_s": import_wall,
        "import_scaled_s": import_scaled,
        "known_defects": KNOWN_DEFECTS,
    }
    with clock:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            rng = np.random.default_rng([args.seed, stream])
            made, error, _, scaled = clock.call(set_up, workload, tracing.Api(), rng)
            if error is not None:
                raise error
            ctx, inputs = made
            setup_times.append(scaled)
        setup_s = import_scaled + statistics.median(setup_times)
        record["setup_repeats_scaled_s"] = setup_times

        if args.trace == 0:
            times = measure(runner, ctx, inputs, args.seconds)
        else:
            tracer = tracing.Tracer(clock.now)
            traced_ctx = workload.context(tracer)
            passes, overhead, item_scale = traced_measure(
                workload, runner, ctx, tracer, traced_ctx, inputs, args.seconds
            )

    if args.trace == 0:
        metrics = end_to_end_metrics(runner, times, setup_s)
        wanted = [m["name"] for m in spec["end_to_end"]]
        record["slot_times_scaled_s"] = times
    else:
        summary = tracing.summarize(tracer, item_scale)
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer_metrics(
            wanted, summary, tracer, passes, runner.residual_max(), overhead
        )
        record["passes"] = passes
        record["item_scale"] = item_scale
        record["span_summary"] = summary
        record["spans"] = tracing.span_columns(tracer)

    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in wanted}
    record["items"] = runner.records
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    env = record["environment"]
    print(
        f"# {workload.name} seed={args.seed} trace={args.trace} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"blas={env['blas']} blas_threads=1"
    )
    print(f"# attempted={runner.attempted} failed={runner.failed} "
          f"failed_frac={runner.failed / max(runner.attempted, 1):.4g} (fraction)")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        lost = metrics["digits_lost"]
        print(f"# accuracy_digits {-math.log10(EPS) - lost:.4g} digits")
    print(f"# full record: {out.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0 and runner.attempted > 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
