"""Run one kelvinfn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload values_scatter --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: kelvinfn is imported from ./src, in
this one process and thread.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
record the input mix, the sample counts and the times before calibration.

--trace 0 measures the end-to-end metrics: set-up time, then calls in a closed
loop for --seconds of call time, rounded up to whole passes of the workload.
--trace 1 runs one pass of the workload twice, untraced and then with spans
around every layer, and reports the per-layer metrics of the traced pass, the
tracing overhead and the input mix; the spans are written to .perfbench-out/.

Every reported time is in reference seconds (see clock.py).
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from clock import Clock
from tracing import ROUTES, Tracer
from workloads import WORKLOADS, X_BANDS, Check, x_band

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
# calls are timed back to back until this much call time has gathered, then
# the calibration kernel runs
BLOCK_S = 0.005

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "accurate_frac": "ratio", "ok_frac": "ratio"}


def per_layer_unit(name: str) -> str:
    if name.startswith("trace.ops_per_s"):
        return "1/s"
    if name.startswith("verify.suite_s."):
        return "s/call"
    if name.endswith("_per_call"):
        return "count/call"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith("_frac") or name.startswith(("mix.", "orderderiv.route.")):
        return "ratio"
    return "count/op"


def fresh_import():
    """Import kelvinfn (and its CLI) from scratch, as a new process would."""
    for name in [k for k in sys.modules if k == "kelvinfn" or k.startswith("kelvinfn.")]:
        del sys.modules[name]
    kf = importlib.import_module("kelvinfn")
    importlib.import_module("kelvinfn.cli")
    return kf


def setup(workload, clock: Clock):
    """Import plus one warm call of the workload's entry point.

    Returns the package, the measured seconds and their calibration scale.
    """
    t0 = perf_counter()
    kf = fresh_import()
    workload.bind(kf)
    try:
        workload.warm()
    except (Exception, SystemExit):
        pass  # the timed calls record the failure
    dt = perf_counter() - t0
    return kf, dt, clock.calibrate(dt)


def run_calls(workload, clock: Clock, seconds: float | None = None,
              calls: int | None = None, tracer: Tracer | None = None):
    """Closed loop: the next call starts when the previous one returns.

    Returns the outputs, the measured latency of each call, and the mean
    scale of the calibration runs just before and just after the call's block.
    """
    outs, lat, scales = [], [], []
    reported = False
    pending = work = 0.0
    block = i = 0
    before = clock.calibrate(BLOCK_S)
    while True:
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            out = workload.call(i)
        except (Exception, SystemExit) as exc:
            out = exc
            if not reported:
                traceback.print_exc(file=sys.stderr)
                reported = True
        dt = perf_counter() - t0
        outs.append(out)
        lat.append(dt)
        pending += dt
        work += dt
        block += 1
        if pending >= BLOCK_S:
            after = clock.calibrate(pending)
            scales += [(before + after) / 2.0] * block
            before = after
            pending = 0.0
            block = 0
        i += 1
        if calls is not None:
            if i >= calls:
                break
        elif i % workload.pass_len == 0 and work >= seconds:
            break
    if block:
        scales += [(before + clock.calibrate(pending)) / 2.0] * block
    return outs, lat, scales


def per_input(ref_lat: list[float], pass_len: int) -> list[float]:
    """Median latency of each input of the pass over the run's passes, so
    percentiles span the inputs and not the noise."""
    by_input: dict[int, list[float]] = {}
    for i, t in enumerate(ref_lat):
        by_input.setdefault(i % pass_len, []).append(t)
    return [statistics.median(v) for v in by_input.values()]


def band_quantile(values: list[float], q: float) -> float:
    """Mean of the values ranked from quantile q - 0.05 to q + 0.05.

    A single rank is unstable where the sorted values have a gap at q, as
    table_grid's have at its median (negative quarter orders below, positive
    integer and half-integer orders above): that rank flips sides between runs.
    """
    s = sorted(values)
    lo = min(int((q - 0.05) * len(s)), len(s) - 1)
    hi = max(round((q + 0.05) * len(s)), lo + 1)
    return statistics.fmean(s[lo:hi])


def input_mix(checks: list[Check]) -> dict[str, float]:
    """Shares of ops by x band, by order shared with an earlier op, by repeat."""
    bands = Counter()
    seen_nu, seen = set(), set()
    shared = repeated = 0
    for c in checks:
        for nu, x in c.points:
            bands[x_band(x)] += 1
            shared += nu in seen_nu
            repeated += (nu, x) in seen
            seen_nu.add(nu)
            seen.add((nu, x))
    n = max(sum(bands.values()), 1)
    mix = {f"mix.{b}": bands[b] / n for _, b in X_BANDS}
    mix["mix.order_shared_frac"] = shared / n
    mix["mix.repeat_frac"] = repeated / n
    return mix


def totals(checks: list[Check]) -> tuple[int, int, float]:
    ops = sum(c.ops for c in checks)
    failed = sum(c.failed for c in checks)
    accurate = sum(c.accurate for c in checks) / max(sum(c.components for c in checks), 1)
    return ops, failed, accurate


def end_to_end(workload, seconds: float) -> tuple[dict, int, int]:
    setup_clock = Clock()
    setups = [setup(workload, setup_clock)[1:] for _ in range(SETUP_REPEATS)]
    clock = Clock()
    outs, lat, scales = run_calls(workload, clock, seconds=seconds)
    ref_lat = [t * s for t, s in zip(lat, scales)]
    latency = per_input(ref_lat, workload.pass_len)
    checks = [workload.check(i, out) for i, out in enumerate(outs)]
    ops, failed, accurate = totals(checks)
    mix = input_mix(checks)
    routes = Counter(r for c in checks for r in c.routes)
    for tag in ROUTES if routes else ():
        mix[f"orderderiv.route.{tag}"] = routes[tag] / sum(routes.values())
    measured = {
        "setup_s": statistics.median(dt for dt, _ in setups),
        "ops_per_s": ops / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
    }
    print("# mix " + json.dumps(mix))
    print(f"# samples calls={len(lat)} inputs={min(len(lat), workload.pass_len)} "
          f"ops={ops} setups={SETUP_REPEATS} call_s={sum(lat):.3f} "
          f"speed_vs_ref={clock.scale():.4f} setup_speed_vs_ref={setup_clock.scale():.4f}")
    print("# measured " + json.dumps(measured))
    metrics = {
        "setup_s": statistics.median(dt * s for dt, s in setups),
        "ops_per_s": ops / sum(ref_lat),
        "latency_p50_ms": band_quantile(latency, 0.5) * 1e3,
        "latency_p90_ms": band_quantile(latency, 0.9) * 1e3,
        "accurate_frac": accurate,
        "ok_frac": 1.0 - failed / ops,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, ops, failed


def traced_pass(workload, kf, clock: Clock, calls: int):
    """The first ``calls`` calls of the workload with spans recorded."""
    tracer = Tracer()
    tracer.install()
    workload.bind(kf)
    try:
        outs, lat, scales = run_calls(workload, clock, calls=calls, tracer=tracer)
    finally:
        tracer.uninstall()
        workload.bind(kf)
    return tracer, outs, sum(t * s for t, s in zip(lat, scales))


def per_layer(workload) -> tuple[dict, int, int]:
    kf = setup(workload, Clock())[0]
    calls = workload.pass_len
    clock_u, clock_t = Clock(), Clock()
    outs_u, lat, scales = run_calls(workload, clock_u, calls=calls)
    ref_s_u = sum(t * s for t, s in zip(lat, scales))
    tracer, outs_t, ref_s_t = traced_pass(workload, kf, clock_t, calls)
    ops_u, failed_u, _ = totals([workload.check(i, out) for i, out in enumerate(outs_u)])
    checks_t = [workload.check(i, out) for i, out in enumerate(outs_t)]
    ops_t, failed_t, _ = totals(checks_t)
    metrics = tracer.metrics(ops_t)
    for k in metrics:
        if per_layer_unit(k) in ("s/op", "s/call"):
            metrics[k] *= clock_t.scale()
    metrics.update(input_mix(checks_t))
    rate_u, rate_t = ops_u / ref_s_u, ops_t / ref_s_t
    metrics["trace.ops_per_s_untraced"] = rate_u
    metrics["trace.ops_per_s_traced"] = rate_t
    metrics["trace.overhead_frac"] = 1.0 - rate_t / rate_u
    print("# mix " + json.dumps({k: v for k, v in metrics.items()
                                 if k.startswith(("mix.", "orderderiv.route."))}))
    print(f"# samples calls={calls} ops={ops_t} spans={len(tracer.names)} "
          f"speed_vs_ref={clock_t.scale():.4f}")
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{workload.name}.spans.csv.gz")
    return ({k: (v, per_layer_unit(k)) for k, v in metrics.items()},
            ops_u + ops_t, failed_u + failed_t)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "kelvinfn" / "__init__.py").is_file():
        print(f"run.py: no kelvinfn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, attempted, failed = per_layer(workload)
    else:
        metrics, attempted, failed = end_to_end(workload, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
