"""The repository benchmark: three seeded workloads against ``src/repro``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {wire,bulk-scan,mac-sim} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the workload twice for ``S/2`` seconds each,
untraced and then traced, and reports the per-layer metrics, with the
tracing overhead as traced minus untraced end-to-end figures.  Every
answer is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero when any answer was wrong or the run was invalid.

The end-to-end metrics are slots every workload fills with its own
figures (``perfbench/README.md`` maps them to the per-workload names,
which are printed above the JSON line):

* ``setup_s``: median of repeated cold set-ups;
* ``rate_per_s`` / ``rate2_per_s``: the workload's two throughputs;
* ``p50_ms`` / ``p99_ms``: latency of the workload's requests (``wire``)
  or of its cycles of calls (the in-process workloads);
* ``peak_rss_mib``: peak memory of the process doing the work.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (("setup_s", "s"), ("rate_per_s", "1/s"),
              ("rate2_per_s", "1/s"), ("p50_ms", "ms"), ("p99_ms", "ms"),
              ("peak_rss_mib", "MiB"))

#: Per-layer metrics, in the order printed; every workload reports all
#: of them, zero where the workload does not reach the layer.
PER_LAYER = (
    ("transport.client_encode_us", "us"),
    ("transport.client_decode_us", "us"),
    ("transport.server_decode_us", "us"),
    ("transport.server_encode_us", "us"),
    ("transport.socket_ms", "ms"),
    ("transport.client_encode_us_b", "us"),
    ("transport.client_decode_us_b", "us"),
    ("transport.server_decode_us_b", "us"),
    ("transport.server_encode_us_b", "us"),
    ("transport.socket_ms_b", "ms"),
    ("transport.frame_bytes", "bytes"),
    ("service.in_service_ms_a", "ms"),
    ("service.in_service_ms_b", "ms"),
    ("service.queue_wait_ms_a", "ms"),
    ("service.queue_wait_ms_b", "ms"),
    ("service.coalesce_ratio_a", "ratio"),
    ("service.coalesce_ratio_b", "ratio"),
    ("service.fast_path_frac", "ratio"),
    ("service.rejected", "count"),
    ("api.assign_s", "s"),
    ("api.assign_calls", "count"),
    ("api.verify_s", "s"),
    ("api.verify_calls", "count"),
    ("api.edit_s", "s"),
    ("api.edit_calls", "count"),
    ("api.verify_source.scan", "count"),
    ("api.verify_source.delta", "count"),
    ("api.verify_source.cache", "count"),
    ("api.verify_source.certificate", "count"),
    ("core.find_collisions_self_s", "s"),
    ("core.stream_slabs", "count"),
    ("core.stream_self_s", "s"),
    ("engine.slot_lookup_s", "s"),
    ("engine.scan_s", "s"),
    ("engine.encode_s", "s"),
    ("engine.randmac_s", "s"),
    ("utils.box_points_s", "s"),
    ("utils.bounding_box_s", "s"),
    ("net.step_s", "s"),
    ("net.decide_s", "s"),
    ("net.transmissions", "count"),
    ("net.failed_receptions", "count"),
    ("net.success_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.offered_rps", "1/s"),
    ("loadgen.achieved_rps", "1/s"),
    ("loadgen.backlog_ratio", "ratio"),
    ("trace.delta_rate_per_s", "1/s"),
    ("trace.delta_rate2_per_s", "1/s"),
    ("trace.delta_p50_ms", "ms"),
    ("trace.delta_p99_ms", "ms"),
)

_TRANSPORT_SPANS = ("transport.encode_request", "transport.encode_bulk",
                    "transport.write_frame", "transport.read_frame",
                    "transport.decode_result", "transport.decode_request",
                    "transport.encode_result", "transport.server_handle")

#: Span coverage: spans each workload must fire, and spans it must not,
#: because the workload is predicted to bypass that layer.
COVERAGE = {
    "wire": {
        "fires": _TRANSPORT_SPANS + ("api.assign", "api.verify",
                                     "api.edit"),
        "silent": ("net.run", "net.decide", "engine.randmac",
                   "core.stream"),
    },
    "bulk-scan": {
        "fires": ("api.verify", "api.assign", "core.find_collisions",
                  "core.stream", "engine.slot_lookup", "engine.scan",
                  "engine.encode", "engine.keys_array", "utils.box_points",
                  "utils.bounding_box"),
        "silent": _TRANSPORT_SPANS + ("net.run", "net.decide",
                                      "engine.randmac", "api.edit"),
    },
    "mac-sim": {
        "fires": ("net.run", "net.decide", "engine.randmac"),
        "silent": _TRANSPORT_SPANS + ("core.stream", "api.assign",
                                      "api.verify", "api.edit"),
    },
}
#: Phase A serves one request at a time; Phase B must coalesce.
MAX_COALESCE_A = 1.5
MIN_COALESCE_B = 1.5


def _merge(snapshots: list[dict]) -> dict:
    merged: dict = {"calls": {}, "total": {}, "self": {}, "nested": {},
                    "outcomes": {}}
    for snapshot in snapshots:
        for key, values in snapshot.items():
            for name, value in values.items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def _layers(spans: dict, base, traced) -> dict:
    """Every per-layer metric from merged spans and the two passes."""
    calls, total, own = spans["calls"], spans["total"], spans["self"]
    layers = {name: 0.0 for name, _ in PER_LAYER}
    for op in ("assign", "verify", "edit"):
        layers[f"api.{op}_s"] = total.get(f"api.{op}", 0.0)
        layers[f"api.{op}_calls"] = calls.get(f"api.{op}", 0)
    for source in ("scan", "delta", "cache", "certificate"):
        layers[f"api.verify_source.{source}"] = spans["outcomes"].get(
            f"verify_source.{source}", 0)
    layers["core.find_collisions_self_s"] = own.get("core.find_collisions",
                                                    0.0)
    layers["core.stream_slabs"] = spans["nested"].get(
        "core.stream>core.find_collisions", 0)
    layers["core.stream_self_s"] = own.get("core.stream", 0.0)
    layers["engine.slot_lookup_s"] = own.get("engine.slot_lookup", 0.0)
    layers["engine.scan_s"] = own.get("engine.scan", 0.0)
    layers["engine.encode_s"] = (own.get("engine.encode", 0.0)
                                 + own.get("engine.keys_array", 0.0))
    layers["engine.randmac_s"] = total.get("engine.randmac", 0.0)
    layers["utils.box_points_s"] = total.get("utils.box_points", 0.0)
    layers["utils.bounding_box_s"] = total.get("utils.bounding_box", 0.0)
    layers["net.step_s"] = own.get("net.run", 0.0)
    layers["net.decide_s"] = own.get("net.decide", 0.0)
    layers.update(traced.layers)
    for name in ("rate_per_s", "rate2_per_s", "p50_ms", "p99_ms"):
        layers[f"trace.delta_{name}"] = traced.e2e[name] - base.e2e[name]
    return layers


def _coverage_problems(workload: str, spans: dict, layers: dict) -> list:
    calls = spans["calls"]
    expected = COVERAGE[workload]
    problems = [f"span {name} never fired on {workload}"
                for name in expected["fires"] if not calls.get(name)]
    problems += [f"span {name} fired on {workload}, which should bypass it"
                 for name in expected["silent"] if calls.get(name)]
    if workload == "wire":
        if layers["service.coalesce_ratio_a"] > MAX_COALESCE_A:
            problems.append(f"Phase A coalesced "
                            f"{layers['service.coalesce_ratio_a']:.2f} "
                            f"requests per dispatch")
        if layers["service.coalesce_ratio_b"] < MIN_COALESCE_B:
            problems.append(f"Phase B coalesced only "
                            f"{layers['service.coalesce_ratio_b']:.2f} "
                            f"requests per dispatch")
    return problems


def _print_named(workload: str, label: str, named: dict) -> None:
    for name, (value, unit) in named.items():
        print(f"{workload} {label}{name} = {value:.6g} {unit}")


def run(args, ctx) -> tuple[dict, int, int, list]:
    import common
    import mac_workload
    import scan_workload
    import wire_workload

    module = {"wire": wire_workload, "bulk-scan": scan_workload,
              "mac-sim": mac_workload}[args.workload]
    if not args.trace:
        if args.workload == "wire":
            samples = wire_workload.setup_samples(ctx)
        else:
            samples = common.probe_setup(ctx, args.workload)
        measured = module.measure(ctx, args.seconds)
        values = {"setup_s": common.median(samples), **measured.e2e}
        error_frac = measured.failed / max(measured.attempted, 1)
        _print_named(args.workload, "", {
            "setup_s": (values["setup_s"], "s"),
            **measured.named, "error_frac": (error_frac, "ratio")})
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        return (metrics, measured.attempted, measured.failed,
                measured.problems)

    import tracer as tracing

    base = module.measure(ctx, args.seconds / 2)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = module.measure(ctx, args.seconds / 2, tracer)
    spans = _merge([tracer.snapshot(), *traced.server_trace])
    layers = _layers(spans, base, traced)
    problems = base.problems + traced.problems + _coverage_problems(
        args.workload, spans, layers)
    _print_named(args.workload, "untraced ", base.named)
    _print_named(args.workload, "traced ", traced.named)
    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    return (metrics, base.attempted + traced.attempted,
            base.failed + traced.failed, problems)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("wire", "bulk-scan", "mac-sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: no {source.relative_to(ROOT)} in this checkout; "
              f"run from the root of a full checkout", file=sys.stderr)
        return 2
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve() != source.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2

    import common

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ctx = common.Context(root=ROOT, seed=args.seed, tmp=tmp)
        metrics, attempted, failed, problems = run(args, ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
