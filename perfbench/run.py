#!/usr/bin/env python3
"""perfbench — the repository benchmark.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload steady|traffic_chaos|paper_repair \\
      --seed N --seconds S --trace 0|1

Builds the driver (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, writes the workload's scenario program for the
seed, runs it, checks the outputs and prints one JSON line last:

  {"correct": true, "attempted": R, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, as medians over the timeline
repetitions that fit in --seconds (at least three, each in its own
process), with timings scaled to nominal memory speed by a probe the
driver runs between rounds.  --trace 1 reports the per-layer metrics
from one traced run, next to the untraced runs it is checked against.
Any failed check exits 1 without a result line.  README.md beside this file defines every
metric and workload.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150

# ---- workloads ---------------------------------------------------------------
# Each workload is a .poly timeline.  The first `run` stage is the warm-up
# (it belongs to set-up); every round after it is measured.  The seed is
# the only input that varies.

HEADER = """name {name}
shape grid:80x80
engine {engine}
seed {seed}
reps 1
k 4
measure every 20
run 20
"""

TIMELINES = {
    "steady": (
        "events",
        """measure every 40
run 40
expect frames_rejected == 0 @ end
expect alive == 6400 @ end
expect reliability >= 0.999 @ end
""",
    ),
    "traffic_chaos": (
        "events",
        """measure every 1
traffic 6400 mixed
run 4
partition zone 0 0 40 80 heal 6
run 6
degrade zone 40 0 80 40 both drop 0.2 jitter 4 heal 6
run 6
crash frac 0.3
run 6
recover all
run 6
drain
expect requests >= 100000 @ end
expect success_rate >= 0.9 @ end
expect frames_blackholed > 0 @ end
expect frames_rejected == 0 @ end
expect reliability >= 0.95 @ end
""",
    ),
    "paper_repair": (
        "sync",
        """measure every 1
crash half
run 15
grow crashed
run 10
expect alive == 6400 @ end
expect reliability >= 0.95 @ end
""",
    ),
}

# ---- metrics -----------------------------------------------------------------
# Names and units come from BENCHMARK.json at the checkout root.  A
# workload an end-to-end metric does not apply to reports it as the
# constant 1 (marked n/a in the text report): every run carries every
# metric.
APPLIES = {
    "reliability": ("paper_repair", "traffic_chaos"),
    "reshape_rounds": ("paper_repair", "traffic_chaos"),
    "success_rate": ("traffic_chaos",),
    "p50_latency_ms": ("traffic_chaos",),
    "p999_latency_ms": ("traffic_chaos",),
}
# Deterministic for a fixed seed: every repetition must agree exactly.
EXACT = ["msgs_per_node_round", "reliability", "reshape_rounds",
         "p50_latency_ms", "p999_latency_ms", "requests_offered",
         "requests_completed", "requests_failed", "frames_rejected",
         "digest"]
# Exact figures of the traced run (by name suffix).
TRACE_EXACT = ("events_per_node_round", "frames_per_node_round",
               "arena_used_per_node", "digest")

# The memory probe's time on an uncontended host (driver/report.hpp).
# Set-up and window wall times are scaled by PROBE_NOMINAL_S over the
# median probe time measured between their rounds: the probe follows the
# shared cache and memory contention from other tenants of the host,
# which otherwise moves the simulator's speed by a third from one minute
# to the next.
PROBE_NOMINAL_S = 0.003

CLOSURE_TOLERANCE = 0.05
ROUTING_PROBES = 64  # closest_view_member lookups a round (traffic_chaos)


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---- build and run -------------------------------------------------------------


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def run_child(cmd, timeout, stdout):
    """Runs `cmd` in its own process group and waits for it; on a timeout
    or an error the whole group (compilers under cmake too) is killed and
    reaped before the exception propagates."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=stdout,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise CheckFailed(f"{pathlib.Path(str(cmd[0])).name} {cmd[1]} exited "
                          f"{proc.returncode}")
    return out


def build(bdir):
    if not (ROOT / "src").is_dir():
        raise CheckFailed(f"no library sources at {ROOT / 'src'}")
    if not (bdir / "CMakeCache.txt").exists():
        run_child(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"], 120, sys.stderr)
    run_child(["cmake", "--build", bdir, "-j", "4"], 720, sys.stderr)
    return bdir / "perfbench_driver"


def driver(exe, *args):
    """Runs one driver invocation; returns its JSON report."""
    out = run_child([exe, *args], CHILD_TIMEOUT_S, subprocess.PIPE)
    return json.loads(out.strip().splitlines()[-1])


def write_program(bdir, workload, seed, text, suffix=""):
    path = bdir / "work" / f"{workload}-{seed}{suffix}.poly"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def program_text(workload, seed):
    engine, body = TIMELINES[workload]
    return HEADER.format(name=workload, engine=engine, seed=seed) + body


def without_traffic(text, drain_rounds):
    """The pairing program: traffic lines and their expects removed, and
    `drain` replaced by as many plain rounds as the traffic run drained."""
    out = []
    for line in text.splitlines():
        word = line.split()[0] if line.split() else ""
        if word == "traffic":
            continue
        if word == "expect" and line.split()[1] in (
                "requests", "requests_failed", "success_rate",
                "p50_latency_ms", "p99_latency_ms", "p999_latency_ms",
                "mean_hops"):
            continue
        if word == "drain":
            if drain_rounds:
                out.append(f"run {drain_rounds}")
            continue
        out.append(line)
    return "\n".join(out) + "\n"


# ---- checks ---------------------------------------------------------------------


def check_rep(workload, rep):
    check(rep["frames_rejected"] == 0,
          f"{rep['frames_rejected']} frames rejected at the decode boundary")
    if workload == "traffic_chaos":
        settled = rep["requests_completed"] + rep["requests_failed"]
        check(rep["requests_inflight"] == 0,
              f"{rep['requests_inflight']} requests in flight after drain")
        check(settled == rep["requests_offered"],
              f"request conservation: launched {rep['requests_offered']} != "
              f"completed {rep['requests_completed']} + failed "
              f"{rep['requests_failed']}")
        check(rep["requests_completed"] >= 100000,
              f"only {rep['requests_completed']} requests completed")
    if workload in ("paper_repair", "traffic_chaos"):
        check(rep["reshape_rounds"] is not None,
              "the fleet never reshaped after the crash")


def check_same(reps, keys, what):
    for k in keys:
        values = {json.dumps(r.get(k)) for r in reps}
        check(len(values) == 1, f"{what}: {k} differs across runs: {values}")


def exact_cache(bdir, exe, prog, mode, figures):
    """Cross-run determinism: every run of one (driver binary, program,
    mode) in this checkout must report the same exact figures."""
    key = hashlib.sha1(exe.read_bytes() + prog.read_bytes()).hexdigest()
    path = bdir / "exact" / f"{prog.stem}-{mode}-{key[:16]}.json"
    if path.exists():
        before = json.loads(path.read_text())
        for k, v in figures.items():
            check(before.get(k) == v,
                  f"determinism: {k} was {before.get(k)} in an earlier run "
                  f"of this binary and seed, now {v}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(figures, sort_keys=True))


def at_nominal(seconds, probe_s):
    return seconds * PROBE_NOMINAL_S / probe_s


# ---- the two modes ------------------------------------------------------------


def metric_specs(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def end_to_end(exe, bdir, workload, seed, seconds):
    prog = write_program(bdir, workload, seed, program_text(workload, seed))
    reps = []
    start = time.monotonic()
    while True:
        rep = driver(exe, "scenario", prog)
        check_rep(workload, rep)
        reps.append(rep)
        elapsed = time.monotonic() - start
        if len(reps) >= 3 and elapsed + elapsed / len(reps) > seconds:
            break
    check_same(reps, EXACT, "repetitions")
    exact_cache(bdir, exe, prog, "scenario", {k: reps[0][k] for k in EXACT})

    first = reps[0]
    med = lambda key: statistics.median(r[key] for r in reps)
    measured = {
        "setup_s": statistics.median(
            at_nominal(r["setup_s"], r["setup_probe_s"]) for r in reps),
        "node_rounds_per_s": statistics.median(
            r["alive_rounds"] / at_nominal(r["window_s"], r["window_probe_s"])
            for r in reps),
        "peak_rss_bytes_per_node": med("peak_rss_bytes") / first["nodes"],
        "msgs_per_node_round": first["msgs_per_node_round"],
        "reliability": first["reliability"],
        "reshape_rounds": first["reshape_rounds"],
        "success_rate": (first["requests_completed"] / first["requests_offered"]
                         if first["requests_offered"] else None),
        "p50_latency_ms": first["p50_latency_ms"],
        "p999_latency_ms": first["p999_latency_ms"],
    }
    metrics = {}
    for name, unit in metric_specs("end_to_end"):
        ok = workload in APPLIES.get(name, (workload,))
        value = measured[name] if ok else 1
        check(value is not None and value == value,
              f"{name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{workload} {name} = {value:.6g} {unit}"
              + ("" if ok else "  (n/a on this workload)"))
    print(f"{workload} wall-clock node-rounds/s and set-up s of each "
          "repetition, unscaled: "
          + ", ".join(f"{r['node_rounds_per_s']:.0f} {r['setup_s']:.3f}"
                      for r in reps))
    print(f"{workload} repetitions = {len(reps)}, measured rounds "
          f"{first['rounds'] - first['warmup_rounds']} of "
          f"{first['alive_rounds'] / (first['rounds'] - first['warmup_rounds']):.0f}"
          f" alive nodes on average")
    if workload == "traffic_chaos":
        done = first["requests_completed"]
        print(f"{workload} requests launched {first['requests_offered']}, "
              f"completed {done}, failed {first['requests_failed']}; "
              f"latency samples {done}, beyond p999 {done // 1000}")
    return len(reps), metrics


def per_layer(exe, bdir, workload, seed):
    text = program_text(workload, seed)
    prog = write_program(bdir, workload, seed, text)
    spans = bdir / "traces" / f"{workload}-{seed}.spans.tsv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    base = driver(exe, "scenario", prog)
    check_rep(workload, base)
    out = {}
    runs = 1
    if workload == "traffic_chaos":
        pair_prog = write_program(bdir, workload, seed,
                                  without_traffic(text, base["drain_rounds"]),
                                  suffix="-pair")
        pair = driver(exe, "scenario", pair_prog)
        runs += 1
        check(pair["digest"] == base["digest"],
              "traffic moved the fleet: trajectory digests differ between "
              "the traffic run and its traffic-free pair")
        check(pair["rounds"] == base["rounds"], "pair ran other rounds")
        offered = base["requests_offered"]
        out["traffic.self_us_per_request"] = (
            (at_nominal(base["window_s"], base["window_probe_s"])
             - at_nominal(pair["window_s"], pair["window_probe_s"]))
            / offered * 1e6)
        out["traffic.hops_per_request"] = base["mean_hops"]
        out["traffic.inflight_high_water"] = base["requests_inflight_high"]
        untraced = pair
        traced = driver(exe, "trace-events", pair_prog, spans, ROUTING_PROBES)
    elif workload == "steady":
        untraced = base
        traced = driver(exe, "trace-events", prog, spans)
    else:
        untraced = base
        traced = driver(exe, "trace-sync", prog, spans)
    runs += 1
    check(traced["digest"] == untraced["digest"],
          "the traced run left the untraced trajectory (digests differ)")
    closure = traced["span_root_s"] / traced["window_s"]
    check(abs(closure - 1) <= CLOSURE_TOLERANCE,
          f"layer self times cover {closure:.3f} of the traced wall time")
    exact_cache(bdir, exe, prog, "trace",
                {k: v for k, v in traced.items()
                 if k.endswith(TRACE_EXACT) or k.startswith((
                     "codec.bytes_per_frame.", "node.frames_per_node_round."))})

    out["scenario.compile_s"] = traced["compile_s"]
    out["scenario.construct_s"] = traced["construct_s"]
    out["scenario.warmup_s"] = traced["warmup_s"]
    out["trace.closure"] = closure
    out["trace.overhead"] = (untraced["node_rounds_per_s"]
                             / traced["node_rounds_per_s"] - 1)
    audit = traced.get("mem.audit_total_per_node", 0.0)
    out["mem.unaudited_per_node"] = (base["peak_rss_bytes"] / base["nodes"]
                                     - audit)
    metrics = {}
    for name, unit in metric_specs("per_layer"):
        value = out.get(name, traced.get(name, 0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} traced wall {traced['window_s']:.3f} s, layer self "
          f"times {traced['span_root_s']:.3f} s; untraced "
          f"{untraced['node_rounds_per_s']:.0f} node-rounds/s, traced "
          f"{traced['node_rounds_per_s']:.0f}")
    for k in sorted(traced):
        if k.startswith("self_s."):
            print(f"{workload} {k} = {traced[k]:.4f} s")
    return runs, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TIMELINES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        bdir = build_dir()
        exe = build(bdir)
        if args.trace:
            attempted, metrics = per_layer(exe, bdir, args.workload, args.seed)
        else:
            attempted, metrics = end_to_end(exe, bdir, args.workload,
                                            args.seed, args.seconds)
    except (CheckFailed, subprocess.SubprocessError, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"perfbench: FAILED: {e}")
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
