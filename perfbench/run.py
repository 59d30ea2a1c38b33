#!/usr/bin/env python3
"""ExaStro benchmark: three workloads, measured and modeled zone-update
throughput, and a per-layer traced run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run builds
perfbench/exabench (CMake, into .bench_build/perfbench). Each run makes
its scenario configs from --seed, then runs two passes of the workload,
each in its own process:

  timed   nothing attached; repeats episodes for --seconds and gives the
          measured end-to-end metrics;
  traced  Backend::SimGpu (bit-identical arithmetic to Serial) with a
          DeviceModel and a CommLedger attached; gives the modeled
          end-to-end metrics, every per-layer metric, and a Chrome
          trace-event file.

The correctness gate compares the two passes' state CRCs and checks
physics tolerances; it pins no bits. The last line of stdout is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. NOTES.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "exabench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")

# Wall budget of one run: a run must end within 180 s.
RUN_BUDGET_S = 170.0

# T: OpenMP threads of the OpenMP workloads and workers of the ensemble.
THREADS = max(1, min(4, os.cpu_count() or 1))

# name -> (unit, better, kind). Kinds are never summed with each other.
# Modeled values carry a "-modeled" unit: they come from the device and
# network models, not from a clock, and repeat exactly for given inputs.
END_TO_END = {
    "zone_updates_per_us": ("zones/us", "higher", "measured"),
    "step_ms_p50": ("ms", "lower", "measured"),
    "step_ms_p90": ("ms", "lower", "measured"),
    "setup_s": ("s", "lower", "measured"),
    "peak_rss_mib": ("MiB", "lower", "measured"),
    "modeled_gpu_zone_updates_per_us": ("zones/us-modeled", "higher", "modeled V100"),
    "modeled_net_ms_per_step": ("ms-modeled", "lower", "modeled network"),
    "sims_per_hour": ("1/h", "higher", "measured"),
}

# name -> (unit, kind). Grouped by layer; the traced pass gives all but
# the ensemble layer, which comes from the timed pass (T workers).
PER_LAYER = {
    "core.arena.allocs_per_step": ("count", "count"),
    "core.arena.slow_allocs_per_step": ("count", "count"),
    "core.arena.hwm_mib": ("MiB", "count"),
    "core.launches_per_step": ("count", "count"),
    "mesh.fillboundary_ms": ("ms", "measured"),
    "mesh.fillpatch_ms": ("ms", "measured"),
    "mesh.regrid_step_excess_ms": ("ms", "measured"),
    "mesh.copier_cache.hit_ratio": ("ratio", "count"),
    "mesh.copier_cache.lookups_per_step": ("count", "count"),
    "mesh.copier_cache.build_ms_per_step": ("ms", "measured"),
    "mesh.fab_copy_launches_per_step": ("count", "count"),
    "mesh.fab_copy_modeled_ms_per_step": ("ms-modeled", "modeled V100"),
    "mesh.fine_advances_per_step": ("count", "count"),
    "comm.messages_per_step": ("count", "count"),
    "comm.bytes_per_step": ("B", "count"),
    "comm.offnode_bytes_per_step": ("B", "count"),
    "comm.split_phase_frac": ("ratio", "count"),
    "castro.hydro_ms_per_step": ("ms", "measured"),
    "castro.molrhs_ns_per_zone": ("ns", "measured"),
    "castro.molrhs_thread_speedup": ("ratio", "measured"),
    "castro.hydro_modeled_ms_per_step": ("ms-modeled", "modeled V100"),
    "castro.gravity_ms_per_step": ("ms", "measured"),
    "micro.burn_ms_per_step": ("ms", "measured"),
    "micro.burn_zones_per_step": ("count", "count"),
    "micro.integrator_steps_per_zone": ("count", "count"),
    "micro.burn_imbalance": ("ratio", "count"),
    "micro.ns_per_integrator_step": ("ns", "measured"),
    "micro.burn_failures": ("count", "count"),
    "micro.nuclear_burn_modeled_ms_per_step": ("ms-modeled", "modeled V100"),
    "solvers.mg_ms_per_step": ("ms", "measured"),
    "solvers.mg_vcycles_per_step": ("count", "count"),
    "solvers.mg_sweeps_per_step": ("count", "count"),
    "solvers.mg_modeled_ms_per_step": ("ms-modeled", "modeled V100"),
    "maestro.advect_ms_per_step": ("ms", "measured"),
    "maestro.buoyancy_ms_per_step": ("ms", "measured"),
    "ensemble.worker_busy_frac": ("ratio", "measured"),
    "ensemble.tail_s": ("s", "measured"),
    "ensemble.steals": ("count", "count"),
    "perf.stream_overlap": ("ratio", "modeled V100"),
}


# --- workloads -------------------------------------------------------------
#
# The seed perturbs physical inputs by well under a percent: enough to
# change every state bit, too little to change the grids or the work done
# per step, so one seed's figures stand for another's.

def jitter(rng, value, rel):
    """value scaled by a uniform factor in [1 - rel, 1 + rel]."""
    return "%.9g" % (value * (1.0 + rel * (2.0 * rng.random() - 1.0)))


def sedov_cfg(rng, ncell, mgs, nranks, steps):
    return {"ncell": ncell, "max-grid-size": mgs, "nranks": nranks,
            "max-steps": steps, "E": jitter(rng, 1.0, 0.01)}


def bubble_cfg(rng, ncell, mgs, nranks, steps):
    # T-bubble 8e8 K: the 9e8 K default runs away (max T -> 1.8e10 K).
    return {"ncell": ncell, "max-grid-size": mgs, "nranks": nranks,
            "max-steps": steps, "T-bubble": jitter(rng, 8.0e8, 0.0025)}


def amr_cfg(rng, ncell, mgs, nranks, steps, **extra):
    cfg = {"ncell": ncell, "max-grid-size": mgs, "nranks": nranks,
           "max-steps": steps, "max-level": 1, "regrid-interval": 4,
           "cfl": jitter(rng, 0.3, 0.01)}
    cfg.update(extra)
    return cfg


def wd_cfg(rng, ncell, mgs, nranks, steps):
    return {"ncell": ncell, "max-grid-size": mgs, "nranks": nranks,
            "max-steps": steps, "network": "iso7",
            "approach-velocity": jitter(rng, 2.0e8, 0.01)}


def workload_spec(name, seed, toy=False):
    """The generated inputs of one run: backend and tenants.

    toy=True shrinks every size (the self-test); the metric set is the
    same.
    """
    rng = random.Random("%s/%d" % (name, seed))
    if name == "sedov-hydro":
        n, mgs, steps = (16, 8, 3) if toy else (48, 16, 10)
        return {"backend": "openmp",
                "tenants": [("sedov", sedov_cfg(rng, n, mgs, 8, steps))]}
    if name == "amr-gravity":
        n, steps = (8, 4) if toy else (16, 8)
        return {"backend": "openmp",
                "tenants": [("amr-blast", amr_cfg(rng, n, n // 2, 8, steps,
                                                  gravity="poisson-amr"))]}
    if name == "ensemble-mix":
        n, mgs, steps = (8, 4, 2) if toy else (16, 8, 10)
        tenants = []
        for make, kind in ((sedov_cfg, "sedov"), (bubble_cfg, "bubble"),
                           (amr_cfg, "amr-blast"), (wd_cfg, "wd-collision")):
            for _ in range(2):
                tenants.append((kind, make(rng, n, mgs, 4, steps)))
        return {"backend": "serial", "tenants": tenants}
    raise KeyError(name)


WORKLOADS = ("sedov-hydro", "amr-gravity", "ensemble-mix")


# --- build and passes ------------------------------------------------------

class BenchError(Exception):
    pass


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=880).returncode != 0:
                raise BenchError("build failed, see " + log_path)


def pass_args(spec, kind, seconds, trace_out):
    backend = "simgpu" if kind == "traced" else spec["backend"]
    args = [EXE, "--pass", kind, "--backend", backend, "--threads", str(THREADS),
            "--seconds", repr(float(seconds))]
    if trace_out:
        args += ["--trace-out", trace_out]
    for scenario, cfg in spec["tenants"]:
        args += ["--tenant", scenario] + ["%s=%s" % kv for kv in cfg.items()]
    return args


def run_pass(args, deadline):
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BenchError("out of time before " + args[2] + " pass")
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=left)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise BenchError("%s pass exited with %d" % (args[2], out.returncode))
    return json.loads(lines[-1])


# --- gate and metrics ------------------------------------------------------

def gate(timed, traced):
    """Correctness verdict of one run: (ok, reasons). Pins no bits: each
    timed episode's CRCs must equal the traced (SimGpu, one worker) pass's,
    and every episode must pass its physics tolerances."""
    reasons = []
    for name, p in (("timed", timed), ("traced", traced)):
        for i, ep in enumerate(p["episodes"]):
            if not ep["gate_ok"]:
                reasons.append("%s episode %d: %s" % (name, i, ep["gate_why"]))
    ref = traced["episodes"][0]["crc"] if traced["episodes"] else None
    for i, ep in enumerate(timed["episodes"]):
        if ep["crc"] != ref:
            reasons.append("timed episode %d CRCs %s != traced CRCs %s"
                           % (i, ["%08x" % c for c in ep["crc"]],
                              ["%08x" % c for c in ref or []]))
    return not reasons, reasons


def end_to_end(timed, traced):
    eps = timed["episodes"]
    steps = [ms for ep in eps for tenant in ep["step_ms"] for ms in tenant]
    # The p50 is each tenant's median step, geometric mean over tenants
    # (for one scenario, its median). The ensemble's pooled steps cluster
    # by scenario kind, and a pooled median falls in the gap between two
    # clusters, where it jumps from run to run.
    per_tenant = zip(*(ep["step_ms"] for ep in eps))
    lay = traced["layers"]
    return {
        "zone_updates_per_us": statistics.median(
            ep["zone_steps"] / ep["step_s"] / 1e6 for ep in eps),
        "step_ms_p50": statistics.geometric_mean(
            [statistics.median(ms for ep_steps in t for ms in ep_steps)
             for t in per_tenant]),
        "step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[8],
        "setup_s": statistics.median(ep["setup_s"] for ep in eps),
        "peak_rss_mib": timed["peak_rss_mib"],
        "modeled_gpu_zone_updates_per_us":
            lay["modeled.zone_steps"] / lay["modeled.gpu_elapsed_s"] / 1e6,
        "modeled_net_ms_per_step":
            lay["modeled.net_phase_s"] * 1e3 / lay["modeled.steps"],
        "sims_per_hour": statistics.median(ep["sims_per_hour"] for ep in eps),
    }


# Per-layer metrics of the ensemble layer: medians of the timed pass's
# per-episode EnsembleReport figures (0 for a single scenario).
FROM_TIMED = {"ensemble.worker_busy_frac": "busy_frac", "ensemble.tail_s": "tail_s",
              "ensemble.steals": "steals"}


def per_layer(timed, traced):
    eps = timed["episodes"]
    return {k: statistics.median(ep[FROM_TIMED[k]] for ep in eps) if k in FROM_TIMED
            else traced["layers"][k] for k in PER_LAYER}


# --- provenance ------------------------------------------------------------

def source_digest():
    """Digest of the sources under src/ and perfbench/, without the
    bytecode that importing run.py leaves behind."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(filenames):
                if f.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return out.stdout.strip() or "unknown"


def cpu_info():
    model, l3 = "unknown", "unknown"
    try:
        out = subprocess.run(["lscpu"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return model, l3
    for line in out.splitlines():
        key, _, val = line.partition(":")
        if key.strip() == "Model name":
            model = val.strip()
        elif key.strip() == "L3 cache":
            l3 = val.strip()
    return model, l3


def l3_mib(l3):
    parts = l3.split()
    try:
        scale = {"KiB": 1 / 1024, "MiB": 1.0, "GiB": 1024.0}[parts[1]]
        return float(parts[0]) * scale
    except (IndexError, KeyError, ValueError):
        return None


# --- report ----------------------------------------------------------------

def report(args, spec, timed, traced, e2e, layers, ok, reasons, trace_path):
    model, l3 = cpu_info()
    print("== ExaStro benchmark: %s (seed %d, %g s, trace %d)"
        % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: git %s, sources %s, build %s, compiler %s"
        % (git_commit(), source_digest(), timed["build"], timed["compiler"]))
    print("host: nproc %d, T %d, CPU %s, L3 %s" % (os.cpu_count() or 0, THREADS, model, l3))
    print("passes: timed backend %s (%d worker(s)), traced backend simgpu (1 worker)"
        % (spec["backend"], timed["episodes"][0]["workers"]))
    print("closed loop: each episode inits the scenario(s) and steps to max-steps;"
        " the timed pass repeats episodes for %g s" % args.seconds)
    for scenario, cfg in spec["tenants"]:
        print("  input: %s %s" % (scenario, " ".join("%s=%s" % kv for kv in cfg.items())))
    ws = sum(traced["episodes"][0]["state_bytes"]) / 2**20
    cap = l3_mib(l3)
    fits = "unknown" if cap is None else ("fits" if ws <= cap else "does not fit")
    print("state bytes (computed): %.1f MiB against L3 %s: %s in cache; sized for"
        " run time, not to be bandwidth-bound" % (ws, l3, fits))
    attempted = sum(ep["attempted"] for p in (timed, traced) for ep in p["episodes"])
    failed = attempted if not ok else sum(
        ep["failed"] for p in (timed, traced) for ep in p["episodes"])
    print("gate: %s; failed_frac %d/%d = %g" % ("pass" if ok else "FAIL", failed,
                                              attempted, failed / attempted))
    for r in reasons:
        print("  gate: " + r)
    steps = sum(len(t) for ep in timed["episodes"] for t in ep["step_ms"])
    print("-- end to end (%d timed episodes, %d step samples)" % (len(timed["episodes"]), steps))
    for k, v in e2e.items():
        unit, better, kind = END_TO_END[k]
        print("  %-34s %14.6g %-16s %-16s (%s is better)" % (k, v, unit, kind, better))
    print("modeled network: Summit layout, 6 ranks/node, %d node(s) for %d ranks"
        % (traced["layers"]["modeled.nodes"], traced["layers"]["modeled.ranks"]))
    print("-- per layer (traced pass; ensemble.* from the timed pass)")
    base = traced["layers"]
    for k, v in layers.items():
        unit, kind = PER_LAYER[k]
        note = ""
        if k == "mesh.copier_cache.hit_ratio":
            note = " (base: %.6g lookups/step)" % base["mesh.copier_cache.lookups_per_step"]
        print("  %-40s %14.6g %-10s %s%s" % (k, v, unit, kind, note))
    print("-- spans of the traced pass (wall ms; self = minus children)")
    for row in traced["spans"]:
        print("  %-14s %6d calls %12.3f total %12.3f self"
            % (row["name"], row["count"], row["total_ms"], row["self_ms"]))
    t_ep = statistics.median(ep["wall_s"] for ep in timed["episodes"])
    tr_ep = traced["episodes"][0]["wall_s"] - traced["episodes"][0]["probe_s"]
    print("traced/timed episode wall (probes excluded): %.3f s / %.3f s = %.3f;"
        " overhead includes the backend switch to simgpu" % (tr_ep, t_ep, tr_ep / t_ep))
    if trace_path:
        print("trace: %s (Chrome trace-event JSON; open in Perfetto)" % trace_path)
    return attempted, failed


def result_line(correct, attempted, failed, metrics, table):
    """The result JSON; table maps each metric name to (unit, ...)."""
    out = {name: {"value": value, "unit": table[name][0]} for name, value in metrics.items()}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": out})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes (self-test)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ensemble", "runner.hpp")):
        print("perfbench: no ExaStro sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    try:
        build()
        spec = workload_spec(args.workload, args.seed, args.toy)
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed)) if args.trace else ""
        timed = run_pass(pass_args(spec, "timed", args.seconds, ""), deadline)
        traced = run_pass(pass_args(spec, "traced", args.seconds, trace_path),
                          deadline)
        if "unoptimized" in timed["build"] or "sanitized" in timed["build"] \
                or "Debug" in timed["build"]:
            raise BenchError("refusing to measure a %s build" % timed["build"])
        e2e = end_to_end(timed, traced)
        layers = per_layer(timed, traced)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    ok, reasons = gate(timed, traced)
    attempted, failed = report(args, spec, timed, traced, e2e, layers,
                               ok, reasons, trace_path)
    if args.trace:
        print(result_line(ok, attempted, failed, layers, PER_LAYER))
    else:
        print(result_line(ok, attempted, failed, e2e, END_TO_END))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
