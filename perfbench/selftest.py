#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks, on every workload, that
  * every end-to-end and per-layer metric prints, by name and with its
    unit, in the result line and in the report, and that BENCHMARK.json
    lists the same metrics with the same units;
  * the correctness gate passes the real passes and rejects them once a
    CRC is deliberately mismatched;
  * another seed changes the generated inputs but not the set of metrics.
Exits 0 when every check holds. Run it on an otherwise idle host: the
OpenMP workloads slow down sharply when their threads share cores.
"""

import copy
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark driver, imported for its tables)


class SelfTestFailure(Exception):
    pass


def check(cond, msg):
    """A check that holds under python -O too (unlike assert)."""
    if not cond:
        raise SelfTestFailure(msg)


def run_cli(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        stdout=subprocess.PIPE, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0 and lines, "%s seed %d trace %d exited %d:\n%s"
          % (workload, seed, trace, out.returncode, out.stdout))
    return lines[:-1], json.loads(lines[-1])


def check_metrics(result, report, table, where):
    names = set(result["metrics"])
    check(names == set(table), "%s: metrics differ from the table: %s"
          % (where, sorted(names ^ set(table))))
    for name, m in result["metrics"].items():
        unit = table[name][0]
        check(m["unit"] == unit, "%s: %s unit %s" % (where, name, m["unit"]))
        check(isinstance(m["value"], (int, float)), "%s: %s value" % (where, name))
        check(any(line.split()[:1] == [name] and unit in line.split() for line in report),
              "%s: report lacks %s with its unit" % (where, name))
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          "%s: run not correct" % where)


def check_manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    check(e2e == {k: v[0] for k, v in run.END_TO_END.items()}, "end_to_end differs")
    check(layers == {k: v[0] for k, v in run.PER_LAYER.items()}, "per_layer differs")
    check([w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS),
          "workloads differ")


def check_gate(workload):
    spec = run.workload_spec(workload, 1, toy=True)
    deadline = time.monotonic() + 300
    timed = run.run_pass(run.pass_args(spec, "timed", 1, ""), deadline)
    traced = run.run_pass(run.pass_args(spec, "traced", 1, ""), deadline)
    ok, reasons = run.gate(timed, traced)
    check(ok, "%s: gate rejects the real passes: %s" % (workload, reasons))
    bad = copy.deepcopy(timed)
    bad["episodes"][-1]["crc"][0] ^= 1
    ok, reasons = run.gate(bad, traced)
    check(not ok and "CRCs" in reasons[0], "%s: gate accepts a wrong CRC" % workload)


def main():
    check_manifest()
    for workload in run.WORKLOADS:
        check(run.workload_spec(workload, 1) != run.workload_spec(workload, 2),
              "%s: the seed does not change the inputs" % workload)
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            sets = []
            for seed in (1, 2):
                report, result = run_cli(workload, seed, trace)
                check_metrics(result, report, table,
                              "%s seed %d trace %d" % (workload, seed, trace))
                sets.append(set(result["metrics"]))
            check(sets[0] == sets[1], "%s: metric set depends on the seed" % workload)
        check_gate(workload)
        print("selftest: %s ok" % workload)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestFailure as e:
        print("selftest: FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
