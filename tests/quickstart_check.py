#!/usr/bin/env python3
"""Runs the quickstart example in a fresh temporary directory and checks
what the README promises of it: exit status 0, a metrics snapshot and a
Chrome trace that both parse as strict JSON, and a trace that holds the
probe:scan complete span with its attempt spans nested inside.

Usage: quickstart_check.py path/to/quickstart
"""

import json
import os
import subprocess
import sys
import tempfile


def nanos(micros):
    """trace_event microseconds (three decimals) to integer nanoseconds."""
    return round(micros * 1000)


def check(ok, message):
    if not ok:
        print(f"quickstart_check: {message}", file=sys.stderr)
        sys.exit(1)


def main():
    check(len(sys.argv) == 2, "usage: quickstart_check.py path/to/quickstart")
    exe = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run([exe], cwd=tmp, capture_output=True, text=True,
                             timeout=300)
        sys.stdout.write(run.stdout)
        sys.stderr.write(run.stderr)
        check(run.returncode == 0, f"exit status {run.returncode}")
        # json.load is strict: raw control bytes in a string are an error.
        with open(os.path.join(tmp, "quickstart_metrics.json")) as f:
            metrics = json.load(f)
        with open(os.path.join(tmp, "quickstart_trace.json")) as f:
            trace = json.load(f)

    check(len(metrics.get("metrics", [])) > 0, "empty metrics snapshot")
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    probes = [e for e in spans if e["name"] == "probe:scan"]
    check(len(probes) == 1, f"{len(probes)} probe:scan spans, expected 1")
    probe = probes[0]
    begin, end = nanos(probe["ts"]), nanos(probe["ts"] + probe["dur"])
    attempts = [e for e in spans if e["name"] == "attempt" and
                e["args"]["cause"] == probe["args"]["id"]]
    check(len(attempts) > 0, "the probe span holds no attempt spans")
    for a in attempts:
        a_begin, a_end = nanos(a["ts"]), nanos(a["ts"] + a["dur"])
        check(begin <= a_begin <= a_end <= end,
              f"attempt {a['args']['id']} [{a_begin}, {a_end}] lies outside "
              f"the probe span [{begin}, {end}]")
    check(trace["otherData"]["clock"] == "sim", "trace clock is not sim time")
    print(f"quickstart_check: ok ({len(trace['traceEvents'])} trace events, "
          f"{len(attempts)} attempts inside probe:scan)")


if __name__ == "__main__":
    main()
