#!/usr/bin/env python3
"""Command-line flag handling of `uavdc` and the figure harnesses.

1. Every `uavdc` verb answers an unknown flag, and `--help`, with the usage
   text on stderr and exit code 2, before it does any work.
2. A figure harness (BenchSettings::parse) does the same and writes no CSV;
   run without `--out` it writes no CSV either.
3. The spawn lines the benchmark client and the router use still start a
   server: `serve --tcp ... --announce` and `route --endpoints=...
   --announce` (and `route --shards=N`, which spawns its own shards) each
   print `LISTENING <port>` and exit 0 on SIGTERM.
4. Each example given answers an unknown flag, and `--help`, the same way.

Usage: check_cli_flags.py UAVDC_BINARY FIGURE_HARNESS [EXAMPLE...]
Exit codes: 0 all checks pass, 1 a check failed.
"""

import os
import signal
import subprocess
import sys
import tempfile

VERBS = ["generate", "plan", "eval", "sim", "validate", "compare",
         "robustness", "conformance", "sensitivity", "render", "serve",
         "route", "loadgen", "serve-gen"]

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def expect_usage_exit(argv, cwd, unknown=None):
    """Run argv; it must exit 2 at once with the usage text on stderr."""
    try:
        res = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                             timeout=20, stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        check(False, "%s did not exit (it ran instead of rejecting)" % argv)
        return
    check(res.returncode == 2, "%s exited %d, want 2" % (argv, res.returncode))
    check("usage:" in res.stderr, "%s printed no usage" % argv)
    if unknown:
        check("unknown flag --" + unknown in res.stderr,
              "%s did not name --%s" % (argv, unknown))


def spawn_listening(argv):
    """Start argv; return (process, port) once it announces LISTENING."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            stdin=subprocess.DEVNULL)
    line = proc.stdout.readline().strip()
    if not line.startswith("LISTENING "):
        proc.kill()
        proc.wait()
        check(False, "%s announced %r, want LISTENING <port>" % (argv, line))
        return None, 0
    return proc, int(line.split()[1])


def stop(proc, argv):
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        rc = None
    check(rc == 0, "%s exited %s on SIGTERM, want 0" % (argv, rc))


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    uavdc, harness, *examples = (os.path.abspath(p) for p in sys.argv[1:])
    with tempfile.TemporaryDirectory() as tmp:
        inst = os.path.join(tmp, "p.json")
        subprocess.run([uavdc, "generate", "--preset=paper", "--devices=20",
                        "--side=200", "--seed=3", "--out=" + inst],
                       check=True, capture_output=True)

        for verb in VERBS:
            expect_usage_exit([uavdc, verb, "--no-such-flag=1"], tmp,
                              unknown="no-such-flag")
            expect_usage_exit([uavdc, verb, "--help"], tmp)
        # A misspelt option must not silently plan without it.
        expect_usage_exit([uavdc, "plan", "--instance=" + inst,
                           "--algo=alg2", "--reduce-bnad=40"], tmp,
                          unknown="reduce-bnad")
        # A flag of one serve transport is unknown to the other.
        expect_usage_exit([uavdc, "serve", "--announce"], tmp,
                          unknown="announce")

        expect_usage_exit([harness, "--help"], tmp)
        expect_usage_exit([harness, "--replicates=1", "--typo"], tmp,
                          unknown="typo")
        check(os.listdir(tmp) == ["p.json"],
              "a rejected harness run wrote %s" % sorted(os.listdir(tmp)))
        res = subprocess.run([harness, "--replicates=1"], cwd=tmp,
                             capture_output=True, timeout=300)
        check(res.returncode == 0, "harness exited %d" % res.returncode)
        check(os.listdir(tmp) == ["p.json"],
              "a harness run without --out wrote %s"
              % sorted(os.listdir(tmp)))

        # A misspelt example flag must not run the example without it.
        for example in examples:
            expect_usage_exit([example, "--devcies=10"], tmp,
                              unknown="devcies")
            expect_usage_exit([example, "--help"], tmp)
        check(os.listdir(tmp) == ["p.json"],
              "a rejected example run wrote %s" % sorted(os.listdir(tmp)))

        shard_argv = [uavdc, "serve", "--tcp", "--port=0", "--announce",
                      "--workers=1", "--queue=4096"]
        shards = [spawn_listening(shard_argv) for _ in range(2)]
        if all(p for p, _ in shards):
            route_argv = [uavdc, "route",
                          "--endpoints=%d,%d" % (shards[0][1], shards[1][1]),
                          "--port=0", "--announce"]
            router, _ = spawn_listening(route_argv)
            if router:
                stop(router, route_argv)
        for proc, _ in shards:
            if proc:
                stop(proc, shard_argv)

        route_argv = [uavdc, "route", "--shards=2", "--shard-workers=1",
                      "--repo-dir=" + tmp, "--port=0", "--announce"]
        router, _ = spawn_listening(route_argv)
        if router:
            stop(router, route_argv)

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("CLI flag checks OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
