#!/usr/bin/env python3
"""The wave benchmark. Run it from the repository root:

    python3 wavebench/run.py --workload check-suite --seed 1 --seconds 20 --trace 0

It builds the release `wave` binary and the in-process driver
(`wavebench/driver`) into $CARGO_TARGET_DIR (default `.bench_build`),
generates the workload's inputs from the seed, sets up, measures whole
rounds until `--seconds` have passed, checks every verdict against the
suite's expected answer, and prints one JSON line last: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
NOTES.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from statistics import median, quantiles

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402

WORKLOADS = ("check-suite", "spill", "serve-mix")
MIN_ROUNDS = 2
# share of a run's measuring time spent setting up again between rounds
SETUP_SHARE = 0.2
TRACE_ROUNDS = 3
RAM_ROOT = "/dev/shm"
RAM_FS = ("tmpfs", "ramfs")
# the deterministic counters `wave check --json` reports; each must
# repeat exactly for a pair, round after round
COUNTERS = ("configs", "cores", "intern_hits", "intern_misses", "memo_hits",
            "memo_misses", "join_builds", "spill_pairs", "spill_segments",
            "spill_compactions", "bloom_skips", "cold_probes")


class SetupError(Exception):
    pass


def log(msg):
    print(f"wavebench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # explicit manifests: outside a repository checkout both builds fail
    # rather than finding some other Cargo.toml in a parent directory
    for cmd in (["cargo", "build", "--release", "--offline", "--locked",
                 "--manifest-path", "Cargo.toml", "-p", "wave", "--bin", "wave"],
                ["cargo", "build", "--release", "--offline", "--locked",
                 "--manifest-path", "wavebench/driver/Cargo.toml"]):
        r = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            raise SetupError(f"{' '.join(cmd)} failed:\n{r.stderr}")
    release = os.path.join(target, "release")
    return os.path.join(release, "wave"), os.path.join(release, "wavebench-driver")


def driver(exe, *args):
    r = subprocess.run([exe, *args], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise SetupError(f"wavebench-driver {args[0]} failed:\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- helpers

def ram_dir(tag):
    """A fresh directory on a RAM-backed filesystem, for spill segments:
    on a disk the per-segment fsync dominates and its latency drifts."""
    mounts = []
    with open("/proc/self/mountinfo") as f:
        for line in f:
            fields = line.split()
            fstype = fields[fields.index("-") + 1]
            mounts.append((fields[4], fstype))
    real = os.path.realpath(RAM_ROOT)
    best = max((m for m in mounts if real == m[0] or real.startswith(m[0].rstrip("/") + "/")),
               key=lambda m: len(m[0]), default=None)
    if best is None or best[1] not in RAM_FS or not os.access(real, os.W_OK):
        raise SetupError(f"{RAM_ROOT} is not a writable RAM-backed filesystem "
                         f"({best}); spill will not run on disk")
    path = os.path.join(real, tag)
    os.makedirs(path)
    return path


def pct(xs, q):
    """The q-th percentile (inclusive linear interpolation)."""
    return quantiles(xs, n=100, method="inclusive")[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure_rounds(seconds, do_round, do_setup, setup_s):
    """Measure whole rounds for `seconds`. Between rounds, set up again
    while set-up has had less than SETUP_SHARE of the time so far: the
    set-up samples in `setup_s` then fall in the same spells of host
    speed as the rounds, not all in the first second of the run."""
    t_start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
        do_round()
        rounds += 1
        while sum(setup_s) < SETUP_SHARE * (time.perf_counter() - t_start):
            setup_s.append(do_setup())


# ------------------------------------------------------- check workloads

def write_specs(catalog, work):
    paths = {}
    os.makedirs(os.path.join(work, "specs"))
    for s in catalog:
        path = os.path.join(work, "specs", f"{s['spec_name']}.wave")
        with open(path, "w") as f:
            f.write(s["source"])
        paths[s["suite"]] = path
    return paths


def check_inputs(order, g, specs, spill_dir):
    return {
        "spill_dir": spill_dir,
        "checks": [{"label": f"{s}/{p}", "spec_file": specs[s],
                    "property": g.props[(s, p)]["text"]} for s, p in order],
    }


def run_check(wave, check, holds, spill_dir):
    """One cold `wave check --json`, timed from spawn to exit. Returns
    (seconds, ok, counters, maxrss_kb)."""
    cmd = [wave, "check", check["spec_file"], "--property", check["property"], "--json"]
    if spill_dir:
        cmd += ["--store", "tiered", "--store-mem-mb", "0", "--spill-dir", spill_dir]
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    secs = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    # exit 0 holds, 1 violated (its counterexample replayed); 2 is an
    # error, including a counterexample that failed replay
    want = ("holds", 0) if holds else ("violated", 1)
    try:
        rec = json.loads(out.decode().strip().splitlines()[-1])
        stats = rec["stats"]
        counters = tuple(stats[k] if k in stats else stats["profile"][k] for k in COUNTERS)
        ok = (rec["verdict"], p.returncode) == want
    except (ValueError, IndexError, KeyError):
        counters, ok = None, False
    if not ok:
        log(f"{check['label']}: exit {p.returncode}, want {want}")
    return secs, ok, counters, usage.ru_maxrss


def setup_checks(drv, g, specs, work, spill_dir):
    """The set-up pass over every pair, which validates every input.
    Returns a function that runs and times one more pass."""
    inputs = os.path.join(work, "setup.json")
    with open(inputs, "w") as f:
        json.dump(check_inputs(g.pairs, g, specs, spill_dir), f)

    def one_pass():
        [secs] = driver(drv, "setup", inputs, "1")["setup_s"]
        return secs
    return one_pass


def measure_checks(args, wave, g, specs, spill_dir, setup_s, setup_pass):
    per_check, failed, attempted, rss = {}, 0, 0, 0
    seen, consistent = {}, True

    def one_round():
        nonlocal failed, attempted, rss, consistent
        order = g.round()
        for c, pair in zip(check_inputs(order, g, specs, spill_dir)["checks"], order):
            secs, ok, counters, maxrss = run_check(
                wave, c, g.props[pair]["holds"], spill_dir)
            attempted += 1
            failed += not ok
            rss = max(rss, maxrss)
            per_check.setdefault(pair, []).append(secs)
            if counters is not None and seen.setdefault(pair, counters) != counters:
                log(f"{c['label']}: counters {counters} differ from {seen[pair]}")
                consistent = False

    measure_rounds(args.seconds, one_round, setup_pass, setup_s)
    # each check's latency is its median over the rounds, so every
    # percentile is taken over the same fixed set of checks however many
    # rounds the host's speed allowed
    every = [median(ts) for ts in per_check.values()]
    p50 = metric(median(every) * 1e3, "ms")
    metrics = {
        "wall_s": metric(sum(every), "s"),
        "p50_ms": p50,
        "p90_ms": metric(pct(every, 90) * 1e3, "ms"),
        # `wave check` keeps no result cache: every check is a miss
        "hit_p50_ms": p50,
        "miss_p50_ms": p50,
        "peak_rss_mb": metric(rss / 1024, "MB"),
    }
    return metrics, attempted, failed, consistent


def trace_checks(wave, drv, g, specs, work, spill_dir):
    """The traced run over one round: each check runs untraced (a cold
    `wave check`) and then, at once, in a fresh driver process with every
    layer timed, so host drift stays out of the difference."""
    order = g.round()
    path = os.path.join(work, "trace.json")
    wall, failed, consistent, sums = 0.0, 0, True, {}
    for c, pair in zip(check_inputs(order, g, specs, spill_dir)["checks"], order):
        holds = g.props[pair]["holds"]
        secs, ok, counters, _ = run_check(wave, c, holds, spill_dir)
        wall += secs
        failed += not ok
        with open(path, "w") as f:
            json.dump({"spill_dir": spill_dir, "checks": [c]}, f)
        traced = driver(drv, "trace", path)
        add_totals(sums, traced["totals"])
        [got] = traced["ops"]
        mine = tuple(got[k] for k in COUNTERS)
        if got["verdict"] != ("holds" if holds else "violated") or mine != counters:
            log(f"{c['label']}: traced {got['verdict']} {mine}, untraced {counters}")
            consistent = False
    return sums, wall * 1e3, len(order), failed, consistent


def add_totals(sums, totals):
    for k, v in totals.items():
        sums[k] = sums.get(k, 0) + v


# ------------------------------------------------------------ serve-mix

class Server:
    """`wave serve` on an ephemeral localhost port."""

    def __init__(self, wave):
        self.proc = subprocess.Popen(
            [wave, "serve", "--addr", "127.0.0.1:0", "--jobs", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        if "listening on" not in line:
            self.kill()
            raise SetupError(f"wave serve did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.addr = (host, int(port))
        self.maxrss_kb = None

    def connect(self):
        return Conn(self.addr)

    def shutdown(self):
        with self.connect() as c:
            c.call('{"cmd":"shutdown"}')
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stderr.close()
        self.maxrss_kb = usage.ru_maxrss

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stderr.close()


class Conn:
    def __init__(self, addr):
        self.sock = socket.create_connection(addr)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, line):
        self.sock.sendall(line.encode() + b"\n")
        return self.reader.readline()

    def close(self):
        self.reader.close()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve_ok(resp, verdict, cached):
    try:
        r = json.loads(resp)
        [rec] = r["results"]
        return r["ok"] and rec["verdict"] == verdict and rec["cached"] == cached
    except (ValueError, KeyError, TypeError):
        return False


def warm_lines(g):
    return [g.hit_line(pair) for pair in g.pairs]


def start_server(wave, g):
    """Spawn the server, wait for a ping, and ask each hit pair once so
    every hit of the measured rounds finds it cached."""
    server = Server(wave)
    try:
        with server.connect() as c:
            if json.loads(c.call('{"cmd":"ping"}')).get("pong") is not True:
                raise SetupError("wave serve did not answer ping")
            for pair, line in zip(g.pairs, warm_lines(g)):
                verdict = "holds" if g.props[pair]["holds"] else "violated"
                if not serve_ok(c.call(line), verdict, False):
                    raise SetupError(f"warming {pair} failed")
    except BaseException:
        server.kill()
        raise
    return server


def drive(conns, requests):
    """Closed loop: each connection sends its next request only when the
    previous one is answered. Returns (latency_s, response) per request
    and the round's wall time."""
    lines = [(r["line"] + "\n").encode() for r in requests]
    results = [None] * len(requests)
    nxt = iter(range(len(requests)))
    lock = threading.Lock()

    def client(conn):
        while True:
            with lock:
                i = next(nxt, None)
            if i is None:
                return
            t0 = time.perf_counter()
            conn.sock.sendall(lines[i])
            resp = conn.reader.readline()
            results[i] = (time.perf_counter() - t0, resp)

    threads = [threading.Thread(target=client, args=(c,)) for c in conns]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, time.perf_counter() - t0


def check_round(g, requests, results):
    failed = 0
    for r, (_, resp) in zip(requests, results):
        verdict = "holds" if g.props[r["pair"]]["holds"] else "violated"
        if not serve_ok(resp, verdict, r["hit"]):
            log(f"request {r['pair']} hit={r['hit']}: {resp[:200]!r}")
            failed += 1
    return failed


def timed_start(wave, g):
    t0 = time.perf_counter()
    server = start_server(wave, g)
    return server, time.perf_counter() - t0


def spare_setup(wave, g):
    """One more timed set-up, on a second server that is then shut down;
    the measured server idles meanwhile."""
    server, secs = timed_start(wave, g)
    server.shutdown()
    return secs


def measure_serve(args, wave, server, g, setup_s):
    conns = [server.connect() for _ in range(2)]
    walls, hit, miss, ops, failed, hits_sent = [], [], [], [], 0, 0

    def one_round():
        nonlocal failed, hits_sent
        requests = g.round()
        results, wall = drive(conns, requests)
        walls.append(wall)
        failed += check_round(g, requests, results)
        for r, (lat, _) in zip(requests, results):
            ops.append(lat)
            (hit if r["hit"] else miss).append(lat)
            hits_sent += r["hit"]

    try:
        measure_rounds(args.seconds, one_round, lambda: spare_setup(wave, g), setup_s)
        with server.connect() as c:
            m = json.loads(c.call('{"cmd":"metrics"}'))["metrics"]
    finally:
        for c in conns:
            c.close()
    # every hit, and only the hits, must have been served from the cache
    consistent = m["wave_cache_hits_total"] == hits_sent
    if not consistent:
        log(f"cache hits {m['wave_cache_hits_total']}, want {hits_sent}")
    server.shutdown()
    metrics = {
        "wall_s": metric(median(walls), "s"),
        "p50_ms": metric(median(ops) * 1e3, "ms"),
        "p90_ms": metric(pct(ops, 90) * 1e3, "ms"),
        "hit_p50_ms": metric(median(hit) * 1e3, "ms"),
        "miss_p50_ms": metric(median(miss) * 1e3, "ms"),
        "peak_rss_mb": metric(server.maxrss_kb / 1024, "MB"),
    }
    return metrics, len(ops), failed, consistent


def trace_serve(server, drv, g, work):
    """The traced run: TRACE_ROUNDS rounds, each sent untraced over one
    connection and then through an in-process service, layer by layer.
    Alternating the two keeps host drift out of their difference."""
    path = os.path.join(work, "trace.json")
    wall, attempted, failed, consistent, sums = 0.0, 0, 0, True, {}
    with server.connect() as conn:
        for _ in range(TRACE_ROUNDS):
            requests = g.round()
            results, _ = drive([conn], requests)
            failed += check_round(g, requests, results)
            wall += sum(lat for lat, _ in results)
            attempted += len(requests)
            with open(path, "w") as f:
                json.dump({"warm": [{"line": x} for x in warm_lines(g)],
                           "requests": [{"hit": r["hit"], "suite": r["pair"][0],
                                         "line": r["line"]} for r in requests]}, f)
            traced = driver(drv, "trace", path)
            add_totals(sums, traced["totals"])
            for r, op in zip(requests, traced["ops"]):
                verdict = "holds" if g.props[r["pair"]]["holds"] else "violated"
                if (op["verdict"], op["cached"]) != (verdict, r["hit"]):
                    log(f"traced request {r['pair']} hit={r['hit']}: {op}")
                    consistent = False
    server.shutdown()
    return sums, wall * 1e3, attempted, failed, consistent


# ------------------------------------------------------------------ main

def layer_metrics(t, wall_ms):
    """Every per-layer metric from the summed driver totals and the
    untraced wall time of the same operations."""
    # the check workloads make no service requests
    t = {k: t.get(k, 0.0) for k in (
        "hit_request_ms", "miss_request_ms", "json_ms", "cache_hits", "cache_misses",
        "cache_evictions")} | t

    def ratio(hits, misses):
        return t[hits] / (t[hits] + t[misses]) if t[hits] + t[misses] else 0.0

    requests = t["hit_request_ms"] + t["miss_request_ms"]
    # client latency the in-process service does not account for
    wire = wall_ms - requests - t["json_ms"] if requests else 0.0
    phases = t["expand_ms"] + t["eval_ms"] + t["intern_ms"] + t["visit_ms"]
    # the layers an operation's wall time splits into; `other` is the
    # rest (process start, CLI glue and output, service bookkeeping)
    top = ("parse_ms", "lint_ms", "compile_ms", "prepare_ms", "search_ms", "replay_ms",
           "json_ms")
    rows = [
        ("spec.parse_ms", t["parse_ms"], "ms"),
        ("lint.lint_ms", t["lint_ms"], "ms"),
        ("core.compile_ms", t["compile_ms"], "ms"),
        ("core.prepare_ms", t["prepare_ms"], "ms"),
        ("core.units", t["units"], "count"),
        ("core.search_ms", t["search_ms"], "ms"),
        ("core.expand_ms", t["expand_ms"], "ms"),
        ("core.eval_ms", t["eval_ms"], "ms"),
        ("core.intern_ms", t["intern_ms"], "ms"),
        ("core.visit_ms", t["visit_ms"], "ms"),
        ("core.canon_ms", t["canon_ms"], "ms"),
        ("core.search_other_ms", t["search_ms"] - phases, "ms"),
        ("core.configs", t["configs"], "count"),
        ("core.memo_hit_ratio", ratio("memo_hits", "memo_misses"), "ratio"),
        ("core.intern_hit_ratio", ratio("intern_hits", "intern_misses"), "ratio"),
        ("relalg.join_builds", t["join_builds"], "count"),
        ("core.replay_ms", t["replay_ms"], "ms"),
        ("store.spill_pairs", t["spill_pairs"], "count"),
        ("store.segments_written", t["spill_segments"], "count"),
        ("store.compactions", t["spill_compactions"], "count"),
        ("store.pairs_per_segment",
         t["spill_pairs"] / t["spill_segments"] if t["spill_segments"] else 0.0, "count"),
        ("store.bloom_skips", t["bloom_skips"], "count"),
        ("store.cold_probes", t["cold_probes"], "count"),
        ("svc.hit_request_ms", t["hit_request_ms"], "ms"),
        ("svc.miss_request_ms", t["miss_request_ms"], "ms"),
        ("svc.json_ms", t["json_ms"], "ms"),
        ("svc.wire_ms", wire, "ms"),
        ("svc.cache_hit_ratio", ratio("cache_hits", "cache_misses"), "ratio"),
        ("svc.cache_evictions", t["cache_evictions"], "count"),
        ("wave.wall_ms", wall_ms, "ms"),
        ("wave.other_ms", wall_ms - wire - sum(t[k] for k in top), "ms"),
    ]
    return {name: metric(value, unit) for name, value, unit in rows}


def run(args, work):
    wave, drv = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    catalog = driver(drv, "catalog")
    g = gen.Generator(catalog, args.workload, args.seed)
    spill_dir, ram_s = None, 0.0
    try:
        if args.workload == "serve-mix":
            if args.trace:
                server = start_server(wave, g)
                try:
                    layers, wall, attempted, failed, ok = trace_serve(server, drv, g, work)
                finally:
                    server.kill()
                return ok, attempted, failed, layer_metrics(layers, wall)
            server, secs = timed_start(wave, g)
            setup_s = [secs]
            try:
                metrics, attempted, failed, ok = measure_serve(args, wave, server, g, setup_s)
            finally:
                server.kill()
        else:
            if args.workload == "spill":
                t0 = time.perf_counter()
                spill_dir = ram_dir(f"wavebench-{os.getpid()}")
                ram_s = time.perf_counter() - t0
            specs = write_specs(catalog, work)
            setup_pass = setup_checks(drv, g, specs, work, spill_dir)
            setup_s = [setup_pass()]
            if args.trace:
                layers, wall, attempted, failed, ok = trace_checks(
                    wave, drv, g, specs, work, spill_dir)
                return ok, attempted, failed, layer_metrics(layers, wall)
            metrics, attempted, failed, ok = measure_checks(
                args, wave, g, specs, spill_dir, setup_s, setup_pass)
        metrics["setup_s"] = metric(median(setup_s) + ram_s, "s")
        return ok, attempted, failed, metrics
    finally:
        if spill_dir:
            shutil.rmtree(spill_dir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    work = os.path.abspath(os.path.join(".wavebench_work", str(os.getpid())))
    os.makedirs(work)
    try:
        ok, attempted, failed, metrics = run(args, work)
    except SetupError as e:
        log(str(e))
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
