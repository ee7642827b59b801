#!/usr/bin/env python3
"""The repository benchmark: clpp-serve and clpp-lint driven as users start them.

    python3 perfbench/run.py --workload lint|audit|scan|ide --seed N \
                             --seconds T --trace 0|1

Run from the root of a source checkout. The first run builds the programs
(cmake, into .bench_build/) and trains the served advisor with `clpp_cli
train` at its defaults; later runs reuse both. Each run makes its inputs
from --seed, measures for --seconds, checks every answer against a
reference computed in-process, and prints one JSON object as the last line
of stdout: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (a traced run, the same inputs replayed through each
layer's public functions, and /proc probes of the serving processes).
Progress, the run's environment and a summary of every end-to-end metric
go to stderr. Exits non-zero without printing a result when it cannot
build or run the programs. perfbench/README.md describes the workloads and
metrics.
"""
import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from stats import latency_summary, normalize_verdict, request_latencies_ms  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
TRACE_DIR = BUILD / "trace"
TARGETS = ["clpp-serve", "clpp-lint", "clpp_cli", "perfbench_probe"]
SERVE = BUILD / "clpp" / "examples" / "clpp-serve"
LINT = BUILD / "clpp" / "examples" / "clpp-lint"
CLI = BUILD / "clpp" / "examples" / "clpp_cli"
PROBE = BUILD / "perfbench_probe"
ADVISOR = BUILD / "advisor" / "advisor.bin"

STATIC = ("lint", "audit")
SERVING = ("scan", "ide")
WORKLOADS = (*STATIC, *SERVING)
# Units of every end-to-end metric a workload reports; BENCHMARK.json gates
# a subset of them (see perfbench/README.md).
E2E_UNITS = {"advice_per_s": "answers/s", "lint_loops_per_s": "loops/s",
             "latency_p50_ms": "ms", "latency_p99_ms": "ms", "setup_s": "s",
             "rss_mb": "MiB"}

# Result-cache capacity of both serving workloads (clpp-serve --cache-cap):
# above everything ide sends in a run, so its repeats always find their
# first send, and below the distinct loops a scan run sends, so scan's
# lookups miss, insert and evict.
CACHE_CAP = 512
SETUP_REPEATS = 9
LOAD_CONNS = max(1, min(os.cpu_count() or 1, 4))
# Length of the scan-configured serving replay in a lint or audit traced
# run, which supplies its shard and front-cache numbers.
SERVING_REPLAY_S = 5.0
# An open-loop run whose generator sent its p99 request later than this
# behind schedule measured the generator, not the server: it is invalid.
LATE_LIMIT_MS = 50.0


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def hermetic_env():
    """The caller's environment minus every OpenMP and CLPP knob, so a
    program's configuration is exactly its command line."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("OMP_", "GOMP_", "CLPP_"))}


def run_checked(cmd, **kwargs):
    result = subprocess.run([str(c) for c in cmd], env=hermetic_env(),
                            stdout=kwargs.pop("stdout", subprocess.PIPE),
                            stderr=kwargs.pop("stderr", subprocess.PIPE),
                            text=True, **kwargs)
    if result.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} {cmd[1] if len(cmd) > 1 else ''} "
                         f"exited {result.returncode}: {(result.stderr or '')[-2000:]}")
    return result


def median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


# ------------------------------------------------------------------ build

def build(with_advisor=True):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no clpp source tree at {ROOT}")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            run_checked(["cmake", "-S", BENCH_DIR / "probe", "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"],
                        stdout=sys.stderr, stderr=sys.stderr)
        run_checked(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                     "--target", *TARGETS], stdout=sys.stderr, stderr=sys.stderr)
        if with_advisor and not ADVISOR.is_file():
            # The served advisor: clpp_cli train at its defaults (2,000
            # snippets, seed 2023, dim 48, max_len 64), once per build tree.
            ADVISOR.parent.mkdir(exist_ok=True)
            partial = ADVISOR.with_suffix(".partial")
            log("perfbench: training the advisor (clpp_cli train, defaults)...")
            run_checked([CLI, "train", "--out", partial], stdout=sys.stderr, stderr=sys.stderr)
            partial.rename(ADVISOR)


def file_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def run_environment(args):
    """What the numbers depend on besides the code: the machine, the
    sources (the checkout is not a git repository), the advisor, the seeds."""
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    sources = sorted(p for d in ("src", "examples") for p in (ROOT / d).rglob("*")
                     if p.is_file())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit,
            "source_sha256": file_digest([ROOT / "CMakeLists.txt"] + sources),
            "advisor_sha256": file_digest([ADVISOR]), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "load_connections": LOAD_CONNS, "cache_cap": CACHE_CAP}


# ------------------------------------------------------------ /proc probes

def proc_threads(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def proc_cpu_s(pid):
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_pss_mb(pid):
    for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


# ----------------------------------------------------------------- server

def read_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise BenchError("clpp-serve closed the connection")
        data += chunk
    return data


def ask(port, request, timeout=60.0):
    """One framed request/answer on a fresh connection."""
    payload = json.dumps(request).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(struct.pack("<II", len(payload), 0) + payload)
        length, _ = struct.unpack("<II", read_exact(sock, 8))
        return json.loads(read_exact(sock, length))


class Server:
    """One clpp-serve --listen process (and its forked shards), started the
    way a user starts it and stopped with SIGTERM."""

    def __init__(self, shards, tag):
        self.port_file = WORK / f"port-{tag}-{os.getpid()}"
        self.port_file.unlink(missing_ok=True)
        self.cmd = [str(SERVE), "--model", str(ADVISOR), "--listen",
                    "--port-file", str(self.port_file), "--shards", str(shards),
                    "--cache-cap", str(CACHE_CAP)]
        self.proc = None
        self.port = None

    def start(self, first_code):
        """Starts the server; returns the seconds from exec to its first
        answer (advisor load, shard fork, replica clone, first forward)."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, env=hermetic_env(), stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL, start_new_session=True)
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"clpp-serve exited {self.proc.returncode} at start")
            text = self.port_file.read_text().strip() if self.port_file.exists() else ""
            if text:
                self.port = int(text)
                break
            if time.perf_counter() - t0 > 120:
                raise BenchError("clpp-serve did not report its port")
            time.sleep(0.0005)
        answer = ask(self.port, {"id": 1, "code": first_code})
        elapsed = time.perf_counter() - t0
        if "error" in answer:
            raise BenchError(f"first request failed: {answer}")
        return elapsed

    def snapshot(self):
        """Front-end stats plus /proc threads, CPU and PSS of the listener
        and of the shard pids the stats report."""
        stats = ask(self.port, {"cmd": "stats"})["stats"]
        shards = [row["pid"] for row in stats["per_shard"] if row["live"]]
        pids = [self.proc.pid] + shards
        return {"stats": stats, "listener": self.proc.pid, "shards": shards,
                "cpu_s": {pid: proc_cpu_s(pid) for pid in pids},
                "threads": {pid: proc_threads(pid) for pid in pids},
                "pss_mb": {pid: proc_pss_mb(pid) for pid in pids}}

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        # The shards live in the server's session; none may outlive it.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.port_file.unlink(missing_ok=True)
        self.proc = None


# ---------------------------------------------------------------- serving

def reference_verdicts(codes):
    """Normalized verdict of an in-process ParallelAdvisor::advise (default
    options, same advisor file) per exact snippet text."""
    src = WORK / f"ref-in-{os.getpid()}.jsonl"
    out = WORK / f"ref-out-{os.getpid()}.jsonl"
    src.write_text("".join(json.dumps({"code": c}) + "\n" for c in sorted(set(codes))))
    try:
        run_checked([PROBE, "reference", "--model", ADVISOR, "--in", src, "--out", out])
        return {row["code"]: normalize_verdict(row["response"])
                for row in map(json.loads, out.read_text().splitlines())}
    finally:
        src.unlink(missing_ok=True)
        out.unlink(missing_ok=True)


def check_answers(results, plan):
    """Per-phase outcome counts; marks each answer cached and/or mismatched."""
    refs = reference_verdicts([plan[r["i"]]["code"] for r in results if r["status"] == "ok"])
    counts = {"sent": len(results), "answered": 0, "overloaded": 0, "errors": 0,
              "lost": 0, "mismatched": 0, "cached": 0}
    for r in results:
        r["cached"] = r["mismatch"] = False
        if r["status"] != "ok":
            counts["errors" if r["status"] == "error" else r["status"]] += 1
            continue
        counts["answered"] += 1
        body = json.loads(r["payload"])
        r["cached"] = bool(body.get("cached", False))
        r["mismatch"] = normalize_verdict(body) != refs[plan[r["i"]]["code"]]
        counts["cached"] += r["cached"]
        counts["mismatched"] += r["mismatch"]
    return counts


def serving_phase(workload, plan_path, seconds, spans_path=None):
    """Starts SETUP_REPEATS fresh servers (the last one serves), drives the
    workload from one load-generator process, and snapshots /proc before
    and after the measured phase."""
    shards = 2 if workload == "scan" else 1
    setups = []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(shards, f"{workload}{attempt}")
            setups.append(server.start(workloads.SETUP_SNIPPET))
        before = server.snapshot()
        out = WORK / f"results-{workload}-{os.getpid()}.jsonl"
        cmd = [PROBE, "loadgen", "--port", server.port, "--plan", plan_path,
               "--mode", workload, "--conns", LOAD_CONNS, "--seconds", seconds, "--out", out]
        if spans_path:
            cmd += ["--spans", spans_path]
        run_checked(cmd, timeout=seconds + 90)
        after = server.snapshot()
    finally:
        if server is not None:
            server.stop()
    lines = out.read_text().splitlines()
    out.unlink()
    summary = json.loads(lines[-1])["summary"]
    summary["late"] = latency_summary(summary.pop("late_ms"))
    if workload == "ide" and summary["late"]["tail"] > LATE_LIMIT_MS:
        raise BenchError(f"run invalid: the load generator fell behind its schedule "
                         f"(late p{summary['late']['tail_pct']:g} "
                         f"{summary['late']['tail']:.1f} ms > {LATE_LIMIT_MS} ms)")
    return {"setups": setups, "results": [json.loads(line) for line in lines[:-1]],
            "summary": summary, "before": before, "after": after}


def serving_metrics(workload, plan, phase):
    results = phase["results"]
    counts = check_answers(results, plan)
    lat = latency_summary(request_latencies_ms(results, from_due=workload == "ide"))
    failed = counts["errors"] + counts["overloaded"] + counts["lost"] + counts["mismatched"]
    e2e = {
        "advice_per_s": counts["answered"] / (phase["summary"]["wall_ns"] / 1e9),
        "latency_p50_ms": lat["p50"],
        "latency_p99_ms": lat["tail"],
        "setup_s": median(phase["setups"]),
        "rss_mb": sum(phase["after"]["pss_mb"].values()),
    }
    info = {"counts": counts, "latency": lat, "failed": failed, "attempted": counts["sent"],
            "error_rate": failed / max(1, counts["sent"]),
            "verdict_mismatches": counts["mismatched"]}
    return e2e, info


def shard_metrics(phase, info):
    """Per-layer shard and front-cache numbers of one served phase."""
    results, before, after = phase["results"], phase["before"], phase["after"]
    shards = after["shards"]
    cpu = sum(after["cpu_s"][p] - before["cpu_s"].get(p, 0.0) for p in after["cpu_s"])
    served = [row["served"] for row in after["stats"]["per_shard"]]
    hits = [(r["recv_ns"] - r["send_ns"]) / 1e3 for r in results if r["cached"]]
    misses = [(r["recv_ns"] - r["send_ns"]) / 1e6 for r in results
              if r["status"] == "ok" and not r["cached"]]
    front = after["stats"]["cache"]
    lookups = front.get("hits", 0) + front.get("misses", 0)
    return {
        "shard.threads_per_shard": sum(after["threads"][p] for p in shards) / max(1, len(shards)),
        "shard.cpu_ms_per_advice": cpu * 1e3 / max(1, info["counts"]["answered"]),
        "shard.served_skew": max(served) * len(served) / max(1, sum(served)),
        "shard.hit_rtt_us.p50": latency_summary(hits)["p50"],
        "shard.miss_rtt_ms.p99": latency_summary(misses)["tail"],
        "shard.miss_rtt_ms.n": len(misses),
        "shard.shed": info["counts"]["overloaded"],
        "shard.lost": info["counts"]["lost"],
        "cache.front_hit_rate": front.get("hits", 0) / lookups if lookups else 0.0,
        "cache.evictions": front.get("evictions", 0),
    }


def layer_replay(workload, plan_path, tag, files_list=None):
    """The probe's in-process replay of the inputs through each layer."""
    cmd = [PROBE, "layers", "--model", ADVISOR, "--plan", plan_path, "--mode", workload,
           "--cache-cap", CACHE_CAP, "--conns", LOAD_CONNS,
           "--spans", TRACE_DIR / f"{tag}.replay-spans.jsonl"]
    if files_list:
        cmd += ["--files", files_list]
    layers = json.loads(run_checked(cmd, timeout=170).stdout.strip().splitlines()[-1])
    queue = latency_summary(layers.pop("samples")["serve.queue_wait_us"])
    layers["serve.queue_wait_us.p50"] = queue["p50"]
    layers["serve.queue_wait_us.p99"] = queue["tail"]
    layers["serve.queue_wait_us.n"] = queue["n"]
    return layers


def late_metrics(late):
    """How late the load generator sent, as a tail with its sample count."""
    return {"loadgen.late_ms.p99": late["tail"], "loadgen.late_ms.n": late["n"]}


def traffic_metrics(plan):
    return {"traffic.repeat_share": sum(p["repeat"] for p in plan) / len(plan),
            "traffic.ws_variant_share": sum(p["variant"] for p in plan) / len(plan)}


def run_serving(args, tag):
    w = args.workload
    plan = (workloads.scan_plan(PROBE, args.seed, hermetic_env()) if w == "scan"
            else workloads.ide_plan(PROBE, args.seed, args.seconds, hermetic_env()))
    plan_path = WORK / f"plan-{tag}.jsonl"
    workloads.write_plan(plan, plan_path)
    try:
        phase = serving_phase(w, plan_path, args.seconds)
        e2e, info = serving_metrics(w, plan, phase)
        if not args.trace:
            return e2e, info, {}
        traced = serving_phase(w, plan_path, args.seconds,
                               spans_path=TRACE_DIR / f"{tag}.loadgen-spans.jsonl")
        t_e2e, t_info = serving_metrics(w, plan, traced)
        layers = shard_metrics(traced, t_info)
        layers.update(layer_replay(w, plan_path, tag))
        sent = sorted({r["i"] for r in traced["results"]})
        layers.update(traffic_metrics([plan[i] for i in sent]))
        layers.update(late_metrics(traced["summary"]["late"]))
        # End-to-end time of the traced run over the untraced one: time per
        # answer for the closed loop, median latency for the open loop.
        layers["trace.overhead_ratio"] = (
            t_e2e["latency_p50_ms"] / e2e["latency_p50_ms"] if w == "ide"
            else e2e["advice_per_s"] / t_e2e["advice_per_s"])
        layers["e2e.error_rate"] = t_info["error_rate"]
        layers["e2e.verdict_mismatches"] = t_info["verdict_mismatches"]
        return e2e, info, layers
    finally:
        plan_path.unlink(missing_ok=True)


# ----------------------------------------------------------------- static

def lint_process(args, out_path):
    """One clpp-lint process; returns wall s, its own CPU s (user +
    system), peak RSS MiB and exit code."""
    t0 = time.perf_counter()
    with open(out_path, "w") as out:
        proc = subprocess.Popen([str(LINT), *args], env=hermetic_env(),
                                stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, by wait4
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def static_phase(pass_args, seconds, spans=None):
    """Back-to-back `clpp-lint <pass_args>` passes for `seconds`, each
    preceded by one set-up measurement, so the set-up median samples the
    same stretch of time as the passes. Set-up is the CPU time the
    clpp-lint process spends from exec to exit on a one-loop file: its
    start measured without the harness's fork and wait, and without time
    spent waiting for a CPU. Every pass must exit 0 or 1 and print the
    first pass's bytes."""
    out = WORK / f"lint-{os.getpid()}.out"
    setup_file = WORK / f"setup-{os.getpid()}.c"
    setup_file.write_text(workloads.LINT_SETUP_FILE)
    setups, passes, turnaround, first = [], [], [], None
    t_end = time.perf_counter() + seconds
    try:
        while not passes or time.perf_counter() < t_end:
            if passes:
                turnaround.append((time.perf_counter() - passes[-1]["end"]) * 1e3)
            _, cpu, _, rc = lint_process(["--json", setup_file], out)
            if rc not in (0, 1):
                raise BenchError(f"clpp-lint failed on the set-up file (exit {rc})")
            setups.append(cpu)
            start = time.perf_counter()
            wall, _, rss, rc = lint_process(pass_args, out)
            text = out.read_text()
            first = text if first is None else first
            passes.append({"wall": wall, "rss": rss, "ok": rc in (0, 1) and text == first,
                           "start": start, "end": time.perf_counter()})
    finally:
        out.unlink(missing_ok=True)
        setup_file.unlink()
    if spans is not None:
        with open(spans, "w") as f:
            for i, p in enumerate(passes):
                f.write(json.dumps({"name": "clpp-lint.pass", "start": p["start"],
                                    "end": p["end"], "parent": -1, "request": i}) + "\n")
    return {"setups": setups, "passes": passes, "output": first,
            "late": latency_summary(turnaround)}


def static_metrics(phase, check):
    """`check` scores the first pass's output: (units per pass, loops
    linted, mismatches). A pass that failed or printed other bytes fails
    all of its units."""
    units, loops, mismatches = check(phase["output"])
    bad_passes = sum(1 for p in phase["passes"] if not p["ok"])
    failed = bad_passes * units + mismatches
    lat = latency_summary([p["wall"] * 1e3 for p in phase["passes"]])
    e2e = {
        "lint_loops_per_s": loops / (lat["p50"] / 1e3),
        "latency_p50_ms": lat["p50"],
        "latency_p99_ms": lat["tail"],
        "setup_s": median(phase["setups"]),
        "rss_mb": median([p["rss"] for p in phase["passes"]]),
    }
    attempted = units * len(phase["passes"])
    info = {"latency": lat, "failed": failed, "attempted": attempted, "loops": loops,
            "error_rate": failed / attempted, "verdict_mismatches": mismatches}
    return e2e, info


def static_layers(workload, pass_args, seconds, tag, plan, e2e, check, files_list=None):
    """The traced run of a static workload: a second, traced phase; the
    workload's loops through a scan-configured clpp-serve --listen (2
    shards, file by file, SERVING_REPLAY_S) for the shard and front-cache
    layers; the in-process replay of every layer. `e2e` is the untraced
    run's."""
    traced = static_phase(pass_args, seconds, spans=TRACE_DIR / f"{tag}.pass-spans.jsonl")
    t_e2e, t_info = static_metrics(traced, check)
    plan_path = WORK / f"plan-{tag}.jsonl"
    workloads.write_plan(plan, plan_path)
    try:
        served = serving_phase("scan", plan_path, SERVING_REPLAY_S)
        _, s_info = serving_metrics("scan", plan, served)
        layers = shard_metrics(served, s_info)
        layers.update(layer_replay(workload, plan_path, tag, files_list))
    finally:
        plan_path.unlink(missing_ok=True)
    layers.update(traffic_metrics(plan))
    layers.update(late_metrics(traced["late"]))
    layers["trace.overhead_ratio"] = t_e2e["latency_p50_ms"] / e2e["latency_p50_ms"]
    layers["e2e.error_rate"] = t_info["error_rate"]
    layers["e2e.verdict_mismatches"] = t_info["verdict_mismatches"] + s_info["failed"]
    return layers


def run_lint(args, tag):
    tree_dir = WORK / f"tree-{tag}"
    tree = workloads.lint_tree(PROBE, ROOT, tree_dir, args.seed, hermetic_env())
    log(f"perfbench: tree of {len(tree['files'])} files, sha256 {tree['sha256']}")
    files = [str(p) for p in tree["files"]]
    files_list = WORK / f"files-{tag}.jsonl"

    def check(output):
        # Every file's report must equal the library's own, the seeded
        # defects must be caught and clean loops left alone.
        by_file = {r["file"]: r for r in
                   (json.loads(line) for line in output.splitlines() if line.strip())}
        ref_path = WORK / f"lintref-{os.getpid()}.jsonl"
        run_checked([PROBE, "lintref", "--out", ref_path, *files])
        refs = [json.loads(line) for line in ref_path.read_text().splitlines()]
        ref_path.unlink()
        score = workloads.score_lint(tree, by_file)
        mismatches = (sum(1 for ref in refs if by_file.get(ref["file"]) != ref)
                      + score["missed"] + score["clean_flagged"])
        return len(files), sum(r["loops_checked"] for r in by_file.values()), mismatches

    try:
        phase = static_phase(["--json", *files], args.seconds)
        e2e, info = static_metrics(phase, check)
        if not args.trace:
            return e2e, info, {}
        plan = [workloads.entry(row["code"], row["group"]) for row in tree["records"]]
        files_list.write_text("".join(json.dumps(f) + "\n" for f in files))
        return e2e, info, static_layers("lint", ["--json", *files], args.seconds, tag, plan,
                                        e2e, check, files_list)
    finally:
        files_list.unlink(missing_ok=True)
        for path in tree_dir.glob("*"):
            path.unlink()
        tree_dir.rmdir()


def run_audit(args, tag):
    audit = workloads.audit_args(args.seed)

    def check(output):
        # The report must equal the library's own, and with label noise off
        # every seeded defect is caught and no clean loop is flagged.
        report = json.loads(output)
        ref = run_checked([PROBE, "auditref", *audit[2:]]).stdout
        mismatches = (int(report != json.loads(ref)) + report["bugs_missed"]
                      + report["clean_flagged"])
        return report["records"], report["linted"], mismatches

    phase = static_phase(audit, args.seconds)
    e2e, info = static_metrics(phase, check)
    if not args.trace:
        return e2e, info, {}
    records = workloads.corpus(PROBE, workloads.audit_seed(args.seed), workloads.AUDIT_SIZE,
                               hermetic_env(), buggy=workloads.LINT_BUGGY_RATE, simd=True)
    plan = [workloads.entry(r["code"], i // workloads.SCAN_FILE_LOOPS)
            for i, r in enumerate(records)]
    return e2e, info, static_layers("audit", audit, args.seconds, tag, plan, e2e, check)


# ------------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = dict(E2E_UNITS, **{m["name"]: m["unit"] for m in config["per_layer"]})
    build()
    WORK.mkdir(exist_ok=True)
    TRACE_DIR.mkdir(exist_ok=True)
    log("perfbench env: " + json.dumps(run_environment(args)))
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = {"lint": run_lint, "audit": run_audit}.get(args.workload, run_serving)
    e2e, info, layers = runner(args, tag)

    lat = info["latency"]
    log(f"perfbench {args.workload}: attempted {info['attempted']}, failed {info['failed']}; "
        f"latency over {lat['n']} samples, tail = p{lat['tail_pct']:g}")
    for name, value in e2e.items():
        log(f"  {name} = {value:.6g} {units[name]}")
    log(f"  error_rate = {info['error_rate']:.6g} fraction")
    log(f"  verdict_mismatches = {info['verdict_mismatches']} count")
    if args.trace:
        names = [m["name"] for m in config["per_layer"]]
        missing = [n for n in names if n not in layers]
        if missing:
            raise BenchError(f"per-layer metrics not produced: {missing}")
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in names}
    else:
        # A gated workload prints exactly BENCHMARK.json's end-to-end
        # metrics; the others print all of their own.
        gated = {w["name"] for w in config["workloads"]}
        names = [m["name"] for m in config["end_to_end"]] if args.workload in gated else e2e
        metrics = {n: {"value": e2e[n], "unit": units[n]} for n in names}
    print(json.dumps({"correct": info["failed"] == 0, "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
