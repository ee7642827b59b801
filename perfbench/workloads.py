"""Seeded inputs of the workloads. The same seed gives byte-identical
request streams and an identical lint tree (perfbench/selftest.py checks it).

Every loop comes from the repository's own generator (`perfbench_probe
corpus`, i.e. codegen) at seeds derived from the workload seed and never
equal to 2023, the served advisor's training seed, so traffic is held out
from training.
"""
import hashlib
import itertools
import json
import random
import re
import subprocess
from pathlib import Path

# scan: a pool of distinct loops cut into files of tens of loops each.
SCAN_POOL = 6000
SCAN_FILE_LOOPS = 24

# ide: seeded Poisson arrivals at one rate, about 80% repeats drawn
# Zipf-style from a hot set; some repeats are whitespace variants of their
# first send, and some loops carry `//` comments.
IDE_RATE = 60.0  # requests/s
IDE_HOT_SET = 48
IDE_REPEAT_SHARE = 0.8
IDE_ZIPF_S = 1.1
IDE_VARIANT_SHARE = 0.10  # of repeats
IDE_VARIANT_WS_RATE = 0.2  # chance each whitespace run is rewritten
COMMENT_SHARE = 0.25
COMMENT_WORDS = ["acc", "hot path", "TODO: vectorize", "bounds checked", "tmp",
                 "see below", "unrolled by hand"]
WHITESPACE = [" ", "  ", "\n", "\n    ", "\t"]

# lint: codegen records with their directive placed above the loop, seeded
# defects on, label noise off, cut into files.
LINT_SNIPPETS = 4000
LINT_FILE_RECORDS = 40
LINT_BUGGY_RATE = 0.15
LINT_MIX_SEED = 1
# audit: clpp-lint --audit generates its own corpus of AUDIT_SIZE records
# (codegen, defects seeded at LINT_BUGGY_RATE, label noise off, simd
# families on) and lints every record's own directive.
AUDIT_SIZE = 4000
LINT_SETUP_FILE = ("#pragma omp parallel for\n"
                   "for (i = 0; i < n; i++)\n"
                   "    a[i] = b[i] + c[i];\n")

# Sent once to every fresh server to time its set-up; appears in no stream.
SETUP_SNIPPET = "for (q = 0; q < 3; q++) setup_probe[q] = q;"

KEYWORDS = {"for", "if", "while", "switch", "return", "sizeof"}


def derive_seed(seed, salt):
    value = int.from_bytes(hashlib.sha256(f"{salt}:{seed}".encode()).digest()[:6], "little")
    return value + 1 if value == 2023 else value


def corpus(probe, seed, size, env, buggy=0.0, simd=False):
    cmd = [str(probe), "corpus", "--seed", str(seed), "--size", str(size),
           "--buggy", str(buggy)] + (["--simd"] if simd else [])
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def distinct_loops(records):
    seen, loops = set(), []
    for r in records:
        if r["digest"] not in seen:
            seen.add(r["digest"])
            loops.append(r["code"])
    return loops


def entry(code, group, due_us=0, repeat=False, variant=False):
    return {"code": code, "group": group, "due_us": due_us, "repeat": repeat,
            "variant": variant}


def write_plan(plan, path):
    with open(path, "w") as out:
        for p in plan:
            out.write(json.dumps({"code": p["code"], "group": p["group"],
                                  "due_us": p["due_us"]}) + "\n")


def scan_plan(probe, seed, env):
    loops = distinct_loops(corpus(probe, derive_seed(seed, "scan"), SCAN_POOL, env))
    return [entry(code, i // SCAN_FILE_LOOPS) for i, code in enumerate(loops)]


def with_comment(code, rng):
    """Appends a `//` comment to one statement line of `code`."""
    lines = code.split("\n")
    candidates = [i for i, line in enumerate(lines)
                  if line.rstrip().endswith((";", "{", ")"))]
    if not candidates:
        return code
    i = rng.choice(candidates)
    lines[i] = lines[i].rstrip() + " // " + rng.choice(COMMENT_WORDS)
    return "\n".join(lines)


def ws_variant(code, rng):
    """The same text with some whitespace runs rewritten, line breaks
    included; never identical to `code`."""
    parts = re.split(r"(\s+)", code)
    runs = [i for i, part in enumerate(parts) if part and part.isspace()]
    if not runs:
        return code + " "
    for _ in range(16):
        out = list(parts)
        for i in runs:
            if rng.random() < IDE_VARIANT_WS_RATE:
                out[i] = rng.choice(WHITESPACE)
        text = "".join(out)
        if text != code:
            return text
    i = rng.choice(runs)
    out = list(parts)
    out[i] = "\n" if parts[i] != "\n" else "  "
    return "".join(out)


def ide_plan(probe, seed, seconds, env):
    rng = random.Random(derive_seed(seed, "ide"))
    expected = int(IDE_RATE * seconds)
    pool = IDE_HOT_SET + int(expected * (1 - IDE_REPEAT_SHARE) * 1.5) + 200
    loops = distinct_loops(corpus(probe, derive_seed(seed, "ide-corpus"), pool, env))
    loops = [with_comment(code, rng) if rng.random() < COMMENT_SHARE else code
             for code in loops]
    hot, fresh = loops[:IDE_HOT_SET], iter(loops[IDE_HOT_SET:])
    cum = list(itertools.accumulate(1.0 / (k + 1) ** IDE_ZIPF_S for k in range(IDE_HOT_SET)))
    sent_before = set()
    plan, t = [], 0.0
    while True:
        t += rng.expovariate(IDE_RATE)
        if t >= seconds:
            break
        if rng.random() < IDE_REPEAT_SHARE:
            k = rng.choices(range(IDE_HOT_SET), cum_weights=cum)[0]
            repeat = k in sent_before
            code = hot[k]
            if repeat and rng.random() < IDE_VARIANT_SHARE:
                code = ws_variant(hot[k], rng)
            sent_before.add(k)
            plan.append(entry(code, len(plan), int(t * 1e6), repeat, code != hot[k]))
        else:
            plan.append(entry(next(fresh), len(plan), int(t * 1e6)))
    return plan


# ------------------------------------------------------------------- lint

def _functions(code):
    defined = {m for m in re.findall(r"\b([A-Za-z_]\w*)\s*\([^()]*\)\s*\{", code)
               if m not in KEYWORDS}
    called = {m for m in re.findall(r"\b([A-Za-z_]\w*)\s*\(", code) if m not in KEYWORDS}
    return defined, called


def _annotated(record):
    """The record's code with its directive on the line above its first
    loop (the corpus convention lint::audit_labels lints)."""
    code = record["code"]
    if not record.get("has_directive"):
        return code
    lines = code.split("\n")
    first = next(i for i, line in enumerate(lines) if re.match(r"\s*for\b", line))
    lines.insert(first, record["directive"])
    return "\n".join(lines)


def audit_seed(seed):
    return derive_seed(seed, "audit")


def audit_args(seed):
    """clpp-lint's arguments for one audit pass."""
    return ["--audit", "--json", "--size", str(AUDIT_SIZE), "--seed", str(audit_seed(seed)),
            "--buggy", str(LINT_BUGGY_RATE)]


def lint_records(probe, seed, env):
    """LINT_SNIPPETS records drawn from the seed's corpus with a fixed
    family mix (the mix of corpus seed LINT_MIX_SEED), so every seed lints
    the same kinds of loops in the same proportions and only the loops
    themselves change."""
    def generate(s, size):
        return corpus(probe, s, size, env, buggy=LINT_BUGGY_RATE, simd=True)
    quota = {}
    for r in generate(LINT_MIX_SEED, LINT_SNIPPETS):
        quota[r["family"]] = quota.get(r["family"], 0) + 1
    records = []
    for r in generate(derive_seed(seed, "lint"), 3 * LINT_SNIPPETS):
        if quota.get(r["family"], 0) > 0:
            quota[r["family"]] -= 1
            records.append(r)
    return records


def lint_tree(probe, root, directory, seed, env):
    """Writes the generated tree and returns its files (plus
    corpus/realworld/*.c), per-record line ranges and a digest."""
    records = lint_records(probe, seed, env)
    # A file never holds two records that define, or define and call, the
    # same function name, so every loop is linted in the context it was
    # generated (and labeled) in.
    groups, current, defined, called = [], [], set(), set()
    for r in records:
        d, c = _functions(r["code"])
        if current and (len(current) >= LINT_FILE_RECORDS or d & (defined | called)
                        or c & defined):
            groups.append(current)
            current, defined, called = [], set(), set()
        current.append(r)
        defined |= d
        called |= c
    if current:
        groups.append(current)

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files, rows, digest = [], [], hashlib.sha256()
    for g, group in enumerate(groups):
        path = directory / f"gen_{g:03d}.c"
        text, line = "", 1
        for r in group:
            body = _annotated(r).rstrip("\n") + "\n"
            n_lines = body.count("\n")
            rows.append({"file": str(path), "start": line, "end": line + n_lines - 1,
                         "bug": r.get("bug", ""), "linted": bool(r.get("has_directive")),
                         "code": r["code"], "group": g})
            text += body + "\n"
            line += n_lines + 1
        path.write_text(text)
        digest.update(text.encode())
        files.append(path)
    realworld = sorted((Path(root) / "corpus" / "realworld").glob("*.c"))
    return {"files": files + realworld, "records": rows, "sha256": digest.hexdigest()}


def score_lint(tree, reports):
    """Seeded defects missed and clean loops flagged, as lint::audit_labels
    counts them, from clpp-lint's per-file JSON reports."""
    score = {"linted": 0, "seeded": 0, "caught": 0, "missed": 0, "clean_flagged": 0}
    for row in tree["records"]:
        if not row["linted"]:
            continue
        score["linted"] += 1
        diags = [d for d in reports.get(row["file"], {}).get("diagnostics", [])
                 if row["start"] <= d["line"] <= row["end"]]
        if row["bug"]:
            score["seeded"] += 1
            if any(d["rule"] == row["bug"] for d in diags):
                score["caught"] += 1
            else:
                score["missed"] += 1
        elif any(d["level"] == "error" for d in diags):
            score["clean_flagged"] += 1
    return score
