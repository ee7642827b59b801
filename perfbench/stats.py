"""Percentile and verdict rules shared by the benchmark and its self-tests."""
import math

# Per-request bookkeeping and per-serving telemetry: everything in a
# clpp-serve answer that is not the verdict itself.
VOLATILE_KEYS = ("id", "client", "trace_id", "queue_us", "batch_us", "infer_us",
                 "coalesced", "cached")


def normalize_verdict(body):
    """The verdict fields of one answer (or reference), for comparison."""
    return {k: v for k, v in body.items() if k not in VOLATILE_KEYS}


def nearest_rank(sorted_values, q):
    """The q-quantile by the nearest-rank rule (q in (0, 1])."""
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def tail_percentile(n):
    """The highest percentile, at most 99, that leaves at least ten of `n`
    samples above it; the median when there are fewer than 20 samples."""
    if n < 20:
        return 0.5
    return min(0.99, 1.0 - 10.0 / n)


def latency_summary(values):
    """Median and tail (tail_percentile) of `values`; failed requests are
    passed as math.inf and so count as later than every answer."""
    ordered = sorted(values)
    if not ordered:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": 50.0}
    q = tail_percentile(len(ordered))
    return {"n": len(ordered), "p50": nearest_rank(ordered, 0.5),
            "tail": nearest_rank(ordered, q), "tail_pct": round(q * 100, 2)}


def request_latencies_ms(results, from_due):
    """Round trip of every request in ms, from its scheduled due time (open
    loop) or its send (closed loop). A request that errored, was shed, went
    unanswered or got a wrong verdict is infinitely late."""
    out = []
    for r in results:
        if r["status"] != "ok" or r.get("mismatch"):
            out.append(math.inf)
        else:
            out.append((r["recv_ns"] - (r["due_ns"] if from_due else r["send_ns"])) / 1e6)
    return out
