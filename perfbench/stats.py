"""Turns the raw samples of one perfbench run into its reported metrics.

The perfbench binary only records: step times, per-request timestamps and
statuses, and spans around calls into the library. Every statistic the
benchmark reports is computed here, so it can be tested on its own
(test_stats.py).
"""

import math
import statistics
from collections import defaultdict

# serve::Status values as the binary records them; -1 = never resolved.
OK, SHED_QUEUE_FULL, SHED_LOAD, EXPIRED, WORKER_STALLED, ERROR = range(6)

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples. Rounding first
    keeps binary fractions (99.9% of 10000 = 9990.000000000002) exact."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of all
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(n, min_beyond=10):
    """The highest candidate percentile that still has at least `min_beyond`
    of `n` samples above its nearest rank, or None if none has."""
    for p in TAIL_CANDIDATES:
        if n - _rank(p, n) >= min_beyond:
            return p
    return None


def self_times(spans):
    """Per span, its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        clipped = sorted(
            (max(lo, spans[c]["start_ns"]), min(hi, spans[c]["end_ns"]))
            for c in children[i])
        covered, run_lo, run_hi = 0, None, None
        for a, b in clipped:
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


def serve_outcomes(serve):
    """Classifies every request sent. A request is good only if it came back
    OK, with a valid output, by its deadline (due time + deadline). Shed,
    expired, late, errored and unresolved requests are all misses."""
    deadline = serve["deadline_ns"]
    c = dict(sent=len(serve["status"]), good=0, late=0, shed=0, expired=0,
             error=0)
    for status, due, done, valid in zip(serve["status"], serve["due_ns"],
                                        serve["done_ns"], serve["output_ok"]):
        if status == OK and not valid:
            c["error"] += 1
        elif status == OK:
            c["good" if done - due <= deadline else "late"] += 1
        elif status in (SHED_QUEUE_FULL, SHED_LOAD):
            c["shed"] += 1
        elif status == EXPIRED:
            c["expired"] += 1
        else:  # worker stalled, error, unresolved
            c["error"] += 1
    sent = max(1, c["sent"])
    admitted = c["sent"] - c["shed"]
    # Per second from the window's start to the last completion: the time
    # the server took to answer the window, as measured.
    elapsed_s = max(max(serve["done_ns"]), 1) / 1e9
    c["goodput_per_s"] = c["good"] / elapsed_s
    c["ok_frac"] = c["good"] / sent
    c["shed_frac"] = c["shed"] / sent
    c["expired_frac"] = c["expired"] / admitted if admitted else 0.0
    return c


def _ok_column(serve, key):
    return [v for v, s in zip(serve[key], serve["status"]) if s == OK]


def serve_latencies_ms(serve):
    """Latency of every OK response, timed from its due time."""
    return [(done - due) / 1e6
            for status, due, done in zip(serve["status"], serve["due_ns"],
                                         serve["done_ns"])
            if status == OK]


def end_to_end(raw):
    """(metrics, attempted, failed, notes) of an untraced run."""
    m = {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    notes = []
    if "train" in raw:
        t = raw["train"]
        steps_ms = [s * 1e3 for s in t["step_s"]]
        attempted = len(steps_ms) + t["failed"]
        failed = t["failed"]
        m["goodput_per_s"] = t["batch"] * len(steps_ms) / (sum(steps_ms) / 1e3)
        latencies = steps_ms
        notes.append(f"{len(steps_ms)} steps of batch {t['batch']} "
                     f"at T={t['threads']}")
    else:
        s = raw["serve"]
        c = serve_outcomes(s)
        attempted, failed = c["sent"], c["error"]
        m["goodput_per_s"] = c["goodput_per_s"]
        latencies = serve_latencies_ms(s)
        notes.append(
            f"{c['sent']} sent at {s['rate_qps']:g} req/s: {c['good']} good "
            f"(ok_frac {c['ok_frac']:.4f}), {c['late']} late, {c['shed']} "
            f"shed, {c['expired']} expired, {c['error']} failed")
    # Only the median is a gated metric: past it, serving latency crosses
    # from batch-1 to batch-2+ responses, and a few percent of compute speed
    # moves the tail by a third between runs. The tail is printed instead.
    m["latency_ms.p50"] = percentile(latencies, 50)
    notes.append(f"p90 = {percentile(latencies, 90):.3f} ms")
    tail = tail_percentile(len(latencies))
    if tail is not None:
        notes.append(f"tail: p{tail:g} = {percentile(latencies, tail):.3f} ms "
                     f"over {len(latencies)} samples")
    else:
        notes.append(f"tail: fewer than 10 samples beyond p50 "
                     f"({len(latencies)} samples)")
    return m, attempted, failed, notes


def _by_name(spans):
    groups = defaultdict(list)
    for i, s in enumerate(spans):
        groups[(s["name"], s["threads"])].append(i)
    return groups


def per_layer(raw, spans, coverage_floor=0.95):
    """(metrics, checks) of a traced run. Checks are (name, ok, detail)."""
    selfs = self_times(spans)
    groups = _by_name(spans)
    dur = [s["end_ns"] - s["start_ns"] for s in spans]

    def med(name, threads, values=dur):
        idx = groups.get((name, threads), [])
        if not idx:
            raise KeyError(f"no span {name!r} at {threads} thread(s)")
        return statistics.median(values[i] for i in idx)

    m, checks = {}, []
    for net, facts in raw["nets"].items():
        t = facts["threads"]
        layers = sorted({n[len(net) + 1:-4] for (n, th) in groups
                         if th == t and n.startswith(net + ".")
                         and n.endswith((".fwd", ".bwd"))})
        for layer in layers:
            for phase in ("fwd", "bwd"):
                if (f"{net}.{layer}.{phase}", t) in groups:
                    m[f"layers.{net}.{layer}.{phase}_ms"] = (
                        med(f"{net}.{layer}.{phase}", t, selfs) / 1e6)
        m[f"net.{net}.forward_ms"] = med(f"{net}.forward", t) / 1e6
        m[f"net.{net}.backward_ms"] = med(f"{net}.backward", t) / 1e6
        m[f"net.{net}.memory_mb"] = facts["memory_bytes"] / 2**20
        m[f"parallel.{net}.private_mb"] = facts["private_bytes"] / 2**20
        m[f"parallel.{net}.speedup.iter"] = (
            med(f"{net}.pass", 1) / med(f"{net}.pass", t))
        for kind in ("conv", "ip"):
            for phase in ("fwd", "bwd"):
                names = [f"{net}.{layer}.{phase}" for layer in facts[kind]]
                m[f"parallel.{net}.speedup.{kind}.{phase}"] = (
                    sum(med(n, 1) for n in names) /
                    sum(med(n, t) for n in names))
        m[f"trace.{net}.overhead_frac"] = (
            med(f"{net}.pass", t) / med(f"{net}.ForwardBackward", t) - 1.0)

        # Layer spans must account for the passes they sit in.
        worst = 1.0
        for fwd in groups[(f"{net}.forward", t)]:
            bwd = next(i for i in groups[(f"{net}.backward", t)]
                       if spans[i]["id"] == spans[fwd]["id"])
            inner = sum(dur[i] for i, s in enumerate(spans)
                        if s["parent"] in (fwd, bwd))
            worst = min(worst, inner / (dur[fwd] + dur[bwd]))
        checks.append((f"layer_span_coverage.{net}", worst >= coverage_floor,
                       f"min layer coverage {worst:.4f} of forward+backward"))

    for (name, threads), idx in groups.items():
        if name.startswith("parallel.merge."):
            m[f"parallel.merge_us.{name[len('parallel.merge.'):]}"] = (
                med(name, threads) / 1e3)
        elif name.startswith("data.load."):
            m[f"data.{name[len('data.load.'):]}.load_ms"] = (
                med(name, threads) / 1e6)
    for tag, shape in raw["gemm"].items():
        m[f"blas.gemm.{tag}.gflops"] = (
            shape["flops"] / med(f"blas.gemm.{tag}", 1))
    m["plan.build_ms"] = med("plan.build", 1) / 1e6
    m["serve.start_ms"] = med("serve.start", 1) / 1e6

    s = raw["serve"]
    c = serve_outcomes(s)
    m["serve.compute_ms.p50"] = (
        percentile(_ok_column(s, "compute_us"), 50) / 1e3)
    m["serve.queue_wait_ms.p99"] = (
        percentile(_ok_column(s, "queue_wait_us"), 99) / 1e3)
    m["serve.batch_size.mean"] = statistics.mean(_ok_column(s, "batch"))
    m["serve.latency_ms.p99"] = percentile(serve_latencies_ms(s), 99)
    m["serve.shed_frac"] = c["shed_frac"]
    m["serve.expired_frac"] = c["expired_frac"]
    m["serve.submit_us.p99"] = percentile(
        [(b - a) / 1e3 for a, b in zip(s["sent_ns"], s["submitted_ns"])], 99)
    m["serve.gen_lag_ms.p99"] = percentile(
        [(b - a) / 1e6 for a, b in zip(s["due_ns"], s["sent_ns"])], 99)

    over = serve_outcomes(raw["serve_overload"])
    for key in ("goodput_per_s", "shed_frac", "expired_frac"):
        m[f"serve.overload.{key}"] = over[key]
    return m, checks


UNITS = (  # metric-name suffix -> (unit, better)
    ("_ms", "ms", "lower"), ("_ms.p50", "ms", "lower"),
    ("_ms.p99", "ms", "lower"),
    ("_us", "us", "lower"), ("_us.p99", "us", "lower"),
    ("_per_s", "1/s", "higher"), ("_s", "s", "lower"), ("_mb", "MB", "lower"),
    ("gflops", "GFLOP/s", "higher"),
    ("_frac", "fraction", "lower"),
    ("batch_size.mean", "count", "higher"),
)


def unit_of(name):
    """(unit, better) of a metric, from its name."""
    if ".speedup." in name:
        return "x", "higher"
    if ".merge_us." in name:
        return "us", "lower"
    for suffix, unit, better in UNITS:
        if name.endswith(suffix):
            return unit, better
    raise KeyError(f"no unit for metric {name!r}")
