"""Analysis of one perfbench run: percentiles, span self times, layer table.

Kept free of I/O beyond reading the span file, so the tests in
perfbench/tests can check each rule on hand-made inputs.
"""

import math
from collections import defaultdict, namedtuple

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10

Span = namedtuple("Span", "id parent thread request start end name")


def percentile(values, p):
    """Nearest-rank p-th percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def read_spans(path):
    """Spans from the workload's tab-separated span file, times in seconds."""
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, thread, request, start, end, name = line.rstrip("\n").split("\t")
            spans.append(Span(int(sid), int(parent), int(thread), int(request),
                              int(start) * 1e-9, int(end) * 1e-9, name))
    return spans


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: self seconds}: a span's duration minus the union of its
    children's intervals, wherever the children ran."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _union_length(children[s.id], s.start, s.end)
            for s in spans}


def self_by_name(spans):
    """{name: (calls, total self seconds)}."""
    own = self_times(spans)
    out = defaultdict(lambda: [0, 0.0])
    for s in spans:
        out[s.name][0] += 1
        out[s.name][1] += own[s.id]
    return {name: tuple(v) for name, v in out.items()}


BENCH_PREFIX = "bench."


def attribute_wall(spans):
    """Splits the traced wall time among span names.

    The traced total is the time during which a benchmark span (a name
    starting with BENCH_PREFIX: the benchmark's own loop) is open. At each
    instant, the spans doing their own work are those open with no open
    child; the instant is shared equally among them, so the shares of
    concurrent spans on several threads still add up to wall time. Instants
    where only benchmark spans work are unattributed.

    Returns (total, {name: seconds}, unattributed) with
    sum(shares) + unattributed == total.
    """
    # At equal times, starts go first (a parent before its children: ids
    # grow in opening order), then ends (children before their parent).
    events = []
    for s in spans:
        events.append(((s.start, 0, s.id), True, s))
        events.append(((s.end, 1, -s.id), False, s))
    events.sort(key=lambda e: e[0])
    by_id = {s.id: s for s in spans}
    open_ids, open_children = set(), defaultdict(int)
    working = defaultdict(int)  # name -> spans doing own work now
    shares, unattributed, total = defaultdict(float), 0.0, 0.0
    roots_open, last = 0, None

    def start_work(s):
        working[s.name] += 1

    def stop_work(s):
        working[s.name] -= 1
        if not working[s.name]:
            del working[s.name]

    for (time, _, _), is_start, s in events:
        if last is not None and time > last and roots_open:
            dt = time - last
            total += dt
            busy = {n: c for n, c in working.items()
                    if not n.startswith(BENCH_PREFIX)}
            count = sum(busy.values())
            if count:
                for name, c in busy.items():
                    shares[name] += dt * c / count
            else:
                unattributed += dt
        last = time
        parent = by_id.get(s.parent)
        if is_start:
            if parent is not None and parent.id in open_ids:
                if open_children[parent.id] == 0:
                    stop_work(parent)
                open_children[parent.id] += 1
            open_ids.add(s.id)
            start_work(s)
            roots_open += s.name.startswith(BENCH_PREFIX)
        else:
            if open_children[s.id] == 0:
                stop_work(s)
            open_ids.discard(s.id)
            roots_open -= s.name.startswith(BENCH_PREFIX)
            if parent is not None and parent.id in open_ids:
                open_children[parent.id] -= 1
                if open_children[parent.id] == 0:
                    start_work(parent)
    return total, dict(shares), unattributed


def shard_imbalance(spans, shard_name="eval.shard"):
    """Sum over steps of the slowest shard over the sum of mean shards."""
    steps = defaultdict(list)
    for s in spans:
        if s.name == shard_name:
            steps[s.request].append(s.end - s.start)
    slowest = sum(max(d) for d in steps.values())
    mean = sum(sum(d) / len(d) for d in steps.values())
    return slowest / mean if mean else 0.0
