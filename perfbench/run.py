"""Seeded, offline benchmark of tgq.

    python3 perfbench/run.py --workload values --seed 1 --seconds 25 --trace 0

Runs one workload in this process as a closed loop with one client, one
thread and no think time: an analyst waits for each answer before asking
the next. The dataset and every query come from ``--seed``; tgq sees only
the generated JSONL file and query strings. Each workload runs in a fresh
process, so its peak RSS and its snapshot cache belong to it alone;
``--workload all`` runs the three one after another that way and prints
their result lines as one JSON object.

Before timing, the 176 golden corpus queries are replayed through
``tgq corpus`` and byte-compared with the output recorded in
``perfbench/golden/corpus_expected.jsonl``. Every timed answer is checked
against the digests recorded for the default and held-out seeds, against
an answer computed from the generator's data for the shapes that have one
(``oracle.py``), and against its own first answer when an op repeats.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs a fixed
number of rounds once untraced and once with every public tgq function
wrapped (``tracer.py``), and reports the per-layer metrics; their counts
repeat exactly for one seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A human-readable report goes to stderr, and the full results (and
the spans of a traced run) to ``.bench_out/``. The exit code is 0 when every
answer is right, 1 when one is wrong, and 2 when tgq or the corpus files
cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden"
CORPUS_GRAPH = ROOT / "tests" / "data" / "corpus_graph.jsonl"
CORPUS_QUERIES = ROOT / "tests" / "data" / "corpus_queries.txt"

sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

DEFAULT_SEED = 1
# Answers for this seed are recorded in golden/digests.json. A change that
# is being written must not use it; it is for confirming a claim afterwards.
HELD_OUT_SEED = 90417

FAMILIES = ("lookup", "find", "characterize", "search", "compare", "seek",
            "connect", "struct", "correlate")


@dataclass(frozen=True)
class Workload:
    scale: gen.Scale
    config: dict | None  # Config fields; None runs through the CLI's own config
    rounds: int  # distinct rounds generated; the timed loop cycles through them
    traced_rounds: int  # rounds run by --trace 1, untraced and then traced
    setup_loads: int  # loads whose median is setup_s
    tail_pct: int  # percentile reported as latency_tail_ms
    predicted: tuple  # layers predicted to have the largest self time


WORKLOADS = {
    # The candidate cap is part of the values workload: raised so that the
    # 1k-node pair and seek shapes run instead of being rejected, and kept
    # the same for every commit measured.
    "values": Workload(gen.Scale(1000, 2000, 50), {"search_max_candidates": 1_000_000},
                       rounds=4, traced_rounds=1, setup_loads=5, tail_pct=96,
                       predicted=("graph", "patterns")),
    "structure": Workload(gen.Scale(140, 280, 30), {}, rounds=8, traced_rounds=2,
                          setup_loads=15, tail_pct=96, predicted=("graph", "structure")),
    "cold_query": Workload(gen.Scale(300, 600, 50), None, rounds=16, traced_rounds=4,
                           setup_loads=9, tail_pct=85, predicted=("graph",)),
}

# The per-layer functions reported one by one, as "<name>.calls", ".share"
# (total time over traced op time) and ".self_share" (self time likewise).
# Shares rather than seconds, because a workload that never reaches one of
# these functions would report a time of exactly zero on every run.
TASK_OPS = ("direct_lookup", "inverse_lookup", "characterize", "pattern_search",
            "direct_compare", "inverse_compare", "relation_seek")
STRUCT_OPS = ("find_connection", "find_connected", "find_connected_pairs",
              "connection_times", "structural_characterize", "structural_search",
              "snapshot_metrics")


class Unavailable(Exception):
    """tgq or its corpus files are missing from the checkout."""


def import_tgq():
    src = ROOT / "src"
    if not (src / "tgq" / "__init__.py").is_file():
        raise Unavailable(f"no tgq package under {src}")
    for path in (CORPUS_GRAPH, CORPUS_QUERIES):
        if not path.is_file():
            raise Unavailable(f"missing {path}")
    sys.path.insert(0, str(src))
    import tgq
    import tgq.cli

    if Path(tgq.__file__).resolve().parent != (src / "tgq").resolve():
        raise Unavailable(f"imported tgq from {tgq.__file__}, not from {src}")
    return tgq


def digest_text(envelope: dict) -> str:
    """The envelope as the CLI prints it, with its one timing field zeroed."""
    return json.dumps({**envelope, "elapsed_ms": 0})


def nearest_rank(n: int, pct: float) -> int:
    """1-based rank of the ``pct`` percentile among ``n`` sorted samples."""
    return int(max(1, -(-n * pct // 100)))


def load_golden(workload: str, seed: int):
    path = GOLDEN / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


class Runner:
    """Runs one query the way the workload's user does, and checks answers."""

    def __init__(self, tgq, name: str, wl: Workload, data, ops: list, path: Path, seed: int):
        self.tgq = tgq
        self.cli = tgq.cli
        self.data = data
        self.ops = ops
        self.path = path
        self.golden = load_golden(name, seed)
        self.cfg = tgq.Config(**wl.config) if wl.config is not None else None
        self.graph = None
        self.tracer = None
        self.first: dict = {}  # op index -> (digest, ok)
        self.failures: list = []
        self.serialized_bytes = 0
        self.rows = 0
        self.seek_rows = 0

    def load(self):
        self.graph = None
        gc.collect()
        start = perf_counter()
        self.graph = self.tgq.load_path(str(self.path))
        return perf_counter() - start

    def execute(self, text: str):
        """One op: what the user waits for, up to the JSON text the CLI
        prints. Returns that text, or (envelope, text) through the API."""
        if self.cfg is None:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(["query", str(self.path), text])
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return out.getvalue()
        envelope = self.tgq.run_query(text, self.graph, self.cfg)
        if self.tracer is not None:
            return envelope, self.tracer.call("cli.serialize", json.dumps, envelope)
        return envelope, json.dumps(envelope)

    def check(self, index: int, result) -> bool:
        op = self.ops[index]
        try:
            envelope = json.loads(result) if self.cfg is None else result[0]
            rows = len(envelope["bindings"])
        except (ValueError, KeyError, TypeError) as err:
            return self._fail(index, f"malformed envelope: {err!r}")
        if "error" in envelope:
            return self._fail(index, f"error envelope {envelope['error']}")
        text = digest_text(envelope)
        self.serialized_bytes += len(text)
        self.rows += rows
        if op.family == "seek":
            self.seek_rows += rows
        dig = hashlib.sha256(text.encode()).hexdigest()[:16]
        if index not in self.first:
            ok = True
            if self.golden is not None and self.golden[index] != dig:
                ok = self._fail(index, "digest differs from the recorded answer")
            if not oracle.agrees(op, self.data, envelope["bindings"]):
                ok = self._fail(index, "answer differs from the generator's oracle")
            self.first[index] = (dig, ok)
            return ok
        first_dig, first_ok = self.first[index]
        if dig != first_dig:
            return self._fail(index, "answer differs from this op's first answer")
        return first_ok

    def _fail(self, index: int, why: str) -> bool:
        if len(self.failures) < 20:
            self.failures.append(f"op {index} [{self.ops[index].text}]: {why}")
        return False

    def run(self, indices, seconds=None, round_len=None):
        """Closed loop over ``indices``; with ``seconds``, cycle whole rounds
        until that much op time has passed. Returns (samples, wall_s), where
        a sample is (op index, latency s, ok) and wall_s excludes checking."""
        samples = []
        checking = 0.0
        start = perf_counter()
        pos = 0
        while True:
            index = indices[pos % len(indices)]
            if self.tracer is not None:
                self.tracer.begin_op(index)
            t0 = perf_counter()
            try:
                if self.tracer is not None:
                    result = self.tracer.call("op", self.execute, self.ops[index].text)
                else:
                    result = self.execute(self.ops[index].text)
                error = None
            except Exception as err:  # a failed op is counted, not fatal
                result, error = None, err
            t1 = perf_counter()
            ok = self.check(index, result) if error is None else self._fail(
                index, f"{type(error).__name__}: {error}")
            if self.tracer is not None and self.ops[index].family == "seek":
                calls = self.tracer.op_calls
                self.tracer.counters["seek.pairs"] += (
                    calls["relations.eval_relation"] + calls["tasks.pattern_pair_detail"])
            samples.append((index, t1 - t0, ok))
            checking += perf_counter() - t1
            pos += 1
            if seconds is None:
                if pos == len(indices):
                    break
            elif pos % round_len == 0 and perf_counter() - start - checking >= seconds:
                break
        return samples, perf_counter() - start - checking


def replay_corpus(tgq) -> tuple:
    """(attempted, failed, note): the golden corpus through ``tgq corpus``."""
    expected = (GOLDEN / "corpus_expected.jsonl").read_text()
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = tgq.cli.main(["corpus", str(CORPUS_GRAPH), str(CORPUS_QUERIES)])
    except Exception as exc:  # counted as every corpus query failing
        return len(expected.splitlines()), len(expected.splitlines()), f"raised {exc!r}"
    got, want = out.getvalue().splitlines(), expected.splitlines()
    failed = sum(1 for g, w in zip(got, want) if g != w or '"error"' in g)
    failed += abs(len(got) - len(want))
    if code != 0 and not failed:
        failed = 1
    note = "byte-identical" if out.getvalue() == expected and code == 0 else (
        f"{failed} lines differ, exit {code}")
    return len(want), failed, note


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(wl: Workload, runner: Runner, samples, wall: float, setup: list):
    """(gated metrics, reported-only metrics, run details)."""
    lat = sorted(s[1] for s in samples)
    by_family: dict = {}
    by_shape: dict = {}
    for index, latency, _ in samples:
        by_family.setdefault(runner.ops[index].family, []).append(latency)
        by_shape.setdefault(runner.ops[index].shape, []).append(latency)
    rank = nearest_rank(len(lat), wl.tail_pct)
    failed = sum(1 for s in samples if not s[2])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(samples) / wall, "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (lat[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "answered_ratio": ((len(samples) - failed) / len(samples), "ratio"),
    }
    extra = {
        "fail_ratio": (failed / len(samples), "ratio"),
        **{f"{f}_mean_ms": (statistics.fmean(by_family[f]) * 1e3, "ms")
           for f in FAMILIES if f in by_family},
    }
    info = {"tail_percentile": wl.tail_pct, "tail_samples_beyond": len(lat) - rank,
            "ops": len(samples), "timed_wall_s": wall,
            "ops_per_family": {f: len(v) for f, v in sorted(by_family.items())},
            "shapes": {k: {"ops": len(v), "mean_ms": statistics.fmean(v) * 1e3,
                           "share": sum(v) / wall}
                       for k, v in sorted(by_shape.items(), key=lambda kv: -sum(kv[1]))}}
    return metrics, extra, info


def per_layer(tr: Tracer, runner: Runner, traced_s: float, untraced_s: float,
              decode_s: float) -> dict:
    def share(name, self_time=False):
        return (tr.self_s(name) if self_time else tr.total_s(name)) / traced_s

    m = {
        "graph.load.calls": (tr.calls("graph.load"), "count"),
        "graph.load.s": (tr.total_s("graph.load"), "s"),
        "graph.decode_s": (decode_s, "s"),
        "graph.value_at.calls": (tr.calls("graph.value_at_info"), "count"),
        "graph.value_at.s": (tr.total_s("graph.value_at_info"), "s"),
        "graph.defined_at.calls": (tr.calls("graph.defined_at"), "count"),
        "graph.snapshot.calls": (tr.calls("graph.snapshot"), "count"),
        "graph.snapshot.share": (share("graph.snapshot"), "ratio"),
        "dsl.parse.s": (tr.total_s("dsl.parse"), "s"),
        "dsl.plan.s": (tr.total_s("dsl.plan"), "s"),
        "dsl.execute.s": (tr.total_s("dsl.execute"), "s"),
        "cli.serialize.s": (tr.total_s("cli.serialize"), "s"),
        "cli.serialize.bytes": (runner.serialized_bytes, "bytes"),
    }
    for layer, names in (("tasks", TASK_OPS), ("structure", STRUCT_OPS)):
        for op in names:
            name = f"{layer}.{op}"
            m[f"{name}.calls"] = (tr.calls(name), "count")
            m[f"{name}.share"] = (share(name), "ratio")
            m[f"{name}.self_share"] = (share(name, True), "ratio")
    seek_pairs = tr.counters["seek.pairs"]
    candidates = tr.counters["search.candidates"]
    m.update({
        "search.candidates": (candidates, "count"),
        "search.candidates_per_row": (candidates / max(1, runner.rows), "1/row"),
        "search.group_candidates.calls": (tr.calls("search.group_candidates"), "count"),
        "search.group_candidates.share": (share("search.group_candidates"), "ratio"),
        "patterns.classify_trend.calls": (tr.calls("patterns.classify_trend"), "count"),
        "patterns.classify_trend.share": (share("patterns.classify_trend"), "ratio"),
        "patterns.classify_distribution.calls":
            (tr.calls("patterns.classify_distribution"), "count"),
        "patterns.classify_distribution.share":
            (share("patterns.classify_distribution"), "ratio"),
        "patterns.aspectual.share": (share("patterns.aspectual"), "ratio"),
        "patterns.match_score.calls": (tr.calls("patterns.match_score"), "count"),
        "seek.pairs": (seek_pairs, "count"),
        "seek.pairs_per_row": (seek_pairs / max(1, runner.seek_rows), "1/row"),
        "relations.shortest_connection.calls":
            (tr.calls("relations.shortest_connection"), "count"),
        "relations.shortest_connection.share":
            (share("relations.shortest_connection"), "ratio"),
        "relations.are_adjacent.calls": (tr.calls("relations.are_adjacent"), "count"),
        "relations.are_adjacent.share": (share("relations.are_adjacent"), "ratio"),
        "correlate.pearson.calls": (tr.calls("correlate.pearson"), "count"),
        "correlate.pearson.share": (share("correlate.pearson"), "ratio"),
        "correlate.element_series.share": (share("correlate.element_series"), "ratio"),
        "correlate.group_series.share": (share("correlate.group_series"), "ratio"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
        "trace.traced_s": (traced_s, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "errors.raised": (sum(tr.errors.values()), "count"),
    })
    layers = tr.layer_self_s()
    for layer in sorted(set(LAYERS.values())) + ["bench"]:
        m[f"layer.{layer}.self_share"] = (layers.get(layer, 0.0) / traced_s, "ratio")
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them one after another, each in "
                        "a fresh process")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="run every generated op once and store its answer digest "
                        "in golden/digests.json (for the default and held-out seeds)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the dataset (self-tests only); answers are then "
                        "checked by oracle and repetition, not by recorded digests")
    return p.parse_args(argv)


def scaled(wl: Workload, factor: float) -> Workload:
    if factor == 1.0:
        return wl
    s = wl.scale
    small = gen.Scale(max(30, int(s.nodes * factor)), max(60, int(s.edges * factor)),
                      max(20, int(s.times * factor)))
    return Workload(small, wl.config, 1, 1, 1, wl.tail_pct, wl.predicted)


def run_all(args) -> int:
    """Each workload in a fresh process, one after another, so that none
    warms another's caches and each peak RSS belongs to one workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("TGQ_CONFIG", None)
    try:
        tgq = import_tgq()
    except (Unavailable, ImportError) as err:
        print(f"perfbench: cannot run: {err}", file=sys.stderr)
        return 2
    wl = scaled(WORKLOADS[args.workload], args.scale)

    corpus_attempted, corpus_failed, corpus_note = replay_corpus(tgq)
    print(f"corpus replay: {corpus_attempted} queries, {corpus_note}", file=sys.stderr)

    data = gen.make_dataset(wl.scale, args.seed)
    rounds = gen.make_ops(args.workload, data, args.seed, wl.rounds)
    ops = [op for r in rounds for op in r]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}{'-trace' if args.trace else ''}"
    path = OUT / f"{tag}.jsonl"
    lines = data.lines()
    path.write_text("\n".join(lines) + "\n")
    try:
        runner = Runner(tgq, args.workload, wl, data, ops, path, args.seed)
        if args.scale != 1.0:
            runner.golden = None
        if args.record:
            return record(runner, args)
        if args.trace:
            result = traced_run(tgq, runner, wl, rounds, lines, args)
        else:
            result = timed_run(runner, wl, rounds, args)
    finally:
        path.unlink()
    metrics, report, samples = result
    failed = corpus_failed + sum(1 for s in samples if not s[2])
    attempted = corpus_attempted + len(samples)
    correct = failed == 0
    report.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "corpus_replay": corpus_note, "failures": runner.failures,
                   "python": sys.version.split()[0], "nproc": os.cpu_count()})
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
         **report}, indent=1))
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def timed_run(runner: Runner, wl: Workload, rounds, args):
    # For cold_query the CLI loads inside every op; setup_s times the same
    # file being loaded before the timed phase all the same.
    runner.load()  # warm-up: imports, allocator growth
    setup = [runner.load() for _ in range(wl.setup_loads)]
    if runner.cfg is None:
        runner.graph = None
    gc.collect()
    indices = list(range(sum(len(r) for r in rounds)))
    samples, wall = runner.run(indices, seconds=args.seconds, round_len=len(rounds[0]))
    metrics, extra, info = end_to_end(wl, runner, samples, wall, setup)
    print(f"{args.workload} seed={args.seed}: {info['ops']} ops in {wall:.2f} s, "
          f"tail p{wl.tail_pct} with {info['tail_samples_beyond']} samples beyond",
          file=sys.stderr)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:24s} {value:14.6g} {unit}", file=sys.stderr)
    info["not_gated"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    return metrics, info, samples


def traced_run(tgq, runner: Runner, wl: Workload, rounds, lines, args):
    # Ingest split from outside: load over the raw lines and over the same
    # records already decoded. Splitting resolve from the consistency checks
    # needs spans inside tgq and is left out.
    records = [json.loads(line) for line in lines]
    raw, decoded = [], []
    for _ in range(max(3, wl.setup_loads)):
        for source, times in ((lines, raw), (records, decoded)):
            gc.collect()
            start = perf_counter()
            tgq.load(source)
            times.append(perf_counter() - start)
    decode_s = statistics.median(raw) - statistics.median(decoded)
    del records

    # The same rounds, untraced and then traced, each on a freshly loaded
    # graph so that both start with empty caches.
    indices = list(range(sum(len(r) for r in rounds[:wl.traced_rounds])))
    if runner.cfg is not None:
        runner.load()
    gc.collect()
    base, untraced_s = runner.run(indices)
    runner.graph = None
    runner.serialized_bytes = runner.rows = runner.seek_rows = 0
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        if runner.cfg is not None:
            tracer.begin_op("setup")
            runner.graph = tgq.load_path(str(runner.path))
        setup_load = (tracer.calls("graph.load"), tracer.total_s("graph.load"))
        tracer.stats.clear()
        runner.tracer = tracer
        traced, traced_s = runner.run(indices)
    finally:
        runner.tracer = None
        tracer.uninstall()
    tracer.stats.setdefault("graph.load", [0, 0.0, 0.0])
    tracer.stats["graph.load"][0] += setup_load[0]
    tracer.stats["graph.load"][1] += setup_load[1]

    metrics = per_layer(tracer, runner, traced_s, untraced_s, decode_s)
    shares = {k.split(".")[1]: v for k, (v, _) in metrics.items() if k.startswith("layer.")}
    tgq_shares = {k: v for k, v in shares.items() if k != "bench"}
    largest = max(tgq_shares, key=tgq_shares.get)
    verdict = "met" if largest in wl.predicted else "NOT met"
    print(f"{args.workload} seed={args.seed}: {len(traced)} traced ops, tracing overhead "
          f"{traced_s:.2f} s traced / {untraced_s:.2f} s untraced", file=sys.stderr)
    print("  self-time share per layer: " + ", ".join(
        f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
        file=sys.stderr)
    print(f"  prediction (largest layer in {'/'.join(wl.predicted)}): {verdict}, "
          f"largest is {largest}", file=sys.stderr)
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1][2])[:12]
    for name, (calls, total, self_s) in top:
        print(f"  {name:40s} calls {calls:9d}  total {total:9.4f} s  self {self_s:9.4f} s",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}", file=sys.stderr)
    tag = f"{args.workload}-{args.seed}-trace"
    with open(OUT / f"{tag}-spans.jsonl", "w") as fh:
        for rec in tracer.span_records():
            fh.write(json.dumps(rec) + "\n")
    info = {
        "layer_self_share": shares, "predicted_largest": list(wl.predicted),
        "largest_layer": largest, "prediction": verdict,
        "functions": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(tracer.stats.items())},
        "errors_by_function_and_code": dict(sorted(tracer.errors.items())),
    }
    return metrics, info, base + traced


def record(runner: Runner, args) -> int:
    if args.seed not in (DEFAULT_SEED, HELD_OUT_SEED):
        print("perfbench: --record is for the default and held-out seeds", file=sys.stderr)
        return 1
    runner.golden = None
    if runner.cfg is not None:
        runner.load()
    samples, _ = runner.run(list(range(len(runner.ops))))
    if not all(ok for _, _, ok in samples):
        for line in runner.failures:
            print(f"FAILED {line}", file=sys.stderr)
        return 1
    path = GOLDEN / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    table.setdefault(args.workload, {})[str(args.seed)] = [
        runner.first[i][0] for i in range(len(runner.ops))
    ]
    path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(runner.ops)} digests for {args.workload} seed {args.seed}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
