"""rayspace benchmark: end-to-end metrics per workload, per-layer metrics in a traced run.

Run from anywhere; the script works in the checkout that contains it:

    python3 perfbench/run.py --workload dist-envelope --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --trace 1             # the traced run
    python3 perfbench/run.py                       # every workload, a traced run, BENCHMARK.json
    python3 perfbench/run.py --write-config        # regenerate BENCHMARK.json from spec.py
    python3 perfbench/run.py --workload census --pin-answers   # re-pin a seed-1 digest

``--trace 0`` sets up the workload at least nine times and for at least a
second (``setup_s`` is the median), then runs whole rounds of its operations,
one at a time, until ``--seconds`` have passed.  Outside the timed window it
runs the pool rounds the window did not reach, checks every answer, and
compares each round's answers with the digest pinned for the default seed.
Its times are scaled by a speed probe (see :class:`SpeedProbe`) to cancel
the shared machine's changes of speed; the unscaled figures are printed as
notes.

``--trace 1`` ignores ``--seconds`` and ``--workload``: every traced run
reports every per-layer metric, so it measures the scaling curves, then for
every workload replays a fixed sample of operations, alternating plain and
under the layer wrappers, and reports per-layer metrics (unscaled), tracing
overhead and whether counts repeat.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
ANSWERS = Path(__file__).resolve().parent / "answers.json"
SETUP_REPEATS = 9  # at least, and until the set-ups add up to SETUP_MIN_S
SETUP_MIN_S = 1.0
PROBE_REF_MS = 3.0
PROBE_EVERY_NS = 200_000_000
PROBE_NEAR_NS = 1_000_000_000
TRACE_PASSES = 2
SPAN_BATCH = 20_000
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


def percentile(sorted_vals: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(p / 100 * len(sorted_vals)) - 1)]


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip() or "unknown"
    except OSError:  # no git
        return "unknown"


def environment() -> dict:
    import numpy
    import rayspace._kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "kernel_backend": rayspace._kernels.backend(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def answers_digest(answers: list[str]) -> str:
    h = hashlib.sha256()
    for a in answers:
        h.update(a.encode() + b"\0")
    return h.hexdigest()[:16]


def run_op(op):
    """(answer, evidence, error) of one operation."""
    try:
        answer, evidence = op.run()
        return answer, evidence, None
    except Exception as exc:  # a raising operation counts as failed, the run goes on
        return None, None, f"{type(exc).__name__}: {exc}"


def check_op(op, answer, evidence) -> bool:
    try:
        return bool(op.check(answer, evidence))
    except Exception:  # a reference that cannot read the answer marks it wrong
        return False


# ---- untraced run -------------------------------------------------------------


def probe_ms() -> float:
    """Wall time of a fixed pure-Python task that uses no rayspace code."""
    gc.disable()
    t0 = time.perf_counter_ns()
    acc, table = Fraction(0), {}
    for k in range(1, 300):
        x = Fraction(k, 7) + Fraction(3, k)
        acc = max(acc, x - acc / 2)
        table[x] = k
    sorted(table)
    elapsed = time.perf_counter_ns() - t0
    gc.enable()
    return elapsed / 1e6


class SpeedProbe:
    """Scales wall times to a machine of fixed speed.

    On a shared machine the speed a process gets can change by a quarter
    within seconds, and pure-Python code slows down alike.  So between
    operations, at most every PROBE_EVERY_NS, the benchmark times
    :func:`probe_ms`, and a measured interval is scaled by PROBE_REF_MS over
    the median probe within PROBE_NEAR_NS of it: the result reads as the time
    on a machine where the probe takes PROBE_REF_MS.
    """

    def __init__(self):
        self.at: list[int] = []
        self.ms: list[float] = []

    def probe(self) -> None:
        self.at.append(time.perf_counter_ns())
        self.ms.append(probe_ms())

    def maybe_probe(self) -> None:
        if not self.at or time.perf_counter_ns() - self.at[-1] >= PROBE_EVERY_NS:
            self.probe()

    def scaled_ms(self, start_ns: int, end_ns: int) -> float:
        lo = bisect.bisect_left(self.at, start_ns - PROBE_NEAR_NS)
        hi = bisect.bisect_right(self.at, end_ns + PROBE_NEAR_NS)
        near = self.ms[lo:hi]
        if len(near) < 3:
            i = bisect.bisect_left(self.at, start_ns)
            near = self.ms[max(0, i - 2):i + 2]
        return (end_ns - start_ns) / 1e6 * PROBE_REF_MS / statistics.median(near)


@dataclass
class Sample:
    round: int  # the run's round number; ``pool[round % len(pool)]`` holds the op
    index: int
    answer: str | None
    evidence: object
    error: str | None
    start_ns: int
    end_ns: int


def run_workload(name: str, seed: int, seconds: float, pin: bool = False) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name](seed, WORKDIR / name)
    children = name == "cli-cold"
    if children:
        # the probe runs here and the work in child processes: keep both on one
        # CPU so that the probe sees the speed the children get
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass
    speed = SpeedProbe()
    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        speed.probe()
        t0 = time.perf_counter_ns()
        pool = wl.setup()
        t1 = time.perf_counter_ns()
        speed.probe()
        setup_s.append(speed.scaled_ms(t0, t1) / 1000)
    gc.collect()

    samples: list[Sample] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for i, op in enumerate(pool[rounds % len(pool)]):
            speed.maybe_probe()
            t0 = time.perf_counter_ns()
            answer, evidence, error = run_op(op)
            samples.append(Sample(rounds, i, answer, evidence, error, t0, time.perf_counter_ns()))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    window = time.perf_counter() - start
    rss = peak_rss_mb(children)
    speed.probe()

    # Outside the timed window: run the pool rounds the window did not reach,
    # check every answer, and compare each pool round with its pinned digest.
    def op_of(x: Sample):
        return pool[x.round % len(pool)][x.index]

    first: dict = {}  # (pool round, index) -> (answer, error, passed its check)
    for x in samples:
        key = (x.round % len(pool), x.index)
        if key not in first:
            first[key] = (x.answer, x.error,
                          x.error is None and check_op(op_of(x), x.answer, x.evidence))
    untimed = [(r, i) for r, ops in enumerate(pool) for i in range(len(ops))
               if (r, i) not in first]
    for r, i in untimed:
        answer, evidence, error = run_op(pool[r][i])
        first[(r, i)] = (answer, error, error is None and check_op(pool[r][i], answer, evidence))
    digests = [answers_digest([str(first[(r, i)][0]) for i in range(len(ops))])
               for r, ops in enumerate(pool)]
    pinned_all = json.loads(ANSWERS.read_text())
    pinned = pinned_all.get(name) if seed == spec.DEFAULT_SEED and not pin else None
    errors = []
    bad_rounds = set()
    if pinned is not None:
        bad_rounds = {r for r in range(len(pool)) if r >= len(pinned) or pinned[r] != digests[r]}
        if bad_rounds or len(pinned) != len(pool):
            errors.append(f"answers of pool rounds {sorted(bad_rounds)} differ from the pinned "
                          f"digests ({len(pinned)} pinned for {len(pool)} rounds)")
    bad_keys = {key for key, (_, _, ok) in first.items() if not ok or key[0] in bad_rounds}
    wrong = [x for x in samples
             if x.error is not None or (x.round % len(pool), x.index) in bad_keys
             or x.answer != first[(x.round % len(pool), x.index)][0]]
    wrong_untimed = [key for key in untimed if key in bad_keys]
    for op, answer, error in [(op_of(x), x.answer, x.error) for x in wrong[:5]] + [
            (pool[r][i], *first[(r, i)][:2]) for r, i in wrong_untimed[:5]]:
        errors.append(f"{op.kind}: {error or repr(answer)[:120]}")
    failed = len(wrong) + len(wrong_untimed)
    if pin and seed == spec.DEFAULT_SEED and failed == 0:
        pinned_all[name] = digests
        ANSWERS.write_text(json.dumps(pinned_all, indent=2) + "\n")

    lat = [speed.scaled_ms(x.start_ns, x.end_ns) for x in samples]
    round_ms: dict[int, float] = {}
    by_kind: dict[str, list[float]] = {}
    for x, ms in zip(samples, lat):
        round_ms[x.round] = round_ms.get(x.round, 0.0) + ms
        by_kind.setdefault(op_of(x).kind, []).append(ms)
    n = len(samples)
    ordered = sorted(lat)
    raw = sorted((x.end_ns - x.start_ns) / 1e6 for x in samples)
    p_tail = wl.tail_percentile
    beyond = n - math.ceil(p_tail / 100 * n)
    return {
        "correct": failed == 0,
        "attempted": n + len(untimed),
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setup_s),
            # the median round resists a slow spell better than n / total time
            "ops_per_s": statistics.median(
                len(pool[r % len(pool)]) * 1000 / ms for r, ms in round_ms.items()),
            "op_p50_ms": percentile(ordered, 50),
            "op_tail_ms": percentile(ordered, p_tail),
            "peak_rss_mb": rss,
        },
        "reported": {"failed_ratio": (failed / (n + len(untimed)), "share")},
        "notes": {
            "rounds": rounds,
            "untimed_checked": len(untimed),
            "tail": f"p{p_tail} of {n} samples, {beyond} beyond"
            + ("" if beyond >= 10 else " (fewer than ten: the run was slow)"),
            "probe_ms_median": statistics.median(speed.ms),
            "unscaled": {"window_s": window, "ops_per_s": n / window,
                         "op_p50_ms": percentile(raw, 50),
                         "op_tail_ms": percentile(raw, p_tail)},
            "kinds": {k: (len(v), round(statistics.median(v), 3))
                      for k, v in sorted(by_kind.items())},
            "digest_pinned": pinned is not None,
            "errors": errors,
        },
    }


# ---- traced run ---------------------------------------------------------------


def _timed_ms(fn) -> float:
    t0 = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - t0) / 1e6


def _process_ms(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
    return (time.perf_counter_ns() - t0) / 1e6


def measure_curves(seed: int) -> dict[str, float]:
    """Scaling curves and process costs, measured without wrappers."""
    import rayspace as rs
    import workloads

    out = {}
    rng = random.Random(f"curves/{seed}")
    for v in (25, 50, 100):
        g = rs.parse_graph(workloads.ring_graph_text(rng, v, v // 4, 4))
        out[f"graph.vertex_table_ms.v{v}"] = _timed_ms(lambda: g.vertex_distances)
    par = rs.parse_graph(workloads.GRAPH_TEXTS["G_PAR"])
    par.vertex_distances
    for m in (4, 8, 16, 32):
        A, B = (rs.parse_set(workloads.par_set_text(rng, m), par) for _ in range(2))
        out[f"metric.hausdorff_ms.m{m}"] = _timed_ms(lambda: rs.hausdorff(par, A, B))
    line = rs.parse_graph(workloads.GRAPH_TEXTS["G_LINE"])
    for k in (2, 4):
        out[f"oracle.census_ms.h{k}"] = _timed_ms(
            lambda: rs.oracle_components(line, Fraction(1, k), 2, Fraction(3, 5), 2, 1))

    env = dict(os.environ, PYTHONPATH="src")
    startup = statistics.median(_process_ms(["-c", "pass"], env) for _ in range(3))
    imported = statistics.median(_process_ms(["-c", "import rayspace"], env) for _ in range(3))
    out["cli.python_startup_ms"] = startup
    out["cli.import_ms"] = imported - startup
    cli = workloads.CliCold(seed, WORKDIR / "curves")
    seen = set()
    for op in cli.setup()[0]:
        cmd = op.argv[0]
        if op.kind == cmd and cmd not in seen:  # the small fixed inputs only
            seen.add(cmd)
            out[f"cli.process_ms.{cmd}"] = _process_ms(["-m", "rayspace.cli", *op.argv], env)
    return out


def _op_ms(speed: SpeedProbe, op) -> tuple[float, bool, str | None]:
    """Run one operation; return (time scaled by the speed probe, passed, error)."""
    speed.maybe_probe()
    t0 = time.perf_counter_ns()
    answer, evidence, error = run_op(op)
    t1 = time.perf_counter_ns()
    speed.probe()
    ok = error is None and check_op(op, answer, evidence)
    return speed.scaled_ms(t0, t1), ok, error or (None if ok else repr(answer)[:120])


def span_cost_ms(speed: SpeedProbe, rec) -> float:
    """The time one recorded call adds: a no-op called through the recorder's
    wrapper against a plain call, the fastest of several batches of each."""
    def noop():
        return None

    wrapped = rec.wrap(noop, "trace.noop", None)

    def batch_ms(fn) -> float:
        speed.probe()
        t0 = time.perf_counter_ns()
        for _ in range(SPAN_BATCH):
            fn()
        t1 = time.perf_counter_ns()
        speed.probe()
        return speed.scaled_ms(t0, t1)

    mark = len(rec.spans)
    rec.op = ("trace", "noop")
    try:
        best = min(batch_ms(wrapped) for _ in range(7)) - min(batch_ms(noop) for _ in range(7))
    finally:
        rec.op = None
        del rec.spans[mark:]
    return best / SPAN_BATCH


def trace_workload(name: str, seed: int, rec) -> tuple[dict, int, list[str], float]:
    """Per-layer metrics of one workload's fixed sample:
    (metrics, attempted, errors, measured overhead ratio).

    Set-up runs once under the layer wrappers.  Then, TRACE_PASSES times,
    every operation of the sample runs once without the wrappers and once
    under them, back to back and in alternating order.  Every traced pass
    after the first checks that counts repeat.

    On this kind of shared machine one operation's time varies by a quarter
    from run to run, far more than the wrappers add, so the traced-over-plain
    time ratio (returned for the notes) scatters around 1.  The reported
    ``trace.overhead_ratio`` is therefore the plain time plus the spans of one
    traced pass times the measured cost of one span, over the plain time;
    plain times are each operation's fastest run.  It grows with the number
    of spans, so a function wrapped twice shows.
    """
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, WORKDIR / name)
    plain_sample = wl.trace_ops(wl.setup())
    rec.install()
    try:
        rec.op = (name, "setup")
        sample = wl.trace_ops(wl.setup())
    finally:
        rec.op = None
        rec.uninstall()
    speed = SpeedProbe()
    plain_ms = [[] for _ in sample]
    traced_ms = [[] for _ in sample]
    errors: list[str] = []
    passes = range(1, TRACE_PASSES + 1)
    gc.collect()
    for p in passes:
        for k, (plain_op, op) in enumerate(zip(plain_sample, sample)):
            for traced in ((False, True) if p % 2 else (True, False)):
                if not traced:
                    plain_ms[k].append(_op_ms(speed, plain_op)[0])
                    continue
                rec.install()
                try:
                    rec.op = (name, p, k)
                    ms, ok, error = _op_ms(speed, op)
                finally:
                    rec.op = None
                    rec.uninstall()
                traced_ms[k].append(ms)
                if not ok:
                    errors.append(f"{op.kind}: {error}")

    ops = {p: {(name, p, k) for k in range(len(sample))} for p in passes}
    first = tracing.SpanView(rec, ops[1] | {(name, "setup")})
    views = [first] + [tracing.SpanView(rec, ops[p]) for p in passes[1:]]
    for view in views:
        try:
            view.check()
        except tracing.SpanError as exc:
            errors.append(f"{name}: {exc}")
    m = [tracing.layer_metrics(tracing.SpanView(rec, ops[p])) for p in passes]
    errors += [f"{name}: {key} was {m[0][key]} in pass 1 and {mp[key]} in pass {p}"
               for p, mp in zip(passes[1:], m[1:]) for key in tracing.REPEATABLE
               if m[0][key] != mp[key]]
    layers = tracing.layer_metrics(first)
    plain = sum(map(min, plain_ms))
    spans = len(tracing.SpanView(rec, ops[1]).idx)
    layers["trace.overhead_ratio"] = 1 + spans * span_cost_ms(speed, rec) / plain
    metrics = {f"{name}.{k}": layers[k] for k in spec.WORKLOAD_LAYERS[name]}
    return metrics, TRACE_PASSES * len(sample), errors, sum(map(min, traced_ms)) / plain


def run_traced(seed: int) -> dict:
    import tracing

    metrics = measure_curves(seed)
    rec = tracing.Recorder()
    attempted = 0
    errors: list[str] = []
    measured = {}
    for name in spec.WORKLOADS:
        m, a, e, measured[name] = trace_workload(name, seed, rec)
        metrics.update(m)
        attempted += a
        errors += e
    rec.write(WORKDIR / f"spans-{seed}.json")
    errors += [f"missing per-layer metric {m}"
               for m in sorted(set(spec.per_layer_units()) - set(metrics))]
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
        "notes": {"spans": len(rec.spans), "traced_over_plain_time": measured,
                  "errors": errors},
    }


# ---- entry ----------------------------------------------------------------------


def emit(result: dict, units: dict[str, str]) -> None:
    for name, value in result["metrics"].items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    for name, (value, unit) in result.get("reported", {}).items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for key, value in result.get("notes", {}).items():
        print(f"  note {key}: {value}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then one traced run, each in its own process;
    then BENCHMARK.json is rewritten from spec.py."""
    summary = {}
    for name in [*spec.WORKLOADS, None]:
        argv = [sys.executable, __file__, "--seed", str(seed), "--seconds", str(seconds)]
        argv += ["--workload", name or "all", "--trace", "0" if name else "1"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(f"== {name or 'traced'}\n" + proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name or "traced"] = json.loads(proc.stdout.strip().splitlines()[-1])
    spec.write_config(ROOT)
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-config", action="store_true",
                    help="write BENCHMARK.json from spec.py and exit")
    ap.add_argument("--pin-answers", action="store_true",
                    help="with the default seed, write the workload's answer digests "
                         "to answers.json if every check passes")
    args = ap.parse_args()
    if args.write_config:
        spec.write_config(ROOT)
        return 0
    if not (ROOT / "src" / "rayspace" / "__init__.py").is_file():
        print(f"error: no rayspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in THREAD_VARS:  # one client and no extra threads
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    WORKDIR.mkdir(exist_ok=True)
    if args.workload == "all" and not args.trace:
        return run_all(args.seed, args.seconds)

    print("env " + json.dumps(environment()))
    if args.trace:
        result, units = run_traced(args.seed), spec.per_layer_units()
        print(f"traced run of every workload, seed {args.seed}")
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.pin_answers)
        units = {k: u for k, (u, _, _) in spec.END_TO_END.items()}
        print(f"workload {args.workload} seed {args.seed}")
    emit(result, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
