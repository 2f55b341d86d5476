"""Benchmark of the stablepi1 engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, and scratch files go to ``perfbench/out/``.  Workloads are closed
loops with one caller and no threads: the next op starts when the previous
one returns.  The timed phase runs whole passes until ``--seconds`` have been
spent inside them; input generation and answer checks happen between passes,
with the clock stopped.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each of a
fixed number of passes twice, plain and with spans around every public
function of the package, then one in-process ``verify-all`` under the spans,
and prints the per-layer metrics.  The last line of standard output is the
result object; the line before it is a stamp with the run's context.  Both
are also written to ``perfbench/out/``.  The exit code is 0 when every op
was answered correctly, 1 when one was not, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
# Not used while the benchmark was written; confirm claims on it.
HELD_OUT_SEED = 7919
SETUP_REPS = 9
CLI_REPS = 21
# Percentile of close-op times reported as op_tail_ms: the highest of 50, 75,
# 90, 95, 99 and 99.9 with at least ten ops beyond it in every 30 s run at the
# seed commit (catalogue 23 ops x 560-790 passes, enum 15 x 9-15, smith 33 x
# 20-31).  It is fixed per workload so that runs of different lengths report
# the same statistic; the stamp records how many ops lie beyond it.  As every
# pass runs the same menu, a percentile falls at a fixed place among the
# menu's ops; with an odd number of close ops per pass, p50 sits in the middle
# of one op's times (enum: Z450), and enum's p90 in the middle of Z1500's.
TAIL_PERCENTILE = {"catalogue": 99.9, "enum": 90.0, "smith": 95.0}

# The speed of a shared host drifts by up to +-20% within seconds to minutes,
# more than the effects the benchmark must resolve.  A fixed reference loop
# that does not touch the package therefore runs between ops, at most every
# CALIBRATE_EVERY_S, and every time is reported in reference seconds: the raw
# time divided by the slowdown around it (mean duration of the REFERENCE_NEAR
# nearest reference runs over REFERENCE_S), i.e. what it would have measured
# on a machine where the loop takes exactly 1 ms.  The run's mean slowdown and
# the raw set-up and CLI times are in the stamp.
REFERENCE_S = 0.001
CALIBRATE_EVERY_S = 0.05
REFERENCE_NEAR = 8

# (metric, unit) in the order BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("cli_verify_all_ms", "ms"),
    ("cosets_per_s", "1/s"),
    ("reject_p50_ms", "ms"),
)
STAT_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count", "cosets": "count", "uv_max_bits": "bits"}
PER_LAYER = (
    ("scenarios.load_scenario", ("ms", "calls")),
    ("scenarios.run_scenario", ("self_ms",)),
    ("vankampen.check_map", ("ms",)),
    ("vankampen.pi1_presentation", ("ms",)),
    ("vankampen.induced_hom", ("ms",)),
    ("vankampen.glue_fundamental_group", ("ms",)),
    ("torus.generated_group", ("ms", "calls")),
    ("torus.compose", ("ms", "calls")),
    ("torus.is_free_action", ("ms",)),
    ("torus.has_fixed_point", ("ms", "calls")),
    ("torus.map_order", ("ms",)),
    ("torus.conjugate_into_lattice", ("ms",)),
    ("torus.eplus_presentation", ("ms",)),
    ("torus.intersection_number", ("ms",)),
    ("fpgroup.todd_coxeter_order", ("ms", "calls", "cosets")),
    ("fpgroup.abelianization", ("ms", "calls")),
    ("fpgroup.is_cyclic_of_order", ("ms", "calls")),
    ("intlin.cokernel_invariants", ("ms", "calls")),
    ("intlin.smith_normal_form", ("ms", "calls", "uv_max_bits")),
    ("intlin.hermite_normal_form", ("ms", "calls")),
    ("intlin.solve_in_rowspace", ("ms", "calls")),
    ("intlin.membership", ("ms", "calls")),
)


def reference_work():
    """Fixed work of the kinds the package does: small-int updates of a list
    of lists, and big-int arithmetic."""
    s = 0
    for _ in range(3):
        table = [[0] * 48 for _ in range(48)]
        for i in range(48):
            row = table[i]
            for j in range(48):
                row[j] = (i * j + s) % 97
                s += row[j]
    big = 3**2000
    for k in range(180):
        s += (big * (k + 1)) % 1000003
    return s


class SpeedGauge:
    """Samples reference_work between ops.  ``at(start, seconds)`` is the
    slowdown (> 1 on a machine slower than the reference) around an interval:
    the mean of the REFERENCE_NEAR samples closest to its midpoint, since the
    host's speed changes over seconds, not within one op."""

    def __init__(self):
        self.times = []  # midpoints of the samples, ascending
        self.durations = []
        self.last = float("-inf")
        self.tick()

    def tick(self):
        start = perf_counter()
        if start - self.last < CALIBRATE_EVERY_S:
            return
        reference_work()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self.last = end

    def at(self, start, seconds):
        i = bisect.bisect(self.times, start + seconds / 2)
        lo = max(0, i - REFERENCE_NEAR // 2)
        near = self.durations[lo : lo + REFERENCE_NEAR]
        return statistics.fmean(near) / REFERENCE_S

    @property
    def slowdown(self):
        """Mean over the whole run."""
        return statistics.fmean(self.durations) / REFERENCE_S


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import stablepi1 afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "stablepi1" or m.startswith("stablepi1.")]:
        del sys.modules[name]
    try:
        return importlib.import_module("stablepi1")
    except ImportError as exc:
        die(f"cannot import stablepi1 from {SRC}: {exc}")


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tally:
    """Op outcomes of one phase: raw times, correctness, certified cosets."""

    def __init__(self):
        self.wall = 0.0  # raw seconds spent inside ops
        self.passes = 0
        self.records = []  # (kind, start, seconds, correct, cosets)
        self.failures = []

    def add(self, ops, outcomes):
        self.passes += 1
        for op, (start, dur, out, exc) in zip(ops, outcomes):
            try:
                ok = bool(op.check(out, exc))
            except Exception as err:  # a malformed answer is a wrong answer
                ok = False
                exc = exc or err
            self.wall += dur
            self.records.append((op.kind, start, dur, ok, op.cosets if ok else 0))
            if not ok:
                self.failures.append(f"{op.label}: {exc!r}" if exc else op.label)

    def count(self, kind):
        return sum(1 for r in self.records if r[0] == kind)

    @property
    def attempted(self):
        return len(self.records)

    def summary(self, gauge, tail):
        """Rates and percentiles from op times in reference seconds."""
        ref = [(kind, dur / gauge.at(start, dur), ok, cosets) for kind, start, dur, ok, cosets in self.records]
        close_ms = [1000.0 * d for kind, d, _ok, _c in ref if kind == "close"]
        certified = [(c, d) for _kind, d, _ok, c in ref if c]
        out = {
            "ops_per_s": sum(1 for r in ref if r[2]) / sum(r[1] for r in ref),
            "op_p50_ms": percentile(close_ms, 50),
            "op_tail_ms": percentile(close_ms, tail),
            "reject_p50_ms": percentile([1000.0 * d for kind, d, _ok, _c in ref if kind == "reject"], 50),
            # 0 only when no certifying op answered correctly (the run then fails)
            "cosets_per_s": sum(c for c, _ in certified) / sum(d for _, d in certified) if certified else 0.0,
        }
        out["tail_samples_beyond"] = sum(1 for t in close_ms if t > out["op_tail_ms"])
        return out


def run_pass(ops, gauge, tracer=None, first_id=0):
    """Run one pass of ops back to back; returns [(start, seconds, out, exc)]."""
    outcomes = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + i
        t0 = perf_counter()
        try:
            out, exc = op.call(), None
        except Exception as err:  # the outcome of a reject op; checked later
            out, exc = None, err
        outcomes.append((t0, perf_counter() - t0, out, exc))
        gauge.tick()
    if tracer is not None:
        tracer.op = None
    return outcomes


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # the bytecode cache must be warm, and the default coset limit in force
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("STABLEPI1_MAX_COSETS", None)
    return env


def timed_subprocess(argv):
    """(start, seconds, completed process or None on timeout)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        proc = None
    return t0, perf_counter() - t0, proc


def verify_all_passed(stdout, nfiles):
    try:
        data = json.loads(stdout)
    except ValueError:
        return False
    reports = data.get("reports", [])
    return (
        data.get("passed") == data.get("total") == nfiles
        and len(reports) == nfiles
        and all(r.get("verdict") == "pass" for r in reports)
    )


def subprocess_sample(argv, gauge, nfiles=None):
    """((start, seconds), failure text or None) of one run of argv; with
    nfiles, the run must print a verify-all report in which all nfiles pass."""
    start, secs, proc = timed_subprocess(argv)
    gauge.tick()
    ok = proc is not None and proc.returncode == 0
    if ok and nfiles is not None:
        ok = verify_all_passed(proc.stdout, nfiles)
    if ok:
        return (start, secs), None
    return (start, secs), " ".join(argv[1:]) + (" (timeout)" if proc is None else f" (exit {proc.returncode})")


def median_ref(samples, gauge):
    """Median of (start, seconds) samples in reference seconds."""
    return statistics.median(secs / gauge.at(start, secs) for start, secs in samples)


def median_subprocess_ms(argv, reps, gauge):
    """Median time in reference ms of reps runs after one warm-up, the raw
    samples in ms, and the failures."""
    runs = [subprocess_sample(argv, gauge) for _ in range(reps + 1)]
    samples = [sample for sample, _ in runs[1:]]
    return 1000.0 * median_ref(samples, gauge), [1000.0 * s for _, s in samples], [f for _, f in runs if f]


VERIFY_ALL = [sys.executable, "-m", "stablepi1", "verify-all", "--format", "json"]


def catalogue_size():
    return len(list((SRC / "stablepi1" / "catalogue").glob("*.scn")))


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "stablepi1").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup(cls, args):
    """Import the package, build the workload and its first pass; returns
    ((start, seconds), package, workload, first pass)."""
    t0 = perf_counter()
    pkg = import_package()
    wl = cls(pkg, args.seed, ROOT, args.workdir)
    first = wl.pass_ops(0)
    return (t0, perf_counter() - t0), pkg, wl, first


def end_to_end(args, cls, stamp, gauge):
    sample, pkg, wl, ops = setup(cls, args)
    setup_samples = [sample]
    nfiles = catalogue_size()
    # The first verify-all warms the bytecode cache and is not timed.
    cli_samples, cli_failures = [], [f for f in [subprocess_sample(VERIFY_ALL, gauge, nfiles)[1]] if f]

    def side_measurement(what):
        if what == "setup":
            setup_samples.append(setup(cls, args)[0])
            gauge.tick()
            return
        sample, failure = subprocess_sample(VERIFY_ALL, gauge, nfiles)
        cli_samples.append(sample)
        if failure:
            cli_failures.append(failure)

    # Set-up repeats and CLI runs are spread evenly between the passes.
    side = ["cli", "setup"] * (SETUP_REPS - 1) + ["cli"] * (CLI_REPS - SETUP_REPS + 1)
    nside = len(side)
    tally = Tally()
    while True:
        tally.add(ops, run_pass(ops, gauge))
        while side and tally.wall >= (nside - len(side) + 1) * args.seconds / (nside + 1):
            side_measurement(side.pop(0))
        if tally.wall >= args.seconds:
            break
        ops = wl.pass_ops(tally.passes)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while side:
        side_measurement(side.pop(0))
    tail = TAIL_PERCENTILE[args.workload]
    values = tally.summary(gauge, tail)
    values.update(
        setup_s=median_ref(setup_samples, gauge),
        peak_rss_mib=rss_mib,
        cli_verify_all_ms=1000.0 * median_ref(cli_samples, gauge),
    )
    stamp.update(
        passes=tally.passes,
        timed_s=tally.wall,
        ops={"close": tally.count("close"), "reject": tally.count("reject"), "cli": CLI_REPS + 1},
        tail_percentile=tail,
        tail_samples_beyond=values["tail_samples_beyond"],
        slowdown=gauge.slowdown,
        reference_samples=len(gauge.durations),
        raw_setup_s=[secs for _, secs in setup_samples],
        raw_cli_ms=[1000.0 * secs for _, secs in cli_samples],
        failures=(tally.failures + cli_failures)[:10],
        inputs_sha256=wl.inputs_digest(0),
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return tally.attempted + CLI_REPS + 1, len(tally.failures) + len(cli_failures), metrics


def per_layer(args, cls, stamp, gauge):
    _sample, pkg, wl, ops = setup(cls, args)
    tracer = tracing.Tracer(pkg)
    groups = {"cli": "cli"}
    plain, traced = Tally(), Tally()
    # Plain and traced runs of each pass alternate, so that drift in machine
    # load falls on both sides of the overhead figure.
    for k in range(cls.trace_passes):
        ops = ops if k == 0 else wl.pass_ops(k)
        plain.add(ops, run_pass(ops, gauge))
        ops = wl.pass_ops(k)
        first_id = len(groups)
        for i, op in enumerate(ops):
            groups[first_id + i] = op.group
        tracer.install()
        try:
            traced.add(ops, run_pass(ops, gauge, tracer, first_id))
        finally:
            tracer.uninstall()
    nfiles = catalogue_size()
    tracer.install()
    try:
        tracer.op = "cli"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = pkg.cli.main(["verify-all", "--format", "json"])
    finally:
        tracer.op = None
        tracer.uninstall()
    cli_failures = [] if rc == 0 and verify_all_passed(buf.getvalue(), nfiles) else ["in-process verify-all"]

    start_ms, start_samples, f1 = median_subprocess_ms([sys.executable, "-c", "pass"], CLI_REPS, gauge)
    imp_ms, imp_samples, f2 = median_subprocess_ms([sys.executable, "-c", "import stablepi1.cli"], CLI_REPS, gauge)
    cli_failures += f1 + f2

    # Span times are scaled by the run's mean slowdown; op-level figures use
    # the slowdown around each op, as in the untraced run.
    slow = gauge.slowdown
    total, by_group = tracer.aggregate(groups.get)
    values = {}
    for fn, stats in PER_LAYER:
        row = total.get(fn, {})
        for stat in stats:
            unit = STAT_UNITS[stat]
            value = row.get(stat, 0)
            values[f"{fn}.{stat}"] = (value / slow if unit == "ms" else value, unit)
    values["cli.python_start_ms"] = (start_ms, "ms")
    values["cli.import_ms"] = (imp_ms - start_ms, "ms")
    values["cli.main.self_ms"] = (total.get("cli.main", {}).get("self_ms", 0.0) / slow, "ms")
    plain_rate = plain.summary(gauge, 50)["ops_per_s"]
    traced_rate = traced.summary(gauge, 50)["ops_per_s"]
    values["harness.trace_overhead_ops_per_s"] = (traced_rate - plain_rate, "1/s")

    # Breakdowns by op group (enum family, smith size, cli) for the record.
    breakdown = {}
    for group, table in sorted(by_group.items()):
        for fn in ("fpgroup.todd_coxeter_order", "intlin.cokernel_invariants",
                   "intlin.smith_normal_form", "intlin.hermite_normal_form",
                   "scenarios.load_scenario"):
            if fn in table:
                breakdown[f"{fn}.{group}_ms"] = table[fn]["ms"]
                breakdown[f"{fn}.{group}_calls"] = table[fn]["calls"]
    stamp.update(
        passes=cls.trace_passes,
        ops={"close": plain.count("close") + traced.count("close"),
             "reject": plain.count("reject") + traced.count("reject"), "cli": 1 + 2 * (CLI_REPS + 1)},
        untraced_ops_per_s=plain_rate,
        traced_ops_per_s=traced_rate,
        spans=len(tracer.spans),
        breakdown=breakdown,
        python_start_samples_ms=start_samples,
        import_samples_ms=imp_samples,
        failures=(plain.failures + traced.failures + cli_failures)[:10],
        inputs_sha256=wl.inputs_digest(0),
        slowdown=slow,
        reference_samples=len(gauge.durations),
    )
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with spans_path.open("w") as fh:
        for rec in tracer.span_records():
            fh.write(json.dumps(rec) + "\n")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    attempted = plain.attempted + traced.attempted + 1 + 2 * (CLI_REPS + 1)
    failed = len(plain.failures) + len(traced.failures) + len(cli_failures)
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stablepi1" / "__init__.py").is_file():
        die(f"no stablepi1 package under {SRC}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    # One CPU for the benchmark and the subprocesses it waits on, so that the
    # reference loop measures the speed of the CPU the timed work runs on.
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # not permitted here: run unpinned
        cpu = None
    gauge = SpeedGauge()
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
    }
    cls = workloads.WORKLOADS[args.workload]
    run = per_layer if args.trace else end_to_end
    # Input files of this run only, so that concurrent runs cannot collide.
    args.workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        attempted, failed, metrics = run(args, cls, stamp, gauge)
    finally:
        shutil.rmtree(args.workdir)
    stamp["loadavg_end"] = os.getloadavg()
    stamp["attempted"] = attempted
    stamp["failed"] = failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
