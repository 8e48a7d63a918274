"""Closed-loop benchmark of the koszulalg command line, one client, in process.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {algebra,betti-f2,betti-fp} --seed N
                         --seconds S --trace {0,1} [--tiny]

Each operation is one ``koszulalg.cli.main(argv)`` call with stdout,
stderr and the exit code captured, exactly what a CLI user runs; the next
operation is sent only after the previous one returns.  Every operation
passes ``--threads 1`` (OP_THREADS); the untimed checks and the traced run
compare it with all usable cores.

--trace 0 runs the workload's batch in a closed loop until --seconds have
passed, ending at a batch boundary, resends its cheapest operations until
each has five samples, and reports the end-to-end metrics, taking each
operation's time as the median of its speed-normalised samples (see
CAL_REF_S).
--trace 1 runs the batch once, each operation untraced and traced back to
back, and reports per-layer metrics from spans recorded around the
program's public functions (see tracing.py), the tracing overhead, and the
serial-versus-threaded speed-up of the rank-only Betti table.

Every output is checked (checks.py); an operation that raises, exits with
an unexpected code or fails its check counts as failed.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  A
``bench-info`` line before it records the machine, program digest, seed,
sample counts and the tail percentile used.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import koszulalg, koszulalg.cli\n"
    "print(repr(time.perf_counter() - t))\n")
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10
MIN_SAMPLES = 5
TOPUP_SHARE = 0.5

# The speed of a shared host drifts by 20-45 % within seconds and for
# minutes at a time, for the program and for any fixed loop alike (process
# CPU time drifts with it, so this is not time stolen by other guests).  A
# fixed calibration loop runs CAL_REPS times before an operation when
# CAL_EVERY_S have passed since the last calibration, after the last
# operation and around every set-up sample.  Each sample is scaled by
# CAL_REF_S over the mean of the two calibrations that bracket it (each the
# median of its burst), so times read as seconds on a host whose
# calibration loop takes CAL_REF_S (a typical time on a 2-core x86_64 VM
# with CPython 3.11.7, where it ranges 0.009-0.02 s).  Over three minutes of
# one serial betti --slow or suite --slow call repeated, medians of 7 calls
# varied 0.09-0.13 raw and 0.03 scaled (standard deviation over mean).
CAL_ITERS = 40000
CAL_REF_S = 0.014
CAL_REPS = 3
CAL_EVERY_S = 0.5

# Operations run with one thread: the calibration loop is single-threaded
# and tracks a serial operation much better (wall_s over five seeds of
# betti-fp, with an earlier loop, spread 0.02 scaled against 0.27 raw with
# one thread, and 0.07-0.09 scaled with two), and two threads gain nothing
# on this family (koszul.betti_table.threads_speedup, 0.8-1.0, from the
# traced run).
OP_THREADS = 1

END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable koszulalg sources."""


def import_program():
    if not os.path.isfile(os.path.join(SRC, "koszulalg", "cli.py")):
        raise ProgramMissing("no koszulalg sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import koszulalg.cli
    if not os.path.abspath(koszulalg.cli.__file__).startswith(SRC + os.sep):
        raise ProgramMissing("koszulalg imported from outside %s" % SRC)
    return koszulalg.cli


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha():
    """HEAD of the checkout's own repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "koszulalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_info():
    import numpy
    return {"cores": usable_cores(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "processor": platform.machine()}


def setup_sample():
    """Seconds a fresh interpreter takes to import koszulalg and koszulalg.cli."""
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def calibration_loop():
    """Fixed pure-Python work like the program's inner loops: modular
    arithmetic and stores at scattered integer keys of a dict that grows to
    tens of thousands of entries, as the ring's multiplication tables and
    the generic rank's sparse rows do."""
    acc, table = 1, {}
    for i in range(CAL_ITERS):
        acc = (acc * 31 + i) % 32003
        table[(acc * 2654435761) & 0xFFFFF] = i
    return len(table)


def call_cli(main, argv):
    """One CLI invocation: (seconds, exit code, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # an exception is a failed operation
            code, error = None, "raised %r" % e
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue(), error


class Outcome:
    """Attempted operations and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, reason):
        self.attempted += 1
        if reason:
            self.failures.append("%s: %s" % (label, reason))


def judge(op, result, golden):
    _, code, stdout, stderr, error = result
    return error or checks.problem(op, code, stdout, stderr, golden)


def preamble_checks(main, workdir, seed, threads, outcome):
    """Untimed: full homology, rank-only serial and rank-only threaded agree.

    Runs on the smallest ring of the family for this seed over both
    fields; also warms lazy imports before anything is timed.
    """
    for field in ("F2", workloads.FP_FIELD):
        path, shape = workloads.check_ring(workdir, seed, field)
        facts = workloads.family_facts(shape)
        base = ["betti", "--ring", path, "--json"]
        runs = {
            "full": call_cli(main, base + ["--threads", str(threads)]),
            "rank-only x1": call_cli(main, base + ["--slow", "--threads", "1"]),
            "rank-only x%d" % threads: call_cli(
                main, base + ["--slow", "--threads", str(threads)]),
        }
        reason = None
        for name, (_, code, stdout, stderr, error) in runs.items():
            if error or code != 0 or "Traceback" in stderr:
                reason = "%s: %s" % (name, error or "exit %r" % code)
                break
        if reason is None:
            outputs = {stdout for _, _, stdout, _, _ in runs.values()}
            if len(outputs) != 1:
                reason = "betti tables differ between %s" % ", ".join(runs)
            else:
                reason = checks.betti_problem(json.loads(outputs.pop()), facts)
        outcome.record("check %s %s%s" % (field, "betti", shape), reason)


def tail(op_medians):
    """(percentile, value, operations beyond) over per-operation medians.

    The highest ladder percentile with at least ten operations beyond it;
    with fewer than a hundred operations in the batch none qualifies, and
    the tail is the slowest operation (reported as percentile 100).
    """
    ordered = sorted(op_medians)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = math.ceil(q * n / 100.0)
        if n - rank >= TAIL_MIN_BEYOND:
            return q, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


class ClosedLoop:
    """One client sending the batch's operations one after another."""

    def __init__(self, main, ops, golden, outcome):
        self.main = main
        self.ops = ops
        self.golden = golden
        self.outcome = outcome
        self.samples = [[] for _ in ops]
        self.intervals = [[] for _ in ops]
        self.calibrations = []  # (midpoint, median seconds of CAL_REPS loops)
        self.setup = []  # (seconds, start, end)

    def calibrate(self):
        times = []
        for _ in range(CAL_REPS):
            start = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - start)
        self.calibrations.append(
            (time.perf_counter() - sum(times) / 2, statistics.median(times)))

    def take_setup(self):
        self.calibrate()
        start = time.perf_counter()
        seconds = setup_sample()
        self.setup.append((seconds, start, time.perf_counter()))
        self.calibrate()

    def send(self, i):
        op = self.ops[i]
        gc.collect()
        if time.perf_counter() - self.calibrations[-1][0] >= CAL_EVERY_S:
            self.calibrate()
        start = time.perf_counter()
        result = call_cli(self.main, op.argv)
        self.outcome.record(op.label, judge(op, result, self.golden))
        self.samples[i].append(result[0])
        self.intervals[i].append((start, start + result[0]))

    def run(self, seconds):
        """Whole batches until `seconds` have passed (a batch starts only
        when at least half of it is expected to fit), then a top-up.

        The top-up resends the cheapest operations, in rounds, until each
        has MIN_SAMPLES samples, within TOPUP_SHARE of `seconds`: a batch
        longer than the run is sent once, and its many short operations
        would otherwise each rest on a single sample.  Set-up samples are
        taken at even intervals, each between two calibrations.
        """
        setup_sample()  # may compile bytecode; not a sample
        self.calibrate()
        start = time.perf_counter()

        def maybe_setup():
            if len(self.setup) < SETUP_SAMPLES and (
                    time.perf_counter() - start
                    >= len(self.setup) * seconds / SETUP_SAMPLES):
                self.take_setup()

        while True:
            for i in range(len(self.ops)):
                maybe_setup()
                self.send(i)
            elapsed = time.perf_counter() - start
            batch = statistics.median(map(sum, zip(*self.samples)))
            if elapsed + batch / 2 >= seconds:
                break
        budget = TOPUP_SHARE * seconds
        chosen = []
        for i in sorted(range(len(self.ops)), key=lambda i: self.median(i)):
            cost = (MIN_SAMPLES - len(self.samples[i])) * self.median(i)
            if cost > budget:
                break
            if cost > 0:
                budget -= cost
                chosen.append(i)
        for _ in range(MIN_SAMPLES - 1):
            for i in sorted(chosen):
                if len(self.samples[i]) < MIN_SAMPLES:
                    maybe_setup()
                    self.send(i)
        self.calibrate()
        while len(self.setup) < SETUP_SAMPLES:
            self.take_setup()

    def median(self, i):
        return statistics.median(self.samples[i])

    def speed(self, start, end):
        """Mean of the last calibration before `start` and the first after
        `end`; run() calibrates before its first sample and after its last."""
        times = [t for t, _ in self.calibrations]
        before = bisect.bisect_right(times, start) - 1
        after = bisect.bisect_left(times, end)
        return (self.calibrations[before][1] + self.calibrations[after][1]) / 2

    def normalised_median(self, i):
        return statistics.median(
            x * CAL_REF_S / self.speed(start, end)
            for x, (start, end) in zip(self.samples[i], self.intervals[i]))

    def normalised_setup(self):
        return statistics.median(
            x * CAL_REF_S / self.speed(start, end)
            for x, start, end in self.setup)


def end_to_end(main, ops, args, golden, outcome):
    loop = ClosedLoop(main, ops, golden, outcome)
    loop.run(args.seconds)
    op_medians = [loop.normalised_median(i) for i in range(len(ops))]
    raw_medians = [loop.median(i) for i in range(len(ops))]
    q, tail_value, beyond = tail(op_medians)
    calibration = statistics.median(c for _, c in loop.calibrations)
    metrics = {
        # every operation's time is the median of its samples, so one slow
        # spell of a shared machine moves the metrics less
        "wall_s": sum(op_medians),
        "op_p50_s": statistics.median(op_medians),
        "op_tail_s": tail_value,
        "setup_s": loop.normalised_setup(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "batches": min(map(len, loop.samples)), "ops_per_batch": len(ops),
        "op_samples": sum(map(len, loop.samples)),
        "raw_setup_samples": [x for x, _, _ in loop.setup],
        "op_tail_percentile": q, "op_tail_beyond": beyond,
        "op_tail_rule": ("over per-operation medians: highest of p%s with "
                         ">= %d operations beyond, else the slowest operation"
                         % ("/p".join("%g" % x for x in TAIL_LADDER),
                            TAIL_MIN_BEYOND)),
        "op_median_s": {op.label: m for op, m in zip(ops, op_medians)},
        "raw_wall_s": sum(raw_medians),
        "raw_op_p50_s": statistics.median(raw_medians),
        "calibration_median_s": calibration,
        "calibration_ref_s": CAL_REF_S,
        "calibration_samples": len(loop.calibrations),
        "op_sample_counts": {op.label: len(t) for op, t in zip(ops, loop.samples)},
    }
    return metrics, dict(END_TO_END_UNITS), info


def betti_seconds(cli, ring_path, threads):
    """Untraced rank-only Betti table on a freshly built complex."""
    K = cli.KoszulComplex(cli.load_ring_spec(ring_path))
    gc.collect()
    start = time.perf_counter()
    table = cli.betti_table(K, rank_only=True, threads=threads)
    return time.perf_counter() - start, table


def threads_speedup(cli, ops, threads, outcome):
    """Serial over threaded rank-only Betti time, summed over the batch's
    generated quotient rings; the two tables must agree."""
    rings = []
    for op in ops:
        path = op.argv[op.argv.index("--ring") + 1]
        if op.kind != "golden" and path not in rings:
            rings.append(path)
    serial = parallel = 0.0
    for t, path in enumerate(rings):
        order = (1, threads) if t % 2 == 0 else (threads, 1)
        timed = {n: betti_seconds(cli, path, n) for n in order}
        serial += timed[1][0]
        parallel += timed[threads][0]
        outcome.record("betti threads 1 vs %d %s" % (threads, os.path.basename(path)),
                       None if timed[1][1] == timed[threads][1]
                       else "rank-only tables differ between thread counts")
    return serial / parallel, {"serial_s": serial, "threaded_s": parallel,
                               "rings": len(rings)}


def serial_argv(argv):
    out = list(argv)
    out[out.index("--threads") + 1] = "1"
    return out


def per_layer(cli, ops, args, golden, outcome, threads):
    """Traced pass over one batch, each operation run with --threads 1.

    Serial runs keep spans from overlapping, so self times partition an
    operation's time, and keep the counts exact: with worker threads the
    ring's multiplication cache can be filled twice for one key, and
    polyring.normal_form.calls then changes from run to run.  What the
    threads cost or gain is koszul.betti_table.threads_speedup.
    """
    import tracing
    tracer = tracing.Tracer()
    plain = traced = 0.0
    for idx, op in enumerate(ops):
        argv = serial_argv(op.argv)
        # alternate which side goes first so drift does not bias overhead
        for traced_side in ((False, True) if idx % 2 == 0 else (True, False)):
            gc.collect()
            if traced_side:
                tracer.install()
                try:
                    result = tracer.run_op(idx, lambda: call_cli(cli.main, argv))
                finally:
                    tracer.uninstall()
                traced += result[0]
            else:
                result = call_cli(cli.main, argv)
                plain += result[0]
            outcome.record(op.label, judge(op, result, golden))
    speedup, speedup_base = threads_speedup(cli, ops, threads, outcome)

    self_t, incl_t = tracing.layer_times(tracer.spans(), tracer.names)
    calls, distinct = tracer.calls, tracer.distinct
    rref_calls = calls.get("exactalg.rref", 0)
    class_of_calls = calls.get("koszul.class_of", 0)
    s, i = self_t.get, incl_t.get
    metrics = {
        "cli.self_s": s("cli", 0.0),
        "gring.ring_build_s": i("gring.ring_build", 0.0),
        "polyring.buchberger_s": i("polyring.buchberger", 0.0),
        "gring.mult_triplets_s": i("gring.mult_triplets", 0.0),
        "gring.mult_triplets.calls": calls.get("gring.mult_triplets", 0),
        "gring.mult_triplets.distinct": len(distinct.get("gring.mult_triplets", ())),
        "polyring.normal_form_s": i("polyring.normal_form", 0.0),
        "polyring.normal_form.calls": calls.get("polyring.normal_form", 0),
        "koszul.diff_triplets_s": s("koszul.diff_triplets", 0.0),
        "koszul.diff_triplets.calls": calls.get("koszul.diff_triplets", 0),
        "koszul.diff_triplets.distinct": len(distinct.get("koszul.diff_triplets", ())),
        "koszul.strands": len(distinct.get("koszul.diff_triplets", ())),
        "koszul.strand_nnz": tracer.strand_nnz,
        "exactalg.sparse_rank_s": s("exactalg.sparse_rank", 0.0),
        "exactalg.gf2_eliminate_s": i("exactalg.gf2_eliminate", 0.0),
        "exactalg.gf2_eliminate.words": tracer.gf2_words,
        "exactalg.rank_s": i("exactalg.rank", 0.0),
        "exactalg.rref_s": s("exactalg.rref", 0.0),
        "exactalg.rref.calls": rref_calls,
        "exactalg.coords_in_span_s": s("exactalg.coords_in_span", 0.0),
        "exactalg.coords_in_span.calls": calls.get("exactalg.coords_in_span", 0),
        "koszul.homology_basis_s": s("koszul.homology_basis", 0.0),
        "koszul.class_of_s": s("koszul.class_of", 0.0),
        "koszul.class_of.calls": class_of_calls,
        "koszul.differential_s": i("koszul.differential", 0.0),
        "exactalg.rref_per_class_of": (
            rref_calls / class_of_calls if class_of_calls else 0.0),
        "dgmap.induced_map_s": s("dgmap.induced_map", 0.0),
        "dgmap.lift_apply_s": i("dgmap.lift_apply", 0.0),
        "analyze.check_identity_s": s("analyze.check_identity", 0.0),
        "analyze.filtration_s": s("analyze.filtration", 0.0),
        "analyze.gr_s": s("analyze.gr", 0.0),
        "analyze.run_suite_s": s("analyze.run_suite", 0.0),
        "koszul.betti_table.threads_speedup": speedup,
        "trace.overhead_frac": traced / plain - 1.0,
    }
    units = {}
    for name in metrics:
        if name.endswith("_s"):
            units[name] = "s"
        elif name == "exactalg.gf2_eliminate.words":
            units[name] = "words"
        elif name.endswith((".calls", ".distinct")) or name in (
                "koszul.strands", "koszul.strand_nnz"):
            units[name] = "count"
        else:
            units[name] = "ratio"
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(
        out_dir, "spans-%s-seed%d.npz" % (args.workload, args.seed))
    tracer.write(spans_path)
    info = {
        "ops_traced": len(ops), "spans": len(tracer.flat) // 6,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "untraced_s": plain, "traced_s": traced,
        "threads_speedup_base": speedup_base,
        "rref_per_class_of_base": {"rref.calls": rref_calls,
                                   "class_of.calls": class_of_calls},
        "private_names_wrapped": [tracing.GF2_PRIVATE_NAME],
        "traced_threads": 1,
        "time_kinds": ("self time: cli, diff_triplets, sparse_rank, rref, "
                       "coords_in_span, homology_basis, class_of, induced_map, "
                       "analyze.*; inclusive: the rest"),
    }
    return metrics, units, info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one small ring per workload (smoke test)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = import_program()
    except (ProgramMissing, ImportError) as e:
        print("bench: cannot load the program: %s" % e, file=sys.stderr)
        return 2
    threads = usable_cores()
    golden = checks.load_golden()
    workdir = os.path.join(ROOT, ".bench_work",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    outcome = Outcome()
    try:
        ops = workloads.build_ops(args.workload, ROOT, workdir, args.seed,
                                  OP_THREADS, args.tiny)
        preamble_checks(cli.main, workdir, args.seed, threads, outcome)
        if args.trace:
            metrics, units, info = per_layer(cli, ops, args, golden, outcome, threads)
        else:
            metrics, units, info = end_to_end(cli.main, ops, args, golden, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(outcome.failures)
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "threads": OP_THREADS,
        "check_threads": threads,
        "machine": machine_info(), "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "attempted": outcome.attempted, "failed": failed,
        "fail_frac": failed / outcome.attempted,
        "failures": outcome.failures[:20],
    })
    print("bench-info " + json.dumps(info, sort_keys=True))
    for name in sorted(metrics):
        print("  %-36s %.6g %s" % (name, metrics[name], units[name]))
    print("  %-36s %.6g (%d of %d)" % ("fail_frac", info["fail_frac"], failed,
                                        outcome.attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
