"""Closed-loop benchmark of ``sftdga`` classify jobs.

    python3 bench/run.py --workload ladder --seed 7 --seconds 20 --trace 0

One client runs jobs one after another in this process (no threads, no
workers).  The seed picks one family from every stratum of the workload's
catalog (``bench/catalog.json``, built by ``bench/make_catalog.py``) plus
the workload's fixed families; that pool, in a seeded order, is a *round*.

Every round starts from a fresh import of the package and freshly built
families, set up outside the timed part, so that a cache can help only
within one job, as it would for a user who classifies one differential per
call.

--trace 0  runs the workload's fixed number of timed rounds (TIMED_ROUNDS,
           the same on every commit) and reports the end-to-end metrics
           setup_s, jobs_per_s, job_p50_s and peak_rss_mb.  Rounds after
           those, while the next one is expected to end within --seconds,
           only add to the correctness count.  Times are scaled to the
           reference machine speed by a probe run before every job and
           set-up; see scale().
--trace 1  runs the round plain, traced, plain and traced again, and
           reports the per-layer metrics of the first traced round plus the
           tracing overhead.  The work is fixed by the seed, so counts repeat
           exactly.  Spans and a summary go to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A job fails when a verdict is
wrong, a certificate is unverified or verified to the wrong weight, or the
report's sha256 differs from the catalog's golden digest.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 15
# rounds whose job times make the --trace 0 metrics; each workload's take
# 25 to 30 s at the catalog's reference job times
TIMED_ROUNDS = {"ladder": 6, "ladder-contract": 3, "search-miss": 4}
# the median time of probe() on the machine that made the README's figures
# (Python 3.11.7, 2 vCPUs of a 2.1 GHz Xeon)
PROBE_REF_S = 0.032

sys.path.insert(0, str(HERE))
import families  # noqa: E402
import spans  # noqa: E402


def load_sftdga():
    """Import the package from src/ afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "sftdga" or n.startswith("sftdga.")]:
        del sys.modules[name]
    sd = importlib.import_module("sftdga")
    importlib.import_module("sftdga.io")
    if Path(sd.__file__).resolve().parent != SRC / "sftdga":
        raise ImportError("sftdga was imported from %s, not from %s"
                          % (sd.__file__, SRC))
    return sd


def pick_pool(catalog, workload, seed):
    """The seed's round: fixed families plus one member of every stratum."""
    rng = random.Random("%s:%d" % (workload, seed))
    entry = catalog[workload]
    members = list(entry["fixed"]) + [rng.choice(s) for s in entry["strata"]]
    rng.shuffle(members)
    return [m["family"] for m in members], {m["family"]: m["sha256"] for m in members}


def setup(keys):
    """Import the package, generate the families and serialize them."""
    t0 = time.perf_counter()
    sd = load_sftdga()
    fams = [families.build_family(sd, k) for k in keys]
    return sd, fams, time.perf_counter() - t0


def probe():
    """Seconds of a fixed loop of tuple-keyed dict updates with Fraction
    sums, the operations that dominate classify.  It uses no package code,
    so no change to the package moves it; it gauges the machine's speed."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        for i in range(8000):
            k = (i % 97, i % 13, (i * 7) % 31)
            acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 5 + 1, i % 3 + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scale(seconds, probe_s):
    """seconds measured while probe() took probe_s, at the reference speed.

    The shared machine's speed drifts over seconds and minutes, by up to a
    factor of two, and the drift slows probe() and the jobs alike."""
    return seconds * PROBE_REF_S / probe_s


def run_round(sd, fams, goldens, tracer=None, probes=None):
    """Run every job once; returns (job seconds, failures).

    With a list for probes, probe() runs before every job and once after
    the last, and its times are appended there."""
    times, failures = [], []
    for i, fam in enumerate(fams):
        if probes is not None:
            probes.append(probe())
        t0 = time.perf_counter()
        if tracer is None:
            out, problems = families.run_job(sd, fam)
        else:
            with tracer.job_span(i):
                out, problems = families.run_job(sd, fam)
        times.append(time.perf_counter() - t0)
        if families.sha256(out) != goldens.get(fam.key):
            problems.append("report digest differs from the golden")
        if problems:
            failures.append("%s: %s" % (fam.key, "; ".join(problems)))
    if probes is not None:
        probes.append(probe())
    return times, failures


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=families.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sftdga" / "__init__.py").is_file():
        print("bench: no sftdga package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(HERE / "catalog.json", encoding="utf-8") as fh:
        catalog = json.load(fh)
    keys, goldens = pick_pool(catalog, args.workload, args.seed)

    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPS):
        probe_s = probe()
        gc.collect()
        setup_times.append(setup(keys)[2])
        setup_scaled.append(scale(setup_times[-1], probe_s))

    def fresh_round(tracer=None, probes=None):
        gc.collect()
        sd, fams, _ = setup(keys)
        if tracer is None:
            return run_round(sd, fams, goldens, probes=probes)
        tracer.install(sd)
        try:
            return run_round(sd, fams, goldens, tracer)
        finally:
            tracer.uninstall()

    failures = []
    print("workload %s seed %d pool %s" % (args.workload, args.seed, " ".join(keys)))
    if args.trace:
        # plain and traced rounds alternate twice; the metrics come from the
        # first traced round, the overhead from each family's best times
        plain_times, traced_times, tracers = [], [], []
        for _ in range(2):
            times, bad = fresh_round()
            plain_times.append(times)
            failures += bad
            tracer = spans.Tracer()
            times, bad = fresh_round(tracer)
            traced_times.append(times)
            tracers.append(tracer)
            failures += bad
        attempted = 4 * len(keys)
        tracer = tracers[0]
        plain = sum(map(min, zip(*plain_times)))
        traced = sum(map(min, zip(*traced_times)))
        overhead = (traced - plain) / plain
        metrics = tracer.metrics(overhead)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        OUT.mkdir(exist_ok=True)
        stem = OUT / ("%s-seed%d" % (args.workload, args.seed))
        tracer.write_spans(stem.with_suffix(".spans.csv"))
        summary = dict(tracer.summary(), plain_round_s=plain,
                       traced_round_s=traced, pool=keys)
        with open(stem.with_suffix(".summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        print("best plain round %.3f s, traced %.3f s, overhead %.1f%%, "
              "%d spans" % (plain, traced, 100 * overhead, len(tracer.start)))
        print("mul_weyl shared-exponent histogram %s"
              % summary["mul_weyl_shared_exponent_histogram"])
    else:
        timed = TIMED_ROUNDS[args.workload]
        rounds, scaled = [], []  # job seconds of each round, in pool order
        while len(rounds) < timed or \
                sum(map(sum, rounds)) * (1 + 1 / len(rounds)) <= args.seconds:
            probes = []
            times, bad = fresh_round(probes=probes)
            rounds.append(times)
            # each job against the mean of the probes just before and after it
            scaled.append([scale(t, (a + b) / 2)
                           for t, a, b in zip(times, probes, probes[1:])])
            failures += bad
        attempted = len(keys) * len(rounds)
        mean = [statistics.fmean(ts) for ts in zip(*scaled[:timed])]
        raw = [statistics.fmean(ts) for ts in zip(*rounds[:timed])]
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "jobs_per_s": len(keys) / sum(mean),
            "job_p50_s": statistics.median(mean),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
                 "peak_rss_mb": "MB"}
        print("rounds %s s (first %d timed); %d jobs; failed_frac %d/%d" % (
            " ".join("%.3f" % sum(ts) for ts in rounds), timed, attempted,
            len(failures), attempted))
        print("mean timed job, scaled (raw): " + " ".join(
            "%s=%.3fs (%.3fs)" % kmr for kmr in zip(keys, mean, raw)))
        print("unscaled: setup_s %.4f jobs_per_s %.4f job_p50_s %.4f" % (
            statistics.median(setup_times), len(keys) / sum(raw),
            statistics.median(raw)))
    for line in failures:
        print("FAILED " + line)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
