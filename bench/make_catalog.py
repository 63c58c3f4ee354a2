"""Build bench/catalog.json: the families each workload draws from, grouped
into strata, with the golden sha256 of every family's classify report.

    python3 bench/make_catalog.py

Every candidate job runs once in each of PASSES passes over all the
candidates, in a new shuffled order each pass, so that the machine's drift
in speed during the build spreads over every family.  The catalog keeps
the report digest (the same on every run, or the build stops) and the
fastest job time in seconds on the machine that built it.  Strata are equal-count groups of the
candidates sorted by that time, so every stratum holds families of about
the same cost and every seed's round costs about the same.  Candidates:

ladder           8 families of each of four shape classes of U (see
                 ladder_class); toy-overtwisted is in every round
ladder-contract  16 two-orbit contraction families in 2 strata, and a
                 stratum of 8 three-orbit ones
search-miss      49 layered families without a unit term: the median one is
                 in every round, the others form 6 strata

Run it again only when a change is meant to alter classify reports, and say
so in that change: the goldens pin the report bytes.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import defaultdict

import families
import run

# U's shape, with every letter marked e(ven) or o(dd): see ladder_class
LADDER_CLASSES = (
    "1+eqh+opopoqoq+opoq+opoq+oqot",    # about 0.2 s a job
    "1+eqet+eqh+opopoqoq+opoq+opoq",    # about 0.55 s
    "1+epeq+eqh+opoq+oqot",             # about 1.15 s
    "1+epeq+epeqopoq+eqh+opoq+oqot",    # about 1.2 s
)
LADDER_SCAN = range(0, 400)
LADDER_PER_CLASS = 8
CONTRACT_SEEDS = {2: range(0, 16), 3: range(100, 108)}
MISS_SEEDS = range(0, 49)
MISS_STRATA = 6
CONTRACT_STRATA = 2
PASSES = 4


def ladder_class(entry):
    """Shape of U = d(q_w) / kappa_w for a random_layered_spec entry: its
    terms, each as the sorted letters tagged with parity (e/o) and kind
    (q/p/t), plus an h per hbar, joined with '+'."""
    spec = entry.master
    sig = spec.sig
    U = spec.images[("q", "w")]
    terms = []
    for m, _ in U.items():
        toks = [("o" if sig.q_degree(v) % 2 else "e") + "q" for v, _ in m.q]
        toks += [("o" if sig.p_degree(v) % 2 else "e") + "p" for v, _ in m.p]
        toks += [("o" if sig.t_degree(v) % 2 else "e") + "t" for v, _ in m.t]
        word = "".join(sorted(toks)) + "h" * m.hbar
        terms.append(word or "1")
    return "+".join(sorted(terms))


def measure(sd, keys):
    """Catalog entry of each family named in keys, by key."""
    fams = {key: families.build_family(sd, key) for key in keys}
    digests, times = defaultdict(set), defaultdict(list)
    rng = random.Random(0)
    for _ in range(PASSES):
        order = list(keys)
        rng.shuffle(order)
        for key in order:
            t0 = time.perf_counter()
            out, problems = families.run_job(sd, fams[key])
            times[key].append(time.perf_counter() - t0)
            if problems:
                raise SystemExit("%s fails its gate: %s" % (key, problems))
            digests[key].add(families.sha256(out))
        print("pass done", flush=True)
    entries = {}
    for key in keys:
        if len(digests[key]) != 1:
            raise SystemExit("%s gives different reports on repeated runs" % key)
        job_s = round(min(times[key]), 3)
        print("%-24s %8.3f s" % (key, job_s))
        entries[key] = {"family": key, "job_s": job_s, "sha256": digests[key].pop()}
    return entries


def by_time(members, k):
    members = sorted(members, key=lambda m: (m["job_s"], m["family"]))
    n = len(members)
    return [members[n * i // k: n * (i + 1) // k] for i in range(k)]


def anchored(members, k):
    """The median member in every round, the others in k strata around it,
    so the round's median job is the same family for every seed."""
    members = sorted(members, key=lambda m: (m["job_s"], m["family"]))
    anchor = members.pop(len(members) // 2)
    return {"fixed": [anchor], "strata": by_time(members, k)}


def main():
    sys.path.insert(0, str(run.SRC))
    sd = run.load_sftdga()

    shapes = defaultdict(list)
    for s in LADDER_SCAN:
        shapes[ladder_class(sd.random_layered_spec(s, pairs=2, with_unit=True))].append(s)
    ladder = ["layered-%d" % s for c in LADDER_CLASSES
              for s in shapes[c][:LADDER_PER_CLASS]]
    two = ["contract2-%d" % s for s in CONTRACT_SEEDS[2]]
    three = ["contract3-%d" % s for s in CONTRACT_SEEDS[3]]
    miss = ["layered-nounit-%d" % s for s in MISS_SEEDS]
    entries = measure(sd, ["toy-overtwisted"] + ladder + two + three + miss)
    toy, ladder, two, three, miss = ([entries[k] for k in keys] for keys in (
        ["toy-overtwisted"], ladder, two, three, miss))
    catalog = {
        "ladder": {"fixed": toy, "strata": by_time(ladder, len(LADDER_CLASSES))},
        "ladder-contract": {"fixed": [],
                            "strata": by_time(two, CONTRACT_STRATA) + [three]},
        "search-miss": anchored(miss, MISS_STRATA),
    }
    with open(run.HERE / "catalog.json", "w", encoding="utf-8") as fh:
        json.dump(catalog, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
