"""Benchmark of ncrainbow's certification workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process as a closed loop with a single caller
(`workers=1`): each job starts when the previous one has returned, and
jobs run in whole passes over a seed-drawn pool until S seconds have
passed. Every verdict is checked outside the timed region against
`reference.py`, which shares no code with the package. With `--trace 0`
the last line of standard output reports the end-to-end metrics; with
`--trace 1` each job runs untraced and then traced, and the last line
reports the per-layer metrics. The line before it holds the details:
every job drawn, the tail percentile and sample count, and the results of
the corruption self-tests. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference as ref
from layers import CRITERIA, layer_metrics, metric, observe_counts
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("groups", "graphs", "ncgraph", "bounds", "colorings", "rainbow", "reproduce", "cli")
SETUP_REPEATS = 15
SEARCH_ATTEMPTS = 1000


def import_package():
    """Import ncrainbow afresh from this checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "ncrainbow" or m.startswith("ncrainbow.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    importlib.import_module("ncrainbow.cli")
    package = sys.modules["ncrainbow"]
    if Path(package.__file__).resolve().parent != SRC / "ncrainbow":
        raise ImportError(f"ncrainbow imported from {package.__file__}, not from {SRC}")
    mods = {name: sys.modules[f"ncrainbow.{name}"] for name in MODULES}
    mods["package"] = package
    return mods


# --- workloads ---------------------------------------------------------------
#
# Each slot below is a class of groups that the seed draws one member from.
# Members of a slot have the same order and center size, and in
# `certify-large` the same non-commuting graph size where the families
# allow it, so that a seed changes which groups run but not how much work
# a pass holds; the spread between seeds then measures the program rather
# than the draw. Across slots the workloads cover the orders, center sizes
# and families they are meant to stress.

def _x(base, m):
    return ("x", base, m)


CERTIFY_SLOTS = (
    (("M", 20, 11), _x(("D", 4), 5), _x(("Q", 2), 5)),          # order 40, |Z| 10
    (_x(("ZpZq", 7, 3, 2), 2), _x(("ZpZq", 5, 4, 2), 2)),        # order 42 / 40, |Z| 2
    (("M", 24, 13), _x(("D", 4), 6), _x(("Q", 2), 6)),          # order 48, |Z| 12
    (("D", 20), ("Q", 10)),                                      # order 40, |Z| 2
    (("M", 24, 7), ("M", 24, 19), _x(("D", 8), 3)),             # order 48, |Z| 6
    (("M", 28, 15), _x(("D", 4), 7), _x(("Q", 2), 7)),          # order 56, |Z| 14
    (("ZpZq", 13, 4, 5), ("ZpZq", 11, 5, 3)),                   # order 52 / 55, |Z| 1
    (("D", 24), ("Q", 12), ("M", 24, 11)),                      # order 48, |Z| 2
    (("M", 32, 17), _x(("D", 4), 8), _x(("Q", 2), 8)),          # order 64, |Z| 16
    (("M", 30, 11), _x(("D", 3), 10), _x(("D", 6), 5)),         # order 60, |Z| 10
    (("M", 36, 19), _x(("D", 4), 9), _x(("Q", 2), 9)),          # order 72, |Z| 18
    (_x(("ZpZq", 7, 3, 2), 3), ("ZpZq", 17, 4, 4)),             # order 63 / 68, |Z| 3 / 1
    (("D", 30), ("Q", 15), _x(("D", 15), 2)),                   # order 60, |Z| 2
    (("D", 34), ("Q", 17), _x(("D", 17), 2)),                   # order 68, |Z| 2
    (("M", 36, 17), _x(("D", 9), 4), _x(("D", 18), 2)),         # order 72, |Z| 4
)

BOUNDS_SLOTS = (
    (("D", 50), ("Q", 25), _x(("D", 25), 2)),                               # 100, |Z| 2
    (("M", 60, 49), _x(("D", 5), 12), _x(("D", 10), 6)),                    # 120, |Z| 12
    (("M", 72, 37), _x(("D", 4), 18), _x(("Q", 2), 18)),                    # 144, |Z| 36
    (("M", 80, 9), _x(("D", 20), 4), _x(("ZpZq", 5, 4, 2), 8)),             # 160, |Z| 8
    (("M", 84, 41), _x(("D", 21), 4), _x(("D", 42), 2), _x(("ZpZq", 7, 6, 3), 4)),  # 168, 4
    (("M", 90, 19), _x(("D", 5), 18), _x(("D", 10), 9)),                    # 180, |Z| 18
    (("M", 100, 51), _x(("D", 4), 25), _x(("Q", 2), 25)),                   # 200, |Z| 50
    (("M", 105, 41), _x(("D", 21), 5), _x(("ZpZq", 7, 6, 3), 5)),           # 210, |Z| 5
    (("M", 120, 11), ("M", 120, 71), _x(("D", 24), 5)),                     # 240, |Z| 10
    (_x(("D", 21), 6), _x(("D", 42), 3), _x(("ZpZq", 7, 6, 3), 6)),         # 252, |Z| 6
    (("M", 132, 89), _x(("D", 3), 44), _x(("D", 6), 22)),                   # 264, |Z| 44
    (("M", 140, 41), _x(("D", 7), 20), _x(("D", 14), 10)),                  # 280, |Z| 20
    (("D", 150), ("Q", 75), _x(("D", 75), 2)),                              # 300, |Z| 2
)


def build_group(spec, groups):
    """Construct the spec with the package's own constructors."""
    kind = spec[0]
    if kind == "D":
        return groups.dihedral(spec[1])
    if kind == "Q":
        return groups.dicyclic(spec[1])
    if kind == "M":
        return groups.metacyclic(spec[1], spec[2])
    if kind == "ZpZq":
        p, q, u = spec[1:]
        action = [[pow(u, y, p) * x % p for x in range(p)] for y in range(q)]
        return groups.semidirect_product(groups.cyclic(p), groups.cyclic(q), action)
    return groups.direct_product(build_group(spec[1], groups), groups.cyclic(spec[2]))


class Workload:
    def close(self):
        pass


class Reproduce(Workload):
    """One job is one full `ncrainbow reproduce` pass through `cli.main`.

    The pipeline fixes its own inputs, so the seed does not apply.
    """

    def setup(self, mods, seed):
        self.mods = mods

    def pass_jobs(self, index):
        return [{"job": "reproduce"}]

    def run(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods["cli"].main(["reproduce"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def extract(self, job, raw):
        return raw

    def check(self, job, out):
        problems = []
        if out["code"] != 0:
            problems.append(f"exit code {out['code']}")
        lines = out["stdout"].splitlines()
        passed = [ln.split()[1] for ln in lines if ln.startswith("PASS ") and len(ln.split()) > 1]
        if sorted(passed) != sorted(CRITERIA) or any(ln.startswith("FAIL") for ln in lines):
            problems.append(f"PASS lines for {passed}")
        try:
            outcome = json.loads(lines[-1])["outcome"]
        except (IndexError, ValueError, KeyError, TypeError):
            return problems + ["no manifest line"]
        if outcome.get("passed") is not True or outcome.get("criteria") != len(CRITERIA):
            problems.append(f"manifest outcome {outcome}")
        return problems

    def corruptions(self, job, out):
        first = out["stdout"].replace("PASS ", "FAIL ", 1)
        yield "one criterion reported FAIL", dict(out, stdout=first)

    def record(self, job):
        return {"group": "pipeline", "seed": None}


class CertifyLarge(Workload):
    """One job certifies one group of order 40-72: construct it, build its
    non-commuting graph, take `failure_bound` (< 1), search a k=2 coloring
    and `certify_rc2` it."""

    slots = CERTIFY_SLOTS

    def setup(self, mods, seed):
        self.mods = mods
        self.rng = ref.Rng(seed)
        self.specs = [self.rng.choice(slot) for slot in self.slots]
        self.passes = []
        self.references = {}

    def pass_jobs(self, index):
        while len(self.passes) <= index:
            order = self.rng.permutation(len(self.specs))
            self.passes.append([{"spec": self.specs[i], "seed": self.rng.spread_seed()}
                                for i in order])
        return self.passes[index]

    def run(self, job):
        m = self.mods
        group = build_group(job["spec"], m["groups"])
        ncg = m["ncgraph"].noncommuting_graph(group)
        bound = m["bounds"].failure_bound(group, 2)
        if bound >= 1:
            raise ValueError(f"failure bound {bound} is not below 1")
        coloring = m["rainbow"].search_two_coloring(ncg.graph, 2, SEARCH_ATTEMPTS, job["seed"])
        if coloring is None:
            raise ValueError("search found no coloring")
        cert = m["rainbow"].certify_rc2(ncg.graph, coloring)
        return group, ncg, bound, coloring, cert

    def reference(self, spec):
        if spec not in self.references:
            profile = ref.Profile(ref.cayley_table(spec))
            self.references[spec] = (profile, profile.failure_bound(2))
        return self.references[spec]

    def extract(self, job, raw):
        # Keep only what `check` reads, and copy only what it compares as lists.
        group, ncg, bound, coloring, cert = raw
        return {
            "table": group.table,
            "vertices": list(ncg.vertex_to_element),
            "adj": list(ncg.graph.adj),
            "bound": bound,
            "colors": list(coloring.edge_colors),
            "winning_seed": coloring.seed,
            "paths": cert.certificate.per_pair,
            "cert": (cert.lower_bound, cert.rc2, cert.rc, cert.certificate.k),
        }

    def check(self, job, out):
        profile, bound = self.reference(job["spec"])
        problems = []
        own = ref.Profile(out["table"])
        if (own.order, own.center_size, own.edges) != (profile.order, profile.center_size,
                                                        profile.edges):
            problems.append("group invariants differ from the reference group")
        if out["bound"] != bound:
            problems.append(f"failure_bound {out['bound']} != reference {bound}")
        problems += ref.coloring_problems(out["table"], out["vertices"], out["adj"],
                                          out["colors"], out["winning_seed"], job["seed"],
                                          SEARCH_ATTEMPTS)
        v = len(out["vertices"])
        complete = profile.edges == v * (v - 1) // 2
        if out["cert"] != (2, 2, 1 if complete else 2, 2):
            problems.append(f"certificate fields {out['cert']}")
        problems += ref.certificate_problems(out["adj"], out["colors"], out["paths"], 2)
        return problems

    def corruptions(self, job, out):
        colors = list(out["colors"])
        edge = ref.edge_on_tight_pair(out["adj"], colors)
        colors[edge] = 3 - colors[edge]
        yield f"edge {edge} color flipped", dict(out, colors=colors)
        yield "every edge color 1", dict(out, colors=[1] * len(colors))
        b = out["bound"]
        yield "failure_bound numerator + 1", dict(
            out, bound=Fraction(b.numerator + 1, b.denominator))

    def record(self, job):
        profile, _ = self.reference(job["spec"])
        return {"group": ref.spec_name(job["spec"]), "order": profile.order,
                "center_size": profile.center_size, "vertices": profile.vertices,
                "edges": profile.edges, "seed": job["seed"]}


class BoundsLarge(Workload):
    """One job is one `ncrainbow bounds --group FILE --k 2` call through
    `cli.main`, on a `.cay` file of order 100-300 written at set-up with its
    elements relabelled by a seed-drawn permutation.

    No table is kept after its file is written, so that the jobs run without
    the benchmark's data beside them. Relabelling changes none of the
    invariants checked, so the reference is taken from the spec's own table.
    """

    slots = BOUNDS_SLOTS

    def setup(self, mods, seed):
        self.mods = mods
        rng = ref.Rng(seed)
        OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"work-{seed}-", dir=OUT))
        self.jobs = []
        for i, slot in enumerate(self.slots):
            spec = rng.choice(slot)
            table = ref.cayley_table(spec)
            label_seed = rng.spread_seed()
            table = ref.relabel(table, ref.Rng(label_seed).permutation(len(table)))
            path = self.workdir / f"g{i:02d}.cay"
            path.write_text(ref.cay_text(table))
            self.jobs.append({"spec": spec, "path": path, "seed": label_seed})
        self.order_rng = rng
        self.passes = []
        self.references = {}

    def pass_jobs(self, index):
        while len(self.passes) <= index:
            order = self.order_rng.permutation(len(self.jobs))
            self.passes.append([self.jobs[i] for i in order])
        return self.passes[index]

    def run(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods["cli"].main(["bounds", "--group", str(job["path"]), "--k", "2"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def reference(self, job):
        spec = job["spec"]
        if spec not in self.references:
            profile = ref.Profile(ref.cayley_table(spec))
            self.references[spec] = (profile, profile.failure_bound(2))
        return self.references[spec]

    def extract(self, job, raw):
        try:
            outcome = json.loads(raw["stdout"].splitlines()[-1])["outcome"]
        except (IndexError, ValueError, KeyError, TypeError):
            outcome = None
        return {"code": raw["code"], "outcome": outcome, "stderr": raw["stderr"]}

    def check(self, job, out):
        profile, bound = self.reference(job)
        o = out["outcome"]
        if out["code"] != 0 or o is None:
            return [f"exit code {out['code']}: {out['stderr'].strip()[:200]}"]
        problems = []
        if (o.get("p_num"), o.get("p_den")) != (str(bound.numerator), str(bound.denominator)):
            problems.append(f"bound {o.get('p_num')}/{o.get('p_den')} != reference {bound}")
        if o.get("flagged") is not False or o.get("order") != profile.order:
            problems.append(f"outcome {o.get('flagged')=} {o.get('order')=}")
        return problems

    def corruptions(self, job, out):
        o = dict(out["outcome"], p_num=str(int(out["outcome"]["p_num"]) + 1))
        yield "p_num + 1", dict(out, outcome=o)

    def record(self, job):
        profile, _ = self.reference(job)
        return {"group": ref.spec_name(job["spec"]), "order": profile.order,
                "center_size": profile.center_size, "vertices": profile.vertices,
                "edges": profile.edges, "seed": job["seed"]}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"reproduce": Reproduce, "certify-large": CertifyLarge,
             "bounds-large": BoundsLarge}


# --- measurement -------------------------------------------------------------

class Loop:
    """Closed loop over whole passes; keeps latencies and checks verdicts."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.records: list[dict] = []
        self.first = None
        self.passes = 0

    def run_job(self, job, on_job=None):
        w = self.workload
        if on_job:
            on_job(len(self.latencies))
        start = perf_counter()
        try:
            raw, error = w.run(job), None
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        self.latencies.append(perf_counter() - start)
        out = None if error else w.extract(job, raw)
        del raw
        problems = [error] if error else w.check(job, out)
        if problems:
            self.failures.append(f"job {len(self.latencies) - 1}: {'; '.join(problems)}")
        elif self.first is None:
            self.first = (job, out)
        self.records.append(w.record(job))

    def run_pass(self, on_job=None):
        for job in self.workload.pass_jobs(self.passes):
            self.run_job(job, on_job)
        self.passes += 1

    def run_for(self, seconds, on_job=None):
        start = perf_counter()
        while True:
            self.run_pass(on_job)
            if perf_counter() - start >= seconds:
                return

    def self_test(self):
        """Each check must reject a corrupted copy of a correct output."""
        if self.first is None:
            return [{"corruption": "none", "rejected": False,
                     "problems": ["no correct job to corrupt"]}]
        job, out = self.first
        results = []
        for what, bad in self.workload.corruptions(job, out):
            problems = self.workload.check(job, bad)
            results.append({"corruption": what, "rejected": bool(problems),
                             "problems": problems[:3]})
        return results


def tail(latencies):
    """(value, percentile, samples beyond it) of the highest percentile with
    at least 10 samples beyond it. Below 20 samples that percentile would
    fall under the median, so the maximum is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def setup_once(workload, seed):
    start = perf_counter()
    mods = import_package()
    workload.setup(mods, seed)
    return perf_counter() - start, mods


def _package_modules():
    return {k: v for k, v in sys.modules.items() if k.split(".")[0] == "ncrainbow"}


def setup_again(cls, seed):
    """Time one more set-up, with a fresh import, on a fresh instance that is
    then discarded; the running loop keeps its own modules."""
    saved = _package_modules()
    workload = cls()
    try:
        return setup_once(workload, seed)[0]
    finally:
        workload.close()
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()  # free the discarded import before the next job


def end_to_end(cls, seed, seconds):
    """The loop's own set-up, then SETUP_REPEATS - 1 more spread evenly over
    the run, so that set-up meets the host in the same states as the jobs."""
    workload = cls()
    first, _ = setup_once(workload, seed)
    setups = [first]
    loop = Loop(workload)
    start = perf_counter()

    def on_job(index):
        while (len(setups) < SETUP_REPEATS
               and perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(setup_again(cls, seed))

    try:
        loop.run_for(seconds, on_job)
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_again(cls, seed))
    finally:
        workload.close()
    p_tail, percentile, beyond = tail(loop.latencies)
    metrics = {
        "job_p50_s": metric(statistics.median(loop.latencies), "s"),
        "job_tail_s": metric(p_tail, "s"),
        "jobs_per_s": metric(len(loop.latencies) / sum(loop.latencies), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"tail_percentile": round(percentile, 1), "tail_samples_beyond": beyond,
               "setup_runs_s": setups,
               "fail_ratio": len(loop.failures) / len(loop.latencies)}
    return loop, metrics, details


def traced(cls, seed, seconds, name):
    """Each job runs untraced and then traced, job by job, until `seconds`
    have passed; the per-layer metrics come from the traced runs, and
    `trace.overhead_ratio` from the pairs, so that the host's speed changes
    largely cancel in it."""
    workload = cls()
    _, mods = setup_once(workload, seed)
    loop = Loop(workload)
    tracer = Tracer()
    counts = observe_counts(tracer)
    untraced, traced_jobs = [], []

    def on_job(index):
        counts.end_job()
        tracer.job = index
        traced_jobs.append(index)

    start = perf_counter()
    try:
        while not traced_jobs or perf_counter() - start < seconds:
            for job in workload.pass_jobs(loop.passes):
                loop.run_job(job)
                untraced.append(loop.latencies[-1])
                tracer.install([mods[m] for m in MODULES] + [mods["package"]])
                try:
                    loop.run_job(job, on_job)
                finally:
                    tracer.uninstall()
            loop.passes += 1
        counts.end_job()
    finally:
        workload.close()
    traced_latencies = [loop.latencies[i] for i in traced_jobs]
    metrics = layer_metrics(tracer, counts, len(traced_jobs))
    ratios = [t / u for t, u in zip(traced_latencies, untraced)]
    metrics["trace.overhead_ratio"] = metric(statistics.median(ratios) - 1, "ratio")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-{seed}.tsv.gz"
    tracer.write(path)
    details = {"untraced_job_s": untraced, "traced_job_s": traced_latencies,
               "spans": len(tracer), "trace_file": str(path.relative_to(ROOT))}
    return loop, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ncrainbow" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'ncrainbow'}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    if args.trace:
        loop, metrics, details = traced(cls, args.seed, args.seconds, args.workload)
    else:
        loop, metrics, details = end_to_end(cls, args.seed, args.seconds)
    self_test = loop.self_test()
    correct = not loop.failures and all(t["rejected"] for t in self_test)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   passes=loop.passes, jobs=len(loop.latencies),
                   failures=loop.failures[:5], self_test=self_test, drawn=loop.records)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": len(loop.latencies),
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
