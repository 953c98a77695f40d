"""The ggt benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one client, one thread, closed loop: each op is issued after
the previous one returns):

* ``factor-mixed``: one op is ``ggt.cli.main(["factor", graph, element,
  "-o", out])`` in-process, over ``infinite_rose`` and
  ``emitter_two_loops``. Certification via ``compose`` dominates.
* ``af-balanced``: one op is ``af_factor()`` on a seeded permutation
  table of the depth-5 to depth-7 refinement of ``rose(2)``.
* ``classes-cold``: one op is a fresh strongly connected graph of 10-60
  vertices: ``validate``, ``homology``, four known-answer zero-tests and
  one ``find_bisection``. Each graph misses the eventual-kernel cache.

With ``--trace 0`` a fixed list of at least MIN_OPS ops (so that ten lie
beyond the 90th percentile) is timed in plain passes, in order, caches
emptied before each pass, until the passes have taken ``--seconds``.
Op times are scaled to a reference host speed (see ``run_untraced``),
and the metrics are medians over the passes (see ``figures``); the raw
wall-time figures are in the run record. With
``--trace 1`` a list sized from ``--seconds`` runs once untraced and once
traced, and the per-layer metrics are printed. Every result is checked
by an oracle that does not go through ``compose``, and every repeat of
an op must print the same bytes.

The last line of stdout is the result object; the line before it is the
run record (Python version, CPUs, load, op counts, factor lengths,
output hash, raw wall-time figures).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path as FsPath

from reference import reference_task, timed_reference

ROOT = FsPath(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = FsPath(__file__).resolve().parent

MIN_OPS = 100   # ten ops beyond the 90th percentile
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 9
# Distinct ops per second of --seconds (at least MIN_OPS); the untraced
# passes over them go on until their op time reaches --seconds.
OPS_RATE = {"factor-mixed": 2.0, "af-balanced": 2.0, "classes-cold": 8.0}
# Traced runs: one untraced and one traced pass take about --seconds.
TRACE_RATE = {"factor-mixed": 3.0, "af-balanced": 2.0, "classes-cold": 15.0}
MIN_TRACE_OPS = 10
WARMUP_OPS = 3
SETUP_PAYLOAD_OPS = 16
# The reference task's nominal time, and how many ops on each side of an
# op lend their reference times to its speed estimate (see run_untraced).
REF_NOMINAL_S = 0.002
REF_WINDOW = 3

END_TO_END = (("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("ops_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))

PER_LAYER = (
    ("fullgroup.compose.calls", "calls/op"),
    ("fullgroup.compose.ms", "ms/op"),
    ("fullgroup.compose.blocks_max", "blocks"),
    ("fullgroup.compose.pairs", "pairs/op"),
    ("fullgroup.compose.hit_ratio", "ratio"),
    ("fullgroup.transposition.ms", "ms/op"),
    ("fullgroup.graded_partition.ms", "ms/op"),
    ("factor.verify_product.calls", "calls/op"),
    ("factor.verify_product.ms", "ms/op"),
    ("factor.verify_share", "ratio"),
    ("factor.find_bisection.calls", "calls/op"),
    ("factor.find_bisection.ms", "ms/op"),
    ("factor.graded_cancellation.ms", "ms/op"),
    ("factor.construct_disjoint_paths.ms", "ms/op"),
    ("factor.af_factor.self_ms", "ms/op"),
    ("factor.len_p50", "factors"),
    ("factor.len_max", "factors"),
    ("pathspace.canonicalize.calls", "calls/op"),
    ("pathspace.canonicalize.ms", "ms/op"),
    ("pathspace.intersect_pieces.calls", "calls/op"),
    ("pathspace.subtract_piece.calls", "calls/op"),
    ("homology.index.ms", "ms/op"),
    ("homology.is_zero.calls", "calls/op"),
    ("homology.is_zero.ms", "ms/op"),
    ("homology.homology.ms", "ms/op"),
    ("homology.evk_cache.hit_ratio", "ratio"),
    ("intlin.smith_normal_form.calls", "calls/op"),
    ("intlin.smith_normal_form.ms", "ms/op"),
    ("intlin.eventual_kernel.calls", "calls/op"),
    ("intlin.eventual_kernel.ms", "ms/op"),
    ("graphs.validate.calls", "calls/op"),
    ("graphs.validate.ms", "ms/op"),
    ("graphs.find_path.calls", "calls/op"),
    ("cli.main.self_ms", "ms/op"),
    ("trace.overhead_frac", "ratio"),
)


def import_ggt():
    """Import ggt from this checkout's sources, or exit without a result."""
    if not (SRC / "ggt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ggt sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import ggt
    if FsPath(ggt.__file__).resolve().parent != (SRC / "ggt").resolve():
        sys.exit(f"perfbench: imported ggt from {ggt.__file__}, not {SRC}")


# -- workloads --------------------------------------------------------------------

class FactorMixed:
    name = "factor-mixed"

    def __init__(self, seed, workdir):
        import workloads as wl
        from ggt.graphs import print_graph
        self.seed = seed
        self.workdir = workdir
        self.graph_paths = {}
        for gname, g in wl.FACTOR_GRAPHS.items():
            path = workdir / f"{gname}.graph"
            path.write_text(print_graph(g), encoding="utf-8")
            self.graph_paths[gname] = path

    def make(self, i):
        import workloads as wl
        from ggt.fullgroup import compose_all, print_element
        g, parts = wl.factor_input(self.seed, i)
        elem = self.workdir / f"op{i}.elem"
        elem.write_text(print_element(f"x{i}", compose_all(parts)), encoding="utf-8")
        return {"i": i, "g": g, "parts": parts, "elem": elem,
                "out": self.workdir / f"op{i}.factors"}

    def run(self, op):
        from ggt import cli
        rc = cli.main(["factor", str(self.graph_paths[op["g"].name]),
                       str(op["elem"]), "-o", str(op["out"])])
        if rc != 0:
            raise RuntimeError(f"ggt factor exited with {rc}")
        return rc

    def output(self, op, _result):
        return op["out"].read_text(encoding="utf-8")

    def check(self, op, _result, text):
        """Returns the factor count, or None if the factorization is wrong."""
        import workloads as wl
        from ggt.factor import parse_factorization
        certified, factors = parse_factorization(op["g"], text)
        points = wl.factor_points(op["g"], op["parts"],
                                  wl.op_rng("factor-mixed-check", self.seed, op["i"]))
        ok = certified and wl.check_factorization(
            factors, lambda x: wl.act(op["parts"], x), points)
        return len(factors) if ok else None

    def setup_payload(self, ops):
        from ggt.graphs import print_graph
        import workloads as wl
        graphs = [[n, print_graph(g)] for n, g in wl.FACTOR_GRAPHS.items()]
        elems = [[op["g"].name, op["elem"].read_text(encoding="utf-8")] for op in ops]
        return {"graphs": graphs, "elements": elems}


class AfBalanced:
    name = "af-balanced"

    def __init__(self, seed, workdir):
        self.seed = seed

    def make(self, i):
        import workloads as wl
        return {"i": i, "e": wl.af_input(self.seed, i),
                "depth": wl.AF_DEPTHS[i % len(wl.AF_DEPTHS)]}

    def run(self, op):
        from ggt.factor import af_factor
        return af_factor(op["e"])

    def output(self, op, fact):
        from ggt.factor import print_factorization
        return print_factorization(f"t{op['i']}", fact, op["e"].graph)

    def check(self, op, fact, _text):
        """Returns the factor count, or None if the factorization is wrong."""
        import workloads as wl
        from ggt.fullgroup import apply
        e = op["e"]
        points = wl.af_points(e.graph, op["depth"],
                              wl.op_rng("af-balanced-check", self.seed, op["i"]))
        ok = fact.certified and wl.check_factorization(
            fact.transpositions, lambda x: apply(e, x), points)
        return len(fact.transpositions) if ok else None

    def setup_payload(self, ops):
        from ggt.fullgroup import print_element
        from ggt.graphs import print_graph
        import workloads as wl
        g = wl.AF_GRAPH
        return {"graphs": [[g.name, print_graph(g)]],
                "elements": [[g.name, print_element(f"t{op['i']}", op["e"])]
                             for op in ops]}


class ClassesCold:
    name = "classes-cold"

    def __init__(self, seed, workdir):
        self.seed = seed

    def make(self, i):
        import workloads as wl
        g, a, b, c, d = wl.classes_input(self.seed, i)
        return {"i": i, "g": g, "a": a, "b": b, "c": c, "d": d}

    def run(self, op):
        from ggt.factor import find_bisection
        from ggt.graphs import validate
        from ggt.homology import class_of, homology, is_zero
        report = validate(op["g"])
        h = homology(op["g"])
        a, b, c, d = op["a"], op["b"], op["c"], op["d"]
        zeros = (is_zero(class_of(a).sub(class_of(b))),
                 is_zero(class_of(c).sub(class_of(d))),
                 is_zero(class_of(a)), is_zero(class_of(c)))
        return report, h, zeros, find_bisection(a, b)

    def output(self, op, result):
        _, h, zeros, blocks = result
        return (f"{op['g'].name} H0={h.h0_text()} H1={h.h1_text()} "
                f"basis={list(h.h1_kernel_basis)} zeros={zeros} "
                f"blocks={[str(b) for b in blocks]}\n")

    def check(self, op, result, _text):
        """Returns 0 (no factorization here), or None on a wrong answer."""
        import workloads as wl
        report, h, zeros, blocks = result
        g = op["g"]
        ok = (report.strongly_connected and report.no_sinks and report.no_sources
              and (tuple(h.h0_torsion), h.h0_free_rank, h.h1_rank)
              == wl.expected_homology(g)
              and zeros == (True, True, False, False)
              and wl.check_bisection_pointwise(
                  g, blocks, op["a"], op["b"],
                  wl.op_rng("classes-cold-check", self.seed, op["i"])))
        return 0 if ok else None

    def setup_payload(self, ops):
        from ggt.graphs import print_graph
        return {"graphs": [[op["g"].name, print_graph(op["g"])] for op in ops],
                "elements": []}


WORKLOADS = {w.name: w for w in (FactorMixed, AfBalanced, ClassesCold)}


# -- measurement ------------------------------------------------------------------

class Pass:
    """One timed pass over the op list, in order; with `reference`, the
    reference task is timed after each op. Outputs and the oracle come
    after, in `settle`, outside the timed (and traced) region."""

    def __init__(self, wl, ops, reference=False):
        self.wl, self.ops = wl, ops
        self.times, self.refs, self.results = [], [], []
        for op in ops:
            start = time.perf_counter()
            try:
                result = wl.run(op)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = None
            self.times.append(time.perf_counter() - start)
            self.results.append(result)
            if reference:
                self.refs.append(timed_reference())
        self.texts, self.lengths, self.bad = [], [], []

    def settle(self, check):
        for op, result in zip(self.ops, self.results):
            text, length = "", None
            if result is not None:
                try:
                    text = self.wl.output(op, result)
                    if check:
                        length = self.wl.check(op, result, text)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    result = None
            self.texts.append(text)
            bad = result is None or (check and length is None)
            self.bad.append(bad)
            if bad:
                print(f"perfbench: op {op['i']} failed", file=sys.stderr)
            elif length:
                self.lengths.append(length)
        self.results = None
        return self

    def scaled_times(self):
        """Op times at the reference speed: each op's wall time divided by
        the median reference time of the ops around it, times the nominal
        reference time."""
        w = REF_WINDOW
        return [t * REF_NOMINAL_S / statistics.median(self.refs[max(0, k - w):k + w + 1])
                for k, t in enumerate(self.times)]


def failed_ops(passes):
    """Ops that failed in any of the passes, each counted once."""
    return sum(any(bad) for bad in zip(*(p.bad for p in passes)))


def output_hash(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def clear_caches():
    """Empty every functools cache in ggt so each pass starts cold."""
    for name, mod in list(sys.modules.items()):
        if name != "ggt" and not name.startswith("ggt."):
            continue
        for value in list(vars(mod).values()):
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                value.cache_clear()


class SetupProbe:
    """Fresh-process set-up time: ``import ggt`` and parsing input texts.
    The probe process then times the reference task itself, on the CPU it
    ran on, and its set-up time is scaled to the reference speed like the
    op times. The raw seconds are kept too."""

    def __init__(self, wl, ops, workdir):
        self.payload = workdir / "setup.json"
        self.payload.write_text(json.dumps(wl.setup_payload(ops)), encoding="utf-8")
        self.samples, self.raw = [], []
        self.sample(keep=False)  # warms the bytecode and file caches

    def sample(self, keep=True):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(self.payload)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=60, check=True)
        if keep:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            self.raw.append(probe["setup_s"])
            self.samples.append(probe["setup_s"] * REF_NOMINAL_S / probe["reference_s"])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def figures(passes, times_of):
    """(p50 ms, p90 ms, ops per second, ops beyond p90) of the passes.

    The percentiles are over each op's median time across the passes: a
    burst of host noise covers a stretch of time, so it seldom hits one
    op in more than one pass, while whatever the program itself does to
    an op recurs in every pass. Ops per second is the median over the
    passes of each pass's ops over its summed op times.
    """
    per_pass = [times_of(p) for p in passes]
    ms = [1000.0 * statistics.median(ts) for ts in zip(*per_pass)]
    p90 = percentile(ms, 90)
    return (statistics.median(ms), p90,
            statistics.median(len(ts) / sum(ts) for ts in per_pass),
            sum(1 for x in ms if x > p90))


def run_untraced(wl, ops, probe, seconds):
    """Plain passes over the same ops, in order, until the ops have taken
    `seconds` (at least MIN_PASSES passes). Before each pass the caches
    are emptied and a full collection runs, so every pass replays the
    same work: cold caches, and collections on the same ops.

    On a shared 2-CPU host the CPU speed was seen to drift by 10-45%
    within a minute, with CPU time equal to wall time: the drift is clock
    speed, not waiting. So the reference task is timed after every op, and the
    figures are taken from scaled times (`Pass.scaled_times`): wall time
    at the speed at which the reference takes REF_NOMINAL_S. The drift
    moves ggt's code and the reference by similar, not equal, shares, so
    scaling narrows the spread rather than removing it. Every pass must
    print the same bytes as the first, which alone is checked by the
    oracle. Returns the passes and whether their outputs repeated.
    """
    for _ in range(20):
        reference_task()
    passes = []
    busy = 0.0
    while len(passes) < MIN_PASSES or busy < seconds:
        clear_caches()
        gc.collect()
        passes.append(Pass(wl, ops, reference=True).settle(check=not passes))
        busy += sum(passes[-1].times)
        probe.sample()
    while len(probe.samples) < MIN_SETUP_SAMPLES:
        probe.sample()
    same = all(p.texts == passes[0].texts for p in passes)
    return passes, same


def run_traced(wl, ops):
    """One untraced and one traced pass over the same ops."""
    from tracer import Tracer
    for op in ops[:WARMUP_OPS]:  # the first ops of a process run slower
        try:
            wl.run(op)
        except Exception:
            pass  # counted when the timed passes run it
    clear_caches()
    gc.collect()
    plain = Pass(wl, ops).settle(check=True)
    clear_caches()
    gc.collect()
    with Tracer() as tr:
        traced = Pass(wl, ops)
        evk = _evk_cache_info()
    return plain, traced.settle(check=False), tr, evk


def _evk_cache_info():
    homology = importlib.import_module("ggt.homology")
    cached = getattr(homology, "_eventual_kernel_lattice", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


def layer_metrics(tr, plain, traced, evk):
    per_op = 1.0 / len(traced.times)
    plain_wall, traced_wall = sum(plain.times), sum(traced.times)
    pairs = tr.compose_pairs
    values = {
        "fullgroup.compose.calls": tr.calls("fullgroup.compose") * per_op,
        "fullgroup.compose.ms": tr.ms("fullgroup.compose") * per_op,
        "fullgroup.compose.blocks_max": tr.compose_blocks_max,
        "fullgroup.compose.pairs": pairs * per_op,
        "fullgroup.compose.hit_ratio": tr.compose_out / pairs if pairs else 0.0,
        "fullgroup.transposition.ms": tr.ms("fullgroup.transposition") * per_op,
        "fullgroup.graded_partition.ms": tr.ms("fullgroup.graded_partition") * per_op,
        "factor.verify_product.calls": tr.calls("factor.verify_product") * per_op,
        "factor.verify_product.ms": tr.ms("factor.verify_product") * per_op,
        "factor.verify_share": tr.ms("factor.verify_product") / (1000.0 * traced_wall),
        "factor.find_bisection.calls": tr.calls("factor.find_bisection") * per_op,
        "factor.find_bisection.ms": tr.ms("factor.find_bisection") * per_op,
        "factor.graded_cancellation.ms": tr.ms("factor.graded_cancellation") * per_op,
        "factor.construct_disjoint_paths.ms":
            tr.ms("factor.construct_disjoint_paths") * per_op,
        "factor.af_factor.self_ms": tr.self_ms("factor.af_factor") * per_op,
        "factor.len_p50": statistics.median(plain.lengths) if plain.lengths else 0,
        "factor.len_max": max(plain.lengths, default=0),
        "pathspace.canonicalize.calls": tr.calls("pathspace.canonicalize") * per_op,
        "pathspace.canonicalize.ms": tr.ms("pathspace.canonicalize") * per_op,
        "pathspace.intersect_pieces.calls":
            tr.calls("pathspace.intersect_pieces") * per_op,
        "pathspace.subtract_piece.calls": tr.calls("pathspace.subtract_piece") * per_op,
        "homology.index.ms": tr.ms("homology.index") * per_op,
        "homology.is_zero.calls": tr.calls("homology.is_zero") * per_op,
        "homology.is_zero.ms": tr.ms("homology.is_zero") * per_op,
        "homology.homology.ms": tr.ms("homology.homology") * per_op,
        "homology.evk_cache.hit_ratio":
            evk.hits / (evk.hits + evk.misses) if evk and evk.hits + evk.misses else 0.0,
        "intlin.smith_normal_form.calls": tr.calls("intlin.smith_normal_form") * per_op,
        "intlin.smith_normal_form.ms": tr.ms("intlin.smith_normal_form") * per_op,
        "intlin.eventual_kernel.calls": tr.calls("intlin.eventual_kernel") * per_op,
        "intlin.eventual_kernel.ms": tr.ms("intlin.eventual_kernel") * per_op,
        "graphs.validate.calls": tr.calls("graphs.validate") * per_op,
        "graphs.validate.ms": tr.ms("graphs.validate") * per_op,
        "graphs.find_path.calls": tr.calls("graphs.find_path") * per_op,
        "cli.main.self_ms": tr.self_ms("cli.main") * per_op,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def length_summary(lengths):
    if not lengths:
        return None
    hist = {}
    for n in lengths:
        hist[n] = hist.get(n, 0) + 1
    return {"count": len(lengths), "min": min(lengths),
            "p50": statistics.median(lengths), "max": max(lengths),
            "histogram": {str(k): hist[k] for k in sorted(hist)}}


def main(argv=None):
    parser = argparse.ArgumentParser(description="ggt benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_ggt()

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg_before": os.getloadavg()}
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        rate = TRACE_RATE if args.trace else OPS_RATE
        count = max(MIN_TRACE_OPS if args.trace else MIN_OPS,
                    round(args.seconds * rate[args.workload]))
        ops = [wl.make(i) for i in range(count)]
        if args.trace:
            first, traced, tr, evk = run_traced(wl, ops)
            same = first.texts == traced.texts
            failed = failed_ops([first, traced])
            metrics = layer_metrics(tr, first, traced, evk)
            record["evk_cache"] = evk._asdict() if evk else None
        else:
            probe = SetupProbe(wl, ops[:SETUP_PAYLOAD_OPS], workdir)
            passes, same = run_untraced(wl, ops, probe, args.seconds)
            first = passes[0]
            failed = failed_ops(passes)
            p50, p90, ops_per_s, beyond = figures(passes, Pass.scaled_times)
            values = {
                "op_p50_ms": p50,
                "op_p90_ms": p90,
                "ops_per_s": ops_per_s,
                "setup_s": statistics.median(probe.samples),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            raw = figures(passes, lambda p: p.times)
            first_raw = figures(passes[:1], lambda p: p.times)
            record.update({
                "passes": len(passes),
                "ops_beyond_p90": beyond,
                "raw_wall": {"op_p50_ms": raw[0], "op_p90_ms": raw[1],
                             "ops_per_s": raw[2]},
                "first_pass_raw": {"op_p50_ms": first_raw[0], "op_p90_ms": first_raw[1]},
                "reference_ms": [1000.0 * statistics.median(p.refs) for p in passes],
                "setup_samples_s": probe.samples,
                "setup_raw_s": probe.raw})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    record.update({
        "ops": count, "failed": failed, "failed_frac": failed / count,
        "output_sha256": output_hash(first.texts),
        "repeat_outputs_match": same,
        "factor_lengths": length_summary(first.lengths),
        "loadavg_after": os.getloadavg(),
    })
    print(json.dumps({"record": record}))
    if not same:
        print("perfbench: repeated ops printed different outputs", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and same, "attempted": count,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
