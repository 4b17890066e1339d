"""One workload in one fresh interpreter: set up, run timed rounds, check
every output against the independent oracles, print one JSON line.

Run by ``run.py``; on its own:

    PYTHONPATH=src python3 perfbench/workloads.py --workload uniform-spectra \
        --seed 1 --seconds 20 --trace 0

``--setup-only`` stops after set-up, so that ``run.py`` can time set-up in
several fresh interpreters.  Every round of a workload performs the same
operations on inputs drawn from (seed, round index); the round is timed
as a whole and its outputs are checked after the clock stops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

T_IMPORT = time.perf_counter()
import onefacemaps  # noqa: E402  (import time is a measured quantity)

IMPORT_S = time.perf_counter() - T_IMPORT

import numpy as np  # noqa: E402
from onefacemaps import counting, mapcore, samplers, spectra, stats, topology  # noqa: E402

import oracles  # noqa: E402
from oracles import CheckError, require  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


class Round:
    """What one timed round did, and the outputs its checks need."""

    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.maps = 0  # maps carried through to a pooled statistic
        self.op_ms: list[float] = []
        self.out: dict = {}


def _op_failed(rnd: Round, what: str) -> None:
    rnd.failed += 1
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _check_pooled_spacings(spec_values, pooled, ks_surmise, ks_expo):
    own = np.concatenate([oracles.bulk_spacings(v) for v in spec_values])
    require(own.shape == np.shape(pooled) and bool(np.allclose(pooled, own, rtol=1e-12, atol=1e-12)),
            "pooled bulk spacings disagree with the spacings of the spectra")
    own_s, own_e = oracles.ks(own, oracles.surmise_cdf), oracles.ks(own, oracles.exponential_cdf)
    oracles.check_close(ks_surmise, own_s, "KS to the Wigner surmise")
    oracles.check_close(ks_expo, own_e, "KS to the exponential")
    return own_s, own_e


class UniformSpectra:
    """Uniform gluings at n=300: genus, adjacency and full spectrum per map;
    the ensemble round-trips through JSON lines; then the pooled density,
    the bulk spacings, L1 to McKay and KS to surmise and exponential."""

    N = 300
    MAPS = 100

    def __init__(self, seed: int, workdir: str, tracer: Tracer | None = None):
        self.seed = seed
        self.tracer = tracer
        self.path = os.path.join(workdir, "uniform.jsonl")

    def setup(self):
        g = samplers.sample_uniform_gluing(self.N, samplers.RngStream(self.seed, 2**40))
        spectra.eigenvalues_symmetric(mapcore.build_adjacency(g))

    def round(self, r: int) -> Round:
        rnd = Round()
        clock = time.perf_counter
        start = clock()
        maps = []
        for i in range(self.MAPS):
            rnd.attempted += 1
            t0 = clock()
            try:
                g = samplers.sample_uniform_gluing(self.N, samplers.RngStream(self.seed, r * self.MAPS + i))
                gen = topology.genus(g)
                spec = spectra.eigenvalues_symmetric(mapcore.build_adjacency(g))
            except Exception:
                _op_failed(rnd, f"uniform map {i} of round {r}")
                continue
            rnd.op_ms.append(1e3 * (clock() - t0))
            maps.append((g, gen, spec))
        rnd.attempted += 2
        try:
            records = [mapcore.EnsembleRecord(gluing=g, genus=gen, seed=self.seed, sample_index=r * self.MAPS + i)
                       for i, (g, gen, _) in enumerate(maps)]
            mapcore.write_records(self.path, records)
            back = mapcore.read_records(self.path)
        except Exception:
            _op_failed(rnd, "records round trip")
            back = None
        try:
            specs = [s for _, _, s in maps]
            hist = stats.empirical_density(specs)
            pooled = stats.pooled_bulk_spacings(specs)
            l1 = stats.l1_histogram_distance(hist, stats.mckay_density)
            ks_s = stats.ks_distance(pooled, stats.goe_surmise_cdf)
            ks_e = stats.ks_distance(pooled, stats.exponential_cdf)
            rnd.maps = len(specs)
        except Exception:
            _op_failed(rnd, "pooled statistics")
            hist = None
        rnd.wall = clock() - start
        rnd.out = {"maps": maps, "back": back}
        if hist is not None:
            rnd.out["stats"] = (hist, pooled, l1, ks_s, ks_e)
        return rnd

    def check(self, rnd: Round):
        maps, back = rnd.out["maps"], rnd.out["back"]
        for g, gen, spec in maps:
            oracles.check_record(gen, g.partner, self.N)
            oracles.check_spectrum(spec.values, g.partner)
        if back is not None:
            require(len(back) == len(maps), "records read back differ in number from those written")
            for rec, (g, gen, _) in zip(back, maps):
                require(rec.n == self.N and rec.gluing.partner == g.partner and rec.genus == gen,
                        "a record read back differs from the one written")
        if "stats" in rnd.out:
            hist, pooled, l1, ks_s, ks_e = rnd.out["stats"]
            values = [s.values for _, _, s in maps]
            oracles.check_density_matches(hist.bin_edges, hist.densities, np.concatenate(values))
            own_l1 = oracles.l1_to_mckay(hist.bin_edges, hist.densities)
            oracles.check_close(l1, own_l1, "L1 to McKay")
            require(own_l1 <= 0.06, f"L1 to McKay {own_l1:.4f} exceeds 0.06")
            own_s, own_e = _check_pooled_spacings(values, pooled, ks_s, ks_e)
            require(own_s < own_e, "uniform spacings are not closer to the surmise than to the exponential")


class Genus0Spectra:
    """Non-crossing gluings at n=500: genus, non-crossing and bipartite
    tests, vertex degrees and the full spectrum per map; then the pooled
    density and spacings."""

    N = 500
    MAPS = 10
    WARM_DRAWS = 50  # fill the sampler's per-block-size table before timing

    def __init__(self, seed: int, workdir: str, tracer: Tracer | None = None):
        self.seed = seed
        self.tracer = tracer

    def setup(self):
        for i in range(self.WARM_DRAWS):
            g = samplers.sample_ncpp(self.N, samplers.RngStream(self.seed, 2**40 + i))
        spectra.eigenvalues_symmetric(mapcore.build_adjacency(g))

    def round(self, r: int) -> Round:
        rnd = Round()
        clock = time.perf_counter
        start = clock()
        maps = []
        for i in range(self.MAPS):
            rnd.attempted += 1
            t0 = clock()
            try:
                g = samplers.sample_ncpp(self.N, samplers.RngStream(self.seed, r * self.MAPS + i))
                gen = topology.genus(g)
                nc = topology.is_noncrossing(g)
                a = mapcore.build_adjacency(g)
                bip = topology.is_bipartite(a)
                deg = topology.degree_distribution(g)
                spec = spectra.eigenvalues_symmetric(a)
            except Exception:
                _op_failed(rnd, f"non-crossing map {i} of round {r}")
                continue
            rnd.op_ms.append(1e3 * (clock() - t0))
            maps.append((g, gen, nc, bip, deg, spec))
        rnd.attempted += 1
        try:
            specs = [m[-1] for m in maps]
            hist = stats.empirical_density(specs)
            pooled = stats.pooled_bulk_spacings(specs)
            ks_s = stats.ks_distance(pooled, stats.goe_surmise_cdf)
            ks_e = stats.ks_distance(pooled, stats.exponential_cdf)
            rnd.maps = len(specs)
            rnd.out["stats"] = (hist, pooled, ks_s, ks_e)
        except Exception:
            _op_failed(rnd, "pooled statistics")
        rnd.wall = clock() - start
        rnd.out["maps"] = maps
        return rnd

    def check(self, rnd: Round):
        maps = rnd.out["maps"]
        for g, gen, nc, bip, deg, spec in maps:
            p = g.partner
            oracles.check_involution(p, self.N)
            require(gen == 0 and oracles.genus_of(p) == 0, f"non-crossing map has genus {gen}")
            require(nc is True and oracles.is_noncrossing_pairwise(p), "map is not non-crossing")
            require(bip is True and oracles.is_parity_bipartite(p), "map is not bipartite by parity")
            orbits = oracles.vertex_orbits(p)
            require(len(orbits) == self.N + 1 and sum(orbits) == 2 * self.N, "map does not have N+1 vertices of total degree 2N")
            own = {}
            for d in orbits:
                own[d] = own.get(d, 0) + 1
            require(dict(deg) == own, "degree distribution disagrees with the orbit lengths")
            oracles.check_spectrum(spec.values, p, symmetric=True)
        if "stats" in rnd.out:
            hist, pooled, ks_s, ks_e = rnd.out["stats"]
            values = [m[-1].values for m in maps]
            oracles.check_density_matches(hist.bin_edges, hist.densities, np.concatenate(values))
            own_s, own_e = _check_pooled_spacings(values, pooled, ks_s, ks_e)
            require(own_e < own_s, "genus-0 spacings are not closer to the exponential than to the surmise")


class Cli:
    """CLI subcommands as subprocesses, one at a time: the pipeline at
    n=50, plus the exact genus table and genus-filtered sampling at n=300."""

    N = 50
    SAMPLES = 50
    BIG = 200  # maps in the closed-stdout ensemble: its CSV is far beyond a pipe buffer
    EXACT_N = 300
    TARGET = 144  # exact acceptance rate 0.01725 at n=300, away from the mode 147
    KEEP = 40
    BUDGET = 100_000  # ~2,320 draws are needed on average; 40 times that is never reached

    def __init__(self, seed: int, workdir: str, tracer: Tracer | None = None):
        self.seed = seed
        self.dir = workdir
        self.tracer = tracer
        self.big = os.path.join(workdir, "big.jsonl")
        self.table = None

    def setup(self):
        # seed-independent input for the one operation that fails every time
        records = [
            mapcore.EnsembleRecord(gluing=g, genus=topology.genus(g), seed=0, sample_index=i)
            for i, g in ((i, samplers.sample_uniform_gluing(self.N, samplers.RngStream(0, i))) for i in range(self.BIG))
        ]
        mapcore.write_records(self.big, records)

    def _command(self, sub: str, args: list[str], rnd: Round, pipe_head: bool = False, span: str | None = None):
        """Run one CLI subcommand; returns (exit code, stdout, stderr).
        ``span`` names the command in a traced run (default: ``sub``)."""
        spans_path = os.path.join(self.dir, "spans.json")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "onefacemaps.cli", sub, *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans_path, sub, *args]
        rnd.attempted += 1
        t0 = time.perf_counter()
        if pipe_head:  # `onefacemaps spectrum big.jsonl | head -n 1`
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
                out = proc.stdout.readline()
                proc.stdout.close()
                err = proc.stderr.read()
                code = proc.wait(timeout=60)
        else:
            done = subprocess.run(cmd, capture_output=True, timeout=60)
            code, out, err = done.returncode, done.stdout, done.stderr
        t1 = time.perf_counter()
        rnd.op_ms.append(1e3 * (t1 - t0))
        if self.tracer is not None:
            idx = self.tracer.add(f"cli.{span or sub}", t0, t1)
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                self.tracer.merge(child["spans"], idx)
                self.tracer.filtered_kept += child["filtered_kept"]
                os.remove(spans_path)
        if code != 0:
            rnd.failed += 1
            print(f"operation failed: onefacemaps {sub} exited {code}: {err.decode(errors='replace').strip()}",
                  file=sys.stderr)
        return code, out.decode(), err.decode(errors="replace")

    def round(self, r: int) -> Round:
        rnd = Round()
        seed = (self.seed << 16) + r
        d = self.dir
        f = {k: os.path.join(d, f"{k}-{r}") for k in ("uni", "uni2", "g0", "eigs", "dens", "spac", "mj", "genus", "deg", "walks", "all5", "nc5", "filt")}
        n, s = str(self.N), str(self.SAMPLES)
        g_count = seed % (self.N // 2 + 1)
        codes = {}
        start = time.perf_counter()
        for key, kind in (("uni", "uniform"), ("uni2", "uniform"), ("g0", "ncpp")):
            codes[key] = self._command("generate", ["--sampler", kind, "--n", n, "--samples", s, "--seed", str(seed), "--out", f[key]], rnd)[0]
        codes["eigs"] = self._command("spectrum", [f["uni"], "--out", f["eigs"]], rnd)[0]
        codes["dens"] = self._command("density", [f["uni"], "--out", f["dens"]], rnd)[0]
        codes["spac"] = self._command("spacings", [f["g0"], "--out", f["spac"]], rnd)[0]
        codes["mj"] = self._command("meanjth", [f["g0"], "--out", f["mj"]], rnd)[0]
        codes["genus"] = self._command("genus", [f["uni"], "--out", f["genus"]], rnd)[0]
        codes["deg"] = self._command("degrees", [f["g0"], "--out", f["deg"]], rnd)[0]
        codes["walks"] = self._command("walks", [f["uni"], "--rmax", "6", "--out", f["walks"]], rnd)[0]
        codes["count"], count_out, _ = self._command("count", [str(g_count), n], rnd)
        codes["table"], table_out, _ = self._command("table", [n], rnd)
        codes["table300"], table300_out, _ = self._command("table", [str(self.EXACT_N)], rnd, span="table_n300")
        codes["filt"] = self._command(
            "generate", ["--sampler", "genus-filtered", "--n", str(self.EXACT_N), "--genus", str(self.TARGET),
                         "--samples", str(self.KEEP), "--budget", str(self.BUDGET), "--seed", str(seed), "--out", f["filt"]],
            rnd, span="generate_filtered")[0]
        codes["all5"] = self._command("enumerate", ["--n", "5", "--out", f["all5"]], rnd)[0]
        codes["nc5"] = self._command("enumerate", ["--n", "5", "--kind", "ncpp", "--out", f["nc5"]], rnd)[0]
        pipe_code, pipe_line, pipe_err = self._command("spectrum", [self.big], rnd, pipe_head=True)
        rnd.wall = time.perf_counter() - start
        rnd.maps = 3 * self.SAMPLES  # density, spacings and meanjth pool their ensembles
        rnd.out = dict(files=f, codes=codes, seed=seed, g_count=g_count, count_out=count_out,
                       table_out=table_out, table300_out=table300_out, pipe=(pipe_code, pipe_line, pipe_err))
        return rnd

    def _records(self, path, n, seed=None):
        recs = [json.loads(line) for line in _read(path).splitlines() if line.strip()]
        for i, rec in enumerate(recs):
            require(rec["n"] == n and rec["sample_index"] == i, f"{os.path.basename(path)}: bad record {i}")
            if seed is not None:
                require(rec["seed"] == seed, f"{os.path.basename(path)}: record {i} has the wrong seed")
            oracles.check_record(rec["genus"], rec["partner"], n)
        return recs

    @staticmethod
    def _csv(path):
        lines = _read(path).splitlines()
        return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]

    def _check_histogram_csv(self, path, references):
        header, rows = self._csv(path)
        cols = np.array(rows).T
        centers, dens = cols[0], cols[1]
        width = (centers[-1] - centers[0]) / (len(centers) - 1)
        require(bool(np.allclose(np.diff(centers), width, rtol=0, atol=1e-9)), f"{path}: bins are not uniform")
        mass = float(dens.sum() * width)
        require(abs(mass - 1.0) <= oracles.DENSITY_TOL, f"{os.path.basename(path)}: density integrates to {mass!r}, not 1")
        for col, ref in zip(cols[2:], references):
            require(bool(np.allclose(col, ref(centers), rtol=1e-9, atol=1e-10)), f"{os.path.basename(path)}: reference curve disagrees")

    def check(self, rnd: Round):
        o, f, N = rnd.out, rnd.out["files"], self.N
        for key, code in o["codes"].items():
            require(code == 0, f"command for {key} exited {code}")
        if self.table is None:
            self.table = oracles.harer_zagier_table(self.EXACT_N)
        require(_read(f["uni"]) == _read(f["uni2"]), "repeated generate with one seed is not byte-identical")
        uni = self._records(f["uni"], N, o["seed"])
        g0 = self._records(f["g0"], N, o["seed"])
        require(len(uni) == self.SAMPLES and len(g0) == self.SAMPLES, "generate wrote the wrong number of records")
        for rec in g0:
            require(rec["genus"] == 0 and oracles.is_noncrossing_pairwise(rec["partner"]), "ncpp record is not non-crossing")

        rows = [[float(x) for x in line.split(",")] for line in _read(f["eigs"]).splitlines()]
        require(len(rows) == len(uni), "spectrum CSV has the wrong number of rows")
        for row, rec in zip(rows, uni):
            oracles.check_spectrum(row, rec["partner"])
        self._check_histogram_csv(f["dens"], [oracles.mckay])
        self._check_histogram_csv(f["spac"], [oracles.surmise_pdf, oracles.exponential_pdf])

        _, mj = self._csv(f["mj"])
        require([int(r[0]) for r in mj] == list(range(1, 2 * N)), "meanjth CSV does not list j = 1..2N-1")
        total = sum(r[1] for r in mj)
        require(min(r[1] for r in mj) >= 0.0 and abs(total - 6.0) <= 1e-8,
                f"mean j-th spacings of genus-0 maps sum to {total!r}, not 3 - (-3)")

        _, gen = self._csv(f["genus"])
        require([(int(a), int(b)) for a, b in gen] == [(i, oracles.genus_of(rec["partner"])) for i, rec in enumerate(uni)],
                "genus CSV disagrees with the orbit count")

        own: dict[int, int] = {}
        for rec in g0:
            for d in oracles.vertex_orbits(rec["partner"]):
                own[d] = own.get(d, 0) + 1
        _, deg = self._csv(f["deg"])
        require(sorted(own) == [int(r[0]) for r in deg], "degrees CSV lists the wrong degrees")
        for d, mean in deg:
            require(abs(mean - own[int(d)] / len(g0)) <= 1e-9 * max(1.0, mean), f"mean count of degree {int(d)} is wrong")

        _, walks = self._csv(f["walks"])
        for row, rec in zip(walks, uni):
            trace, frob = oracles.adjacency_trace_and_frobenius(rec["partner"])
            require(row[1] == trace and row[2] == frob, "closed-walk counts w1, w2 disagree with trace(A), ||A||_F^2")

        require(int(o["count_out"]) == self.table[N][o["g_count"]], "count disagrees with the recurrence")
        for n_table, out in ((N, o["table_out"]), (self.EXACT_N, o["table300_out"])):
            want = [f"{g}:{c}" for g, c in enumerate(self.table[n_table])]
            want.append(f"total:{oracles.double_factorial_odd(n_table)}")
            require(out.split() == want, f"table {n_table} disagrees with the recurrence")

        kept = self._records(f["filt"], self.EXACT_N, o["seed"])
        require(len(kept) == self.KEEP and len({tuple(r["partner"]) for r in kept}) == self.KEEP,
                f"genus-filtered generate wrote {len(kept)} records, want {self.KEEP} distinct")
        require(all(r["genus"] == self.TARGET for r in kept), "a genus-filtered map does not have the target genus")

        for key, number, noncrossing in (("all5", 945, False), ("nc5", 42, True)):
            recs = self._records(f[key], 5)
            require(len(recs) == number and len({tuple(r["partner"]) for r in recs}) == number,
                    f"enumerate --n 5 gave {len(recs)} records, want {number} distinct")
            if noncrossing:
                require(all(oracles.is_noncrossing_pairwise(r["partner"]) for r in recs), "enumerate ncpp gave a crossing gluing")

        # the closed-stdout command still printed a valid first spectrum row
        _, line, _ = o["pipe"]
        require(bool(line.strip()), "the closed-stdout command printed nothing")
        first = json.loads(_read(self.big).splitlines()[0])
        oracles.check_spectrum([float(x) for x in line.split(",")], first["partner"])


WORKLOADS = {
    "uniform-spectra": UniformSpectra,
    "genus0-spectra": Genus0Spectra,
    "cli": Cli,
}


def blas_threads() -> int | None:
    """Thread count the OpenBLAS bundled with numpy reports, or None if it
    cannot be asked (another BLAS, or no such library)."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def provenance() -> dict:
    import platform

    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "onefacemaps": getattr(onefacemaps, "__version__", None),
        "blas": blas,
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
    }


MIN_ROUNDS = 2  # a cli round takes 24-30 s; one round alone is one sample of the machine's speed


def run_rounds(workload, seconds: float, errors: list[str], rounds: int | None = None) -> list[Round]:
    """Whole rounds until ``seconds`` of timed work and at least
    ``MIN_ROUNDS`` rounds (or exactly ``rounds``).

    Each round is checked as soon as its clock stops, and its outputs are
    dropped, so memory does not grow with the number of rounds.
    """
    done = []
    timed = 0.0
    while (timed < seconds or len(done) < MIN_ROUNDS) if rounds is None else len(done) < rounds:
        rnd = workload.round(len(done))
        timed += rnd.wall
        try:
            workload.check(rnd)
        except (CheckError, ValueError, KeyError, IndexError, OSError) as exc:
            # an output that cannot even be read back is a wrong output
            errors.append(f"round {len(done)}: {type(exc).__name__}: {exc}")
        rnd.out = {}
        done.append(rnd)
    return done


def summarize(done: list[Round]) -> dict:
    """End-to-end figures of a run: totals over all rounds, so that each
    figure averages over the whole timed phase."""
    timed = sum(x.wall for x in done)
    ops = [ms for x in done for ms in x.op_ms]
    return {
        "wall_s": timed / len(done),
        "maps_per_s": sum(x.maps for x in done) / timed,
        "op_mean_ms": statistics.mean(ops) if ops else 0.0,
        "rounds": len(done),
        "ops": len(ops),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True, help="scratch directory for the workload's files")
    ap.add_argument("--spans", default=None, help="write the traced run's spans here (JSON lines)")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.workdir, tracer)
    workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "import_s": IMPORT_S}))
        return 0

    errors: list[str] = []
    if tracer is not None:
        tracer.install()
    done = run_rounds(workload, args.seconds, errors)
    result = {"ready": ready, "import_s": IMPORT_S}
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        tracer.uninstall()
        workload.tracer = None  # CLI commands of the untraced pass run without the shim
        # the first half of the traced rounds again, untraced, for the overhead
        untraced = run_rounds(workload, args.seconds, errors, rounds=max(1, len(done) // 2))
        overhead = summarize(done[: len(untraced)])["wall_s"] - summarize(untraced)["wall_s"]
        result["layers"] = layer_metrics(tracer.spans, tracer.filtered_kept, IMPORT_S, overhead)
        if args.spans:
            tracer.dump(args.spans)
    result["e2e"] = summarize(done)
    result["e2e"]["peak_rss_mb"] = usage / 1024.0
    result["attempted"] = sum(x.attempted for x in done)
    result["failed"] = sum(x.failed for x in done)
    try:
        oracles.selftest()
    except CheckError as exc:
        errors.append(str(exc))
    result["correct"] = not errors
    result["errors"] = errors
    result["provenance"] = provenance()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
