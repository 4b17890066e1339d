"""Command-line surface: reproducible ensembles and figure-ready CSVs.

Subcommands: generate, count, table, spectrum, density, spacings, meanjth,
genus, degrees, walks, enumerate.  Exit codes: 0 success, 2 validation
error (an ensemble file with no records is one), 3 sampling budget
exhausted, 4 I/O error, 5 eigensolver failure.  A reader that closes
standard output early (``| head``) ends the command quietly with exit 0.

The array modules (``samplers``, ``spectra``, ``stats``) are imported by
the commands that use them, so ``enumerate``, ``count``, ``table``,
``genus`` and ``degrees`` run without importing numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import TYPE_CHECKING, Iterable, Iterator

from . import counting, topology
from .errors import BudgetExhaustedError, NoConvergenceError
from .mapcore import EnsembleRecord, Gluing, build_adjacency, read_records, write_records

if TYPE_CHECKING:
    from .spectra import Spectrum

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_SOLVER = 5


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _write_ensemble(path: str | None, gluings: Iterable[Gluing], seed: int) -> None:
    records = (
        EnsembleRecord(gluing=g, genus=topology.genus(g), seed=seed, sample_index=i)
        for i, g in enumerate(gluings)
    )
    with _open_out(path) as fh:
        write_records(fh, records)


def _read_ensemble(path: str) -> list[EnsembleRecord]:
    records = read_records(path)
    if not records:
        raise ValueError("ensemble file has no records")
    return records


def _spectra(records: list[EnsembleRecord]) -> Iterator[Spectrum]:
    from .spectra import eigenvalues_symmetric

    for rec in records:
        yield eigenvalues_symmetric(build_adjacency(rec.gluing))


def _write_table(path: str | None, columns: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """Rows of ints and ``_fmt`` strings as CSV with a header."""
    with _open_out(path) as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def cmd_generate(args) -> int:
    from . import samplers

    if args.samples < 1:
        raise ValueError("need --samples >= 1")
    if args.n < 1:
        raise ValueError("need --n >= 1")
    if args.budget < 1:
        raise ValueError("need --budget >= 1")
    if not 0 <= args.seed < 2**64:
        raise ValueError("need 0 <= --seed < 2**64")
    if args.sampler == "genus-filtered":
        if args.genus is None:
            raise ValueError("--genus is required with --sampler genus-filtered")
        gluings = samplers.sample_genus_filtered(
            args.n, args.genus, args.budget, samplers.RngStream(args.seed, 0), num_samples=args.samples
        ).gluings
    elif args.genus is not None:
        raise ValueError("--genus only applies to --sampler genus-filtered")
    else:
        draw = samplers.sample_uniform_gluing if args.sampler == "uniform" else samplers.sample_ncpp
        gluings = [draw(args.n, samplers.RngStream(args.seed, i)) for i in range(args.samples)]
    _write_ensemble(args.out, gluings, args.seed)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    stream = (
        counting.enumerate_ncpp(args.n) if args.kind == "ncpp" else counting.enumerate_all_gluings(args.n)
    )
    _write_ensemble(args.out, stream, 0)
    return EXIT_OK


def cmd_count(args) -> int:
    print(counting.harer_zagier(args.g, args.n))
    return EXIT_OK


def cmd_table(args) -> int:
    dist = counting.genus_distribution(args.n)
    parts = [f"{g}:{count}" for g, count in enumerate(dist)]
    parts.append(f"total:{sum(dist)}")
    print(" ".join(parts))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    records = _read_ensemble(args.ensemble)
    with _open_out(args.out) as fh:
        for spectrum in _spectra(records):
            fh.write(",".join(_fmt(v) for v in spectrum.values) + "\n")
    return EXIT_OK


def cmd_density(args) -> int:
    from . import stats

    bins = stats.DEFAULT_BINS if args.bins is None else args.bins
    hist = stats.empirical_density(_spectra(_read_ensemble(args.ensemble)), bins=bins)
    mckay = stats.mckay_density(hist.bin_centers)
    rows = (tuple(map(_fmt, row)) for row in zip(hist.bin_centers, hist.densities, mckay))
    _write_table(args.out, ("bin_center", "density", "mckay"), rows)
    return EXIT_OK


def cmd_spacings(args) -> int:
    from . import stats

    hist = stats.spacing_distribution(
        _spectra(_read_ensemble(args.ensemble)),
        bulk_fraction=(
            stats.DEFAULT_BULK_FRACTION if args.bulk_fraction is None else args.bulk_fraction
        ),
        bins=stats.DEFAULT_BINS if args.bins is None else args.bins,
    )
    surmise = stats.goe_surmise_density(hist.bin_centers)
    expo = stats.exponential_density(hist.bin_centers)
    rows = (tuple(map(_fmt, row)) for row in zip(hist.bin_centers, hist.densities, surmise, expo))
    _write_table(args.out, ("bin_center", "density", "goe_surmise", "exponential"), rows)
    return EXIT_OK


def cmd_meanjth(args) -> int:
    from . import stats

    means = stats.mean_jth_spacing(_spectra(_read_ensemble(args.ensemble)))
    rows = ((j, _fmt(value)) for j, value in enumerate(means, start=1))
    _write_table(args.out, ("j", "mean_spacing"), rows)
    return EXIT_OK


def cmd_genus(args) -> int:
    rows = ((rec.sample_index, rec.genus) for rec in _read_ensemble(args.ensemble))
    _write_table(args.out, ("sample_index", "genus"), rows)
    return EXIT_OK


def cmd_degrees(args) -> int:
    records = _read_ensemble(args.ensemble)
    totals: dict[int, int] = {}
    for rec in records:
        for degree, count in topology.degree_distribution(rec.gluing).items():
            totals[degree] = totals.get(degree, 0) + count
    rows = ((degree, _fmt(totals[degree] / len(records))) for degree in sorted(totals))
    _write_table(args.out, ("degree", "mean_count"), rows)
    return EXIT_OK


def cmd_walks(args) -> int:
    # rows first, so that a bad --rmax raises before the output is opened
    rows = [
        (rec.sample_index, *topology.closed_walk_counts(rec.gluing, args.rmax))
        for rec in _read_ensemble(args.ensemble)
    ]
    columns = ("sample_index", *(f"w{r}" for r in range(1, args.rmax + 1)))
    _write_table(args.out, columns, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onefacemaps",
        description="Random one-face maps, their topology, and eigenvalue statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample an ensemble to a JSON-lines file")
    p.add_argument("--n", type=int, required=True, help="number of map edges")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampler", choices=["uniform", "ncpp", "genus-filtered"], default="uniform")
    p.add_argument("--genus", type=int, default=None, help="target genus (genus-filtered only)")
    p.add_argument("--budget", type=int, default=10_000, help="max draws for genus filtering")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("enumerate", help="stream every gluing of a small map size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["all", "ncpp"], default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="print the exact number of genus-g maps with n edges")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="print the full genus distribution for n edges")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_table)

    # the seven commands that read an ensemble file
    reader = argparse.ArgumentParser(add_help=False)
    reader.add_argument("ensemble")
    reader.add_argument("--out", default=None)

    p = sub.add_parser("spectrum", parents=[reader], help="eigenvalues of each map, one CSV row per record")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("density", parents=[reader], help="pooled eigenvalue density with reference curve")
    p.add_argument("--bins", type=int, default=None)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("spacings", parents=[reader], help="scaled bulk spacing distribution with references")
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--bulk-fraction", type=float, default=None)
    p.set_defaults(func=cmd_spacings)

    p = sub.add_parser("meanjth", parents=[reader], help="mean j-th spacing as a function of j")
    p.set_defaults(func=cmd_meanjth)

    p = sub.add_parser("genus", parents=[reader], help="genus of each record")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("degrees", parents=[reader], help="mean vertex-degree counts over an ensemble")
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser("walks", parents=[reader], help="closed-walk counts per record")
    p.add_argument("--rmax", type=int, default=10)
    p.set_defaults(func=cmd_walks)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader has gone; the interpreter's exit flush of the unwritten
        # rest of stdout would raise again, so let it go to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:  # every validation error of the package is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
