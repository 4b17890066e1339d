"""Command-line surface: reproducible ensembles and figure-ready CSVs.

Subcommands: generate, count, table, spectrum, density, spacings, meanjth,
genus, degrees, walks, enumerate.  Every command returns its output as
pieces of text, and ``main`` alone writes them and fails.  ``_write`` opens
``--out``, or stdout, once the first piece exists, so a command that fails
before it leaves an existing file as it was.  Exit codes: 0 success, 2
validation error (an ensemble file with no records is one), 3 sampling
budget exhausted, 4 I/O error (a standard output already closed when the
command starts is one, unless it writes to ``--out``), 5 eigensolver
failure.  A reader that closes standard output early (``| head``) ends the
command quietly with exit 0.

The array modules (``samplers``, ``spectra``, ``stats``) are imported by
the commands that use them, so ``enumerate``, ``count``, ``table``,
``genus`` and ``degrees`` run without importing numpy.  ``generate`` and
``enumerate`` write each map as it is drawn and keep none.  Every command
that reads an ensemble but ``spectrum`` parses it as it goes and keeps
only running totals (``stats``) or its output text (``_table``).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import TYPE_CHECKING, Iterable, Iterator

from . import counting, topology
from .errors import BudgetExhaustedError, NoConvergenceError
from .mapcore import _SEED_MAX, EnsembleRecord, Gluing, _blocks, _exact_int, _record_line, _records

if TYPE_CHECKING:
    from .spectra import Spectrum

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_SOLVER = 5


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write(path: str | None, text: Iterable[str]) -> None:
    """Write the pieces of ``text`` to the file at ``path``, or to stdout where
    ``path`` is None or ``-``.  The output opens once the first piece exists, so
    a command that fails before it leaves an existing file as it was."""
    text = iter(text)
    first = next(text, "")
    with contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(
        path, "w", encoding="utf-8", newline="\n"
    ) as fh:
        fh.write(first)
        fh.writelines(text)
        fh.flush()  # a closed stdout surfaces here, not at interpreter exit


def _record_lines(gluings: Iterable[Gluing], seed: int) -> Iterator[str]:
    """Each gluing as an ensemble record line, drawn or enumerated as it goes out."""
    for i, g in enumerate(gluings):
        rec = EnsembleRecord(gluing=g, genus=topology.genus(g), seed=seed, sample_index=i)
        yield _record_line(rec) + "\n"


def _ensemble(path: str) -> Iterator[EnsembleRecord]:
    """The records of the ensemble file at ``path``, parsed one line at a
    time, then a ValueError if there were none.  The commands keep only
    totals or output text from it, and their first text exists once the
    whole file has parsed, so a bad line still leaves the output empty."""
    count = 0
    for count, rec in enumerate(_records(path), start=1):
        yield rec
    if not count:
        raise ValueError("ensemble file has no records")


def _spectra(records: Iterable[EnsembleRecord]) -> Iterator[Spectrum]:
    from .spectra import spectrum

    # parse a block of lines, then solve it
    return (spectrum(rec.gluing) for block in _blocks(records) for rec in block)


def _table(columns: tuple[str, ...], rows: Iterable[tuple]) -> Iterator[str]:
    """Rows of ints and ``_fmt`` strings as CSV with a header.  The rows wait as ASCII text
    (a tuple or an io.StringIO write holds 64-100 B a row), then go out in 64 KiB str slices."""
    line = ",".join(["%s"] * len(columns)) + "\n"
    table = bytearray((line % columns).encode())
    for row in rows:
        table += (line % row).encode()
    for i in range(0, len(table), 1 << 16):
        yield table[i : i + (1 << 16)].decode("ascii")


def cmd_generate(args) -> Iterable[str]:
    from . import samplers

    _exact_int(args.samples, "--samples", 1)
    _exact_int(args.n, "--n", 1)
    _exact_int(args.seed, "--seed", 0, _SEED_MAX)
    if args.sampler == "genus-filtered":
        if args.genus is None:
            raise ValueError("--genus is required with --sampler genus-filtered")
        budget = 10_000 if args.budget is None else _exact_int(args.budget, "--budget", 1)
        _exact_int(args.genus, "--genus", 0, args.n // 2)
        if budget < args.samples:
            raise BudgetExhaustedError(f"--budget {budget} cannot keep --samples {args.samples} "
                                       "maps: a draw keeps at most one map", gluings=(), attempts=0)
        gluings = samplers.sample_genus_filtered(
            args.n, args.genus, budget, samplers.RngStream(args.seed, 0), num_samples=args.samples
        ).gluings
    elif args.genus is not None or args.budget is not None:
        flag = "--genus" if args.genus is not None else "--budget"
        raise ValueError(f"{flag} only applies to --sampler genus-filtered")
    else:
        draw = samplers.sample_uniform_gluing if args.sampler == "uniform" else samplers.sample_ncpp
        gluings = (draw(args.n, samplers.RngStream(args.seed, i)) for i in range(args.samples))
    return _record_lines(gluings, args.seed)


def cmd_enumerate(args) -> Iterable[str]:
    ncpp = args.kind == "ncpp"
    _exact_int(args.n, "--n", 1, counting.ENUMERATE_NCPP_MAX if ncpp else counting.ENUMERATE_ALL_MAX)
    stream = counting.enumerate_ncpp(args.n) if ncpp else counting.enumerate_all_gluings(args.n)
    return _record_lines(stream, 0)


def cmd_count(args) -> Iterable[str]:
    return [f"{counting.harer_zagier(args.g, args.n)}\n"]


def cmd_table(args) -> Iterable[str]:
    dist = counting.genus_distribution(args.n)
    parts = [f"{g}:{count}" for g, count in enumerate(dist)]
    parts.append(f"total:{sum(dist)}")
    return [" ".join(parts) + "\n"]


def cmd_spectrum(args) -> Iterable[str]:
    records = list(_ensemble(args.ensemble))  # it writes as it solves, so parse the file first
    return (",".join(_fmt(v) for v in spectrum.values) + "\n" for spectrum in _spectra(records))


def cmd_density(args) -> Iterable[str]:
    from . import stats

    bins = stats.DEFAULT_BINS if args.bins is None else _exact_int(args.bins, "--bins", 1)
    hist = stats.empirical_density(_spectra(_ensemble(args.ensemble)), bins=bins)
    mckay = stats.mckay_density(hist.bin_centers)
    rows = (tuple(map(_fmt, row)) for row in zip(hist.bin_centers, hist.densities, mckay))
    return _table(("bin_center", "density", "mckay"), rows)


def cmd_spacings(args) -> Iterable[str]:
    from . import stats

    bins = stats.DEFAULT_BINS if args.bins is None else _exact_int(args.bins, "--bins", 1)
    fraction = stats._bulk_fraction(
        stats.DEFAULT_BULK_FRACTION if args.bulk_fraction is None else args.bulk_fraction,
        "--bulk-fraction",
    )
    hist = stats.spacing_distribution(_spectra(_ensemble(args.ensemble)), fraction, bins)
    surmise = stats.goe_surmise_density(hist.bin_centers)
    expo = stats.exponential_density(hist.bin_centers)
    rows = (tuple(map(_fmt, row)) for row in zip(hist.bin_centers, hist.densities, surmise, expo))
    return _table(("bin_center", "density", "goe_surmise", "exponential"), rows)


def cmd_meanjth(args) -> Iterable[str]:
    from . import stats

    means = stats.mean_jth_spacing(_spectra(_ensemble(args.ensemble)))
    rows = ((j, _fmt(value)) for j, value in enumerate(means, start=1))
    return _table(("j", "mean_spacing"), rows)


def cmd_genus(args) -> Iterable[str]:
    rows = ((rec.sample_index, rec.genus) for rec in _ensemble(args.ensemble))
    return _table(("sample_index", "genus"), rows)


def cmd_degrees(args) -> Iterable[str]:
    totals: dict[int, int] = {}
    for records, rec in enumerate(_ensemble(args.ensemble), start=1):
        for degree, count in topology.degree_distribution(rec.gluing).items():
            totals[degree] = totals.get(degree, 0) + count
    rows = ((degree, _fmt(totals[degree] / records)) for degree in sorted(totals))
    return _table(("degree", "mean_count"), rows)


def cmd_walks(args) -> Iterable[str]:
    rmax = _exact_int(args.rmax, "--rmax", 1, topology.MAX_WALK_LENGTH)
    rows = (
        (rec.sample_index, *topology.closed_walk_counts(rec.gluing, rmax))
        for rec in _ensemble(args.ensemble)
    )
    columns = ("sample_index", *(f"w{r}" for r in range(1, rmax + 1)))
    return _table(columns, rows)


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
    p.add_argument("--budget", type=int, default=None,
                   help="max draws for genus filtering (genus-filtered only, default 10000)")
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


# the exit code of each failure that is not the reader's closing of stdout
_EXIT_CODES = {
    BudgetExhaustedError: EXIT_BUDGET,
    NoConvergenceError: EXIT_SOLVER,
    ValueError: EXIT_VALIDATION,  # every validation error of the package is one
    OSError: EXIT_IO,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    try:
        if sys.stdout is None and out in (None, "-"):  # fd 1 was closed when the process started
            raise OSError("standard output is closed")
        _write(out, args.func(args))
        return EXIT_OK
    except BrokenPipeError:
        # The reader has gone; the interpreter's exit flush of the unwritten
        # rest of stdout would raise again, so let it go to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
