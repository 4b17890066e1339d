import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onefacemaps
from onefacemaps import cli, read_records
from onefacemaps.stats import mckay_density


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def test_generate_ncpp_records(tmp_path):
    out = tmp_path / "ens.jsonl"
    assert run("generate", "--sampler", "ncpp", "--n", 40, "--samples", 6, "--seed", 7, "--out", out) == 0
    records = read_records(out)
    assert len(records) == 6
    assert [r.sample_index for r in records] == list(range(6))
    assert all(r.genus == 0 for r in records)
    assert all(r.seed == 7 for r in records)
    assert all(r.n == 40 for r in records)


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert run("generate", "--sampler", "uniform", "--n", 30, "--samples", 10,
                   "--seed", 123, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_genus_filtered(tmp_path):
    out = tmp_path / "filtered.jsonl"
    assert run("generate", "--sampler", "genus-filtered", "--n", 4, "--samples", 5,
               "--genus", 0, "--budget", 1000, "--seed", 3, "--out", out) == 0
    records = read_records(out)
    assert len(records) == 5
    assert all(r.genus == 0 for r in records)


def test_generate_budget_exhausted_exit_code(tmp_path):
    out = tmp_path / "never.jsonl"
    code = run("generate", "--sampler", "genus-filtered", "--n", 50, "--samples", 1,
               "--genus", 0, "--budget", 50, "--seed", 3, "--out", out)
    assert code == 3


def test_generate_validation_exit_code(tmp_path):
    code = run("generate", "--sampler", "genus-filtered", "--n", 10, "--samples", 1,
               "--seed", 0, "--out", tmp_path / "x.jsonl")
    assert code == 2  # --genus missing
    code = run("generate", "--sampler", "uniform", "--n", 10, "--samples", 1,
               "--genus", 2, "--seed", 0, "--out", tmp_path / "y.jsonl")
    assert code == 2  # --genus without genus-filtered
    code = run("generate", "--n", 10, "--samples", 0, "--seed", 0, "--out", tmp_path / "z.jsonl")
    assert code == 2  # no samples
    code = run("generate", "--n", 0, "--samples", 1, "--seed", 0, "--out", tmp_path / "z.jsonl")
    assert code == 2  # no edges


def test_count_and_table(capsys):
    assert run("count", 1, 2) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run("count", 0, 10) == 0
    assert capsys.readouterr().out.strip() == "16796"
    assert run("table", 3) == 0
    assert capsys.readouterr().out.strip() == "0:5 1:10 total:15"


def test_count_out_of_range_exit_code():
    assert run("count", 3, 4) == 2


def test_enumerate_ncpp(tmp_path):
    out = tmp_path / "all.jsonl"
    assert run("enumerate", "--n", 4, "--kind", "ncpp", "--out", out) == 0
    records = read_records(out)
    assert len(records) == 14
    assert all(r.genus == 0 for r in records)


def test_enumerate_all(tmp_path):
    out = tmp_path / "all.jsonl"
    assert run("enumerate", "--n", 3, "--out", out) == 0
    assert len(read_records(out)) == 15


@pytest.mark.parametrize("args", [["--n", 9], ["--n", 0], ["--n", 15, "--kind", "ncpp"]])
def test_enumerate_out_of_range_keeps_existing_out(args, tmp_path, capsys):
    out = tmp_path / "keep.jsonl"
    out.write_bytes(b"existing bytes\n")
    assert run("enumerate", *args, "--out", out) == 2
    assert out.read_bytes() == b"existing bytes\n"
    assert capsys.readouterr().out == ""


@pytest.fixture()
def small_ensemble(tmp_path):
    path = tmp_path / "ens.jsonl"
    assert run("generate", "--sampler", "uniform", "--n", 25, "--samples", 8,
               "--seed", 11, "--out", path) == 0
    return path


def test_spectrum_rows(small_ensemble, tmp_path):
    out = tmp_path / "spec.csv"
    assert run("spectrum", small_ensemble, "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 8
    values = [float(v) for v in rows[0].split(",")]
    assert len(values) == 50
    assert values == sorted(values)
    assert abs(values[-1] - 3.0) < 1e-8


def test_density_csv_with_reference_column(small_ensemble, tmp_path):
    out = tmp_path / "density.csv"
    assert run("density", small_ensemble, "--bins", 40, "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "bin_center,density,mckay"
    assert len(rows) == 41
    centers, densities, refs = zip(*(map(float, r.split(",")) for r in rows[1:]))
    assert np.allclose(refs, mckay_density(np.array(centers)), atol=1e-9)
    widths = 6.0 / 40
    assert abs(sum(d * widths for d in densities) - 1.0) < 1e-9


def test_spacings_csv(small_ensemble, tmp_path):
    out = tmp_path / "spacings.csv"
    assert run("spacings", small_ensemble, "--bins", 30, "--bulk-fraction", 0.9,
               "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "bin_center,density,goe_surmise,exponential"
    assert len(rows) == 31
    assert run("spacings", small_ensemble, "--bulk-fraction", 1.5, "--out", out) == 2


def test_meanjth_csv(small_ensemble, tmp_path):
    out = tmp_path / "meanjth.csv"
    assert run("meanjth", small_ensemble, "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "j,mean_spacing"
    assert len(rows) == 50  # header + 2n-1 spacings
    assert rows[1].startswith("1,")


def test_genus_csv(small_ensemble, tmp_path):
    out = tmp_path / "genus.csv"
    assert run("genus", small_ensemble, "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "sample_index,genus"
    assert len(rows) == 9


def test_degrees_csv(small_ensemble, tmp_path):
    out = tmp_path / "degrees.csv"
    assert run("degrees", small_ensemble, "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "degree,mean_count"
    assert len(rows) > 1


@pytest.mark.parametrize("command", ["genus", "degrees"])
def test_table_commands_have_no_format_option(command, small_ensemble, capsys):
    with pytest.raises(SystemExit) as info:
        run(command, small_ensemble, "--format", "csv")
    assert info.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_walks_csv(small_ensemble, tmp_path):
    out = tmp_path / "walks.csv"
    assert run("walks", small_ensemble, "--rmax", 5, "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "sample_index,w1,w2,w3,w4,w5"
    assert len(rows) == 9
    first = rows[1].split(",")
    assert first[1] == "0"  # w1 = 0, zero diagonal


@pytest.mark.parametrize("rmax", [0, 21])
def test_walks_out_of_range_rmax_writes_nothing(rmax, small_ensemble, tmp_path, capsys):
    assert run("walks", small_ensemble, "--rmax", rmax) == 2
    assert capsys.readouterr().out == ""
    out = tmp_path / "walks.csv"
    assert run("walks", small_ensemble, "--rmax", rmax, "--out", out) == 2
    assert not out.exists()


def test_statistics_outputs_deterministic(small_ensemble, tmp_path):
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / f"density_{tag}.csv"
        assert run("density", small_ensemble, "--out", out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_missing_input_file_is_io_error(tmp_path):
    assert run("spectrum", tmp_path / "nope.jsonl", "--out", tmp_path / "o.csv") == 4


def test_corrupt_ensemble_is_validation_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"n": 2, "partner": [1, 2')
    assert run("genus", bad, "--out", tmp_path / "o.csv") == 2


def test_record_field_that_is_not_an_integer_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"n":2,"partner":[2,1,4,3],"genus":0,"seed":0,"sample_index":0}\n'
                   '{"n":2,"partner":"2143","genus":0,"seed":0,"sample_index":1}\n')
    assert run("genus", bad, "--out", tmp_path / "o.csv") == 2
    assert "line 2" in capsys.readouterr().err


def test_wrong_stored_genus_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"n":2,"partner":[3,4,1,2],"genus":0,"seed":0,"sample_index":0}\n')
    out = tmp_path / "o.csv"
    assert run("spectrum", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert "line 1: bad ensemble record: genus is 0, its gluing has genus 1" in err
    assert not out.exists()


def _fresh_interpreter(*args, **popen):
    src = str(Path(onefacemaps.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    # a warning fails the child, as filterwarnings fails a test in this process
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p),
           "PYTHONWARNINGS": "error"}
    return subprocess.Popen([sys.executable, *args], env=env, **popen)


def test_closed_stdout_ends_quietly(tmp_path):
    ensemble = tmp_path / "big.jsonl"
    # 200 maps of 100 eigenvalues each: far more CSV than a pipe buffer holds
    assert run("generate", "--sampler", "uniform", "--n", 50, "--samples", 200,
               "--seed", 0, "--out", ensemble) == 0
    with _fresh_interpreter("-m", "onefacemaps.cli", "spectrum", str(ensemble),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert len(first.split(b",")) == 100
    assert err == b""
    assert code == 0


def test_bipartite_spectra_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    from onefacemaps import spectra

    if spectra._openblas() is None:
        pytest.skip("no bundled OpenBLAS with dsyevd, dgesdd and thread calls found beside numpy")
    ensemble = tmp_path / "nc.jsonl"
    # unpinned, 3 of these 20 rows differ in their last digit between one
    # and two threads; at n=200 and n=250 no row did, so they would not show it
    assert run("generate", "--sampler", "ncpp", "--n", 300, "--samples", 20,
               "--seed", 5, "--out", ensemble) == 0
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / f"spectrum{threads}.csv"
        with _fresh_interpreter("-m", "onefacemaps.cli", "spectrum", str(ensemble),
                                "--out", str(out)) as proc:
            assert proc.wait(timeout=120) == 0
        outputs.append(out.read_bytes())
    assert outputs[0].count(b"\n") == 20  # one row per map
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, k",
    [(["enumerate", "--n", "3"], 15),
     (["generate", "--sampler", "ncpp", "--n", "20", "--samples", "6", "--seed", "1"], 6)],
    ids=["enumerate", "generate"],
)
def test_each_written_record_walks_its_gluing_once(argv, k, monkeypatch, tmp_path):
    from onefacemaps import mapcore

    walks = []
    walk = mapcore.vertex_cycles

    def counted(g):
        walks.append(g)
        return walk(g)

    monkeypatch.setattr(mapcore, "vertex_cycles", counted)
    out = tmp_path / "ens.jsonl"
    assert run(*argv, "--out", out) == 0
    assert len(walks) == k
    monkeypatch.undo()
    assert len(read_records(out)) == k


def test_degrees_walks_each_record_once(monkeypatch, tmp_path):
    from onefacemaps import mapcore

    ens = tmp_path / "ens.jsonl"
    assert run("generate", "--n", 30, "--samples", 5, "--seed", 2, "--out", ens) == 0
    walks = []
    walk = mapcore.vertex_cycles

    def counted(g):
        walks.append(g)
        return walk(g)

    monkeypatch.setattr(mapcore, "vertex_cycles", counted)
    assert run("degrees", ens, "--out", tmp_path / "degrees.csv") == 0
    assert len(walks) == 5


# every subcommand on a small ensemble: (output name, argv after the command)
_EVERY_COMMAND = [
    ("uni", ["generate", "--n", "10", "--samples", "4", "--seed", "5", "--out", "{d}/uni"]),
    ("nc", ["generate", "--sampler", "ncpp", "--n", "10", "--samples", "4", "--seed", "5",
            "--out", "{d}/nc"]),
    ("filt", ["generate", "--sampler", "genus-filtered", "--n", "4", "--genus", "1",
              "--samples", "3", "--seed", "5", "--out", "{d}/filt"]),
    ("all", ["enumerate", "--n", "3", "--out", "{d}/all"]),
    ("count", ["count", "1", "4"]),
    ("table", ["table", "5"]),
    ("spectrum", ["spectrum", "{d}/uni", "--out", "{d}/spectrum"]),
    ("density", ["density", "{d}/uni", "--bins", "20", "--out", "{d}/density"]),
    ("spacings", ["spacings", "{d}/nc", "--bins", "20", "--out", "{d}/spacings"]),
    ("meanjth", ["meanjth", "{d}/nc", "--out", "{d}/meanjth"]),
    ("genus", ["genus", "{d}/filt", "--out", "{d}/genus"]),
    ("degrees", ["degrees", "{d}/nc", "--out", "{d}/degrees"]),
    ("walks", ["walks", "{d}/uni", "--rmax", "20", "--out", "{d}/walks"]),
]

# Runs the commands of argv[3] in the directory argv[1], with the module
# argv[2] unimportable unless argv[2] is ""; commands that print go to a file
# named after them.  Prints each exit code, then the argv[4] modules loaded.
_RUN_COMMANDS = """
import contextlib, json, sys
if sys.argv[2]:
    sys.modules[sys.argv[2]] = None
from onefacemaps import cli
d = sys.argv[1]
for name, argv in json.loads(sys.argv[3]):
    with open(f"{d}/{name}.stdout", "w") as fh, contextlib.redirect_stdout(fh):
        code = cli.main([a.format(d=d) for a in argv])
    print(name, code)
print(sorted(m for m in sys.modules if m.split(".")[0] == sys.argv[4] and sys.modules[m]))
"""


def _run_commands(tmp_path, blocked: str, commands, inputs=()) -> dict[str, bytes]:
    """The files each command wrote, with ``blocked`` unimportable and as
    usual, after asserting every command exits 0 and neither run loads
    ``blocked``.  Files named in ``inputs`` are copied into both runs."""
    outputs = {}
    for mode in ("block", "normal"):
        d = tmp_path / mode
        d.mkdir()
        for path in inputs:
            (d / path.name).write_bytes(path.read_bytes())
        with _fresh_interpreter("-c", _RUN_COMMANDS, str(d), blocked if mode == "block" else "",
                                json.dumps(commands), blocked, stdout=subprocess.PIPE) as proc:
            out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        *codes, loaded = out.decode().splitlines()
        assert codes == [f"{name} 0" for name, _ in commands]
        assert loaded == "[]"  # the package loads no such module, blocked or not
        outputs[mode] = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    assert outputs["block"] == outputs["normal"]
    return outputs["normal"]


def test_every_command_runs_without_scipy(tmp_path):
    outputs = _run_commands(tmp_path, "scipy", _EVERY_COMMAND)
    assert len(outputs) == 2 * len(_EVERY_COMMAND) - 2  # count, table: stdout only


# the commands that need neither arrays nor numpy's random streams
_INTEGER_COMMANDS = [
    ("count", ["count", "7", "30"]),
    ("table", ["table", "300"]),
    ("genus", ["genus", "{d}/uni.jsonl", "--out", "{d}/genus"]),
    ("genus_stdout", ["genus", "{d}/uni.jsonl"]),
    ("degrees", ["degrees", "{d}/nc.jsonl", "--out", "{d}/degrees"]),
    ("degrees_stdout", ["degrees", "{d}/nc.jsonl"]),
    ("all5", ["enumerate", "--n", "5", "--out", "{d}/all5"]),
    ("all5_stdout", ["enumerate", "--n", "5"]),
    ("nc5", ["enumerate", "--n", "5", "--kind", "ncpp", "--out", "{d}/nc5"]),
    ("nc5_stdout", ["enumerate", "--n", "5", "--kind", "ncpp"]),
]


def test_integer_and_record_commands_run_without_numpy(tmp_path):
    uni, nc = tmp_path / "uni.jsonl", tmp_path / "nc.jsonl"
    assert run("generate", "--n", 30, "--samples", 8, "--seed", 5, "--out", uni) == 0
    assert run("generate", "--sampler", "ncpp", "--n", 30, "--samples", 8, "--seed", 5,
               "--out", nc) == 0
    runs = tmp_path / "runs"
    runs.mkdir()
    outputs = _run_commands(runs, "numpy", _INTEGER_COMMANDS, inputs=(uni, nc))
    assert outputs["count.stdout"] == f"{onefacemaps.harer_zagier(7, 30)}\n".encode()
    assert outputs["genus"].splitlines()[0] == b"sample_index,genus"
    assert outputs["genus"] == outputs["genus_stdout.stdout"]
    assert outputs["degrees"].startswith(b"degree,mean_count\n1,")
    assert outputs["degrees"] == outputs["degrees_stdout.stdout"]
    assert outputs["all5"] == outputs["all5_stdout.stdout"]
    assert outputs["all5"].count(b"\n") == 945
    assert outputs["nc5"] == outputs["nc5_stdout.stdout"]
    assert outputs["nc5"].count(b"\n") == 42


def test_package_surface_loads_lazily():
    for module in ("onefacemaps.cli", "onefacemaps.counting"):
        with _fresh_interpreter("-c", f"import sys, {module}; print('numpy' in sys.modules)",
                                stdout=subprocess.PIPE) as proc:
            out, _ = proc.communicate(timeout=120)
        assert out == b"False\n"
    star: dict = {}
    exec("from onefacemaps import *", star)
    for name in onefacemaps.__all__:
        source = importlib.import_module(f"onefacemaps.{onefacemaps._SOURCE[name]}")
        assert star[name] is getattr(source, name)
    assert set(onefacemaps.__all__) <= set(dir(onefacemaps))
    with pytest.raises(AttributeError):
        onefacemaps.no_such_name


@pytest.mark.parametrize(
    "command", ["spectrum", "density", "spacings", "meanjth", "genus", "degrees", "walks"]
)
def test_empty_ensemble_is_validation_error(command, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run(command, empty) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: ensemble file has no records\n"
    assert captured.out == ""


_RECORD = '{{"n":{n},"partner":{partner},"genus":{genus},"seed":0,"sample_index":0}}\n'
_N2 = _RECORD.format(n=2, partner=[2, 1, 4, 3], genus=0)
_N3 = _RECORD.format(n=3, partner=[2, 1, 4, 3, 6, 5], genus=0)
_TORUS_AS_SPHERE = _RECORD.format(n=2, partner=[3, 4, 1, 2], genus=0)
_NEGATIVE_SEED = _N2.replace('"seed":0', '"seed":-5')


# every validation failure: (argv, ensemble file contents, exit code, the one stderr line)
@pytest.mark.parametrize(
    "argv, ensemble, code, err",
    [
        (["generate", "--n", 10, "--samples", 0], None, 2, "need --samples >= 1, got 0"),
        (["generate", "--n", 0, "--samples", 1], None, 2, "need --n >= 1, got 0"),
        (["generate", "--sampler", "genus-filtered", "--n", 4, "--genus", 1, "--samples", 1,
          "--budget", 0], None, 2, "need --budget >= 1, got 0"),
        (["generate", "--n", 4, "--samples", 1, "--seed", -1], None, 2,
         "need 0 <= --seed <= 18446744073709551615, got -1"),
        (["generate", "--n", 4, "--samples", 1, "--seed", 2**64], None, 2,
         "need 0 <= --seed <= 18446744073709551615, got 18446744073709551616"),
        (["generate", "--sampler", "genus-filtered", "--n", 10, "--samples", 1], None, 2,
         "--genus is required with --sampler genus-filtered"),
        (["generate", "--n", 10, "--samples", 1, "--genus", 2], None, 2,
         "--genus only applies to --sampler genus-filtered"),
        (["count", 3, 4], None, 2, "need 0 <= g <= 2, got 3"),
        (["table", 0], None, 2, "need n >= 1, got 0"),
        (["enumerate", "--n", 9], None, 2, "exhaustive enumeration capped at n = 8"),
        (["walks", "{ens}", "--rmax", 21], _N2, 2,
         "r_max = 21 exceeds the exact-arithmetic cap 20"),
        (["spacings", "{ens}", "--bulk-fraction", 1.5], _N2, 2,
         "bulk_fraction must lie in (0, 1], got 1.5"),
        (["meanjth", "{ens}"], _N2 + _N3, 2, "spectra of mixed lengths: [4, 6]"),
        (["density", "{ens}"], "", 2, "ensemble file has no records"),
        (["genus", "{ens}"], _TORUS_AS_SPHERE, 2,
         "record on line 1: bad ensemble record: genus is 0, its gluing has genus 1"),
        (["genus", "{ens}"], b"\xff\xfe" + _N2.encode(), 2,
         "record on line 1: bad ensemble record: "
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (["degrees", "{ens}"], _N2 + "[2, 1]\n", 2,
         "record on line 2: bad ensemble record: a record must be a JSON object, got list"),
        (["genus", "{ens}"], _NEGATIVE_SEED, 2,
         "record on line 1: bad ensemble record: need 0 <= seed <= 18446744073709551615, got -5"),
        (["density", "{ens}", "--bins", 0], _N2, 2, "need bins >= 1, got 0"),
        (["spacings", "{ens}", "--bins", -5], _N2, 2, "need bins >= 1, got -5"),
        (["generate", "--sampler", "genus-filtered", "--n", 50, "--samples", 1, "--genus", 0,
          "--budget", 50, "--seed", 3], None, 3,
         "found 0 genus-0 maps in 50 draws, wanted 1 maps"),
    ],
    ids=["samples0", "n0", "budget0", "seed-negative", "seed-big", "no-genus", "stray-genus",
         "count", "table", "enumerate", "walks", "spacings", "meanjth-mixed", "empty",
         "wrong-genus", "not-utf8", "not-an-object", "negative-seed", "density-bins0", "spacings-bins-negative",
         "budget"],
)
def test_error_contract(argv, ensemble, code, err, tmp_path, capsys):
    ens = tmp_path / "ens.jsonl"
    if ensemble is not None:
        ens.write_bytes(ensemble if isinstance(ensemble, bytes) else ensemble.encode())
    assert run(*(str(a).format(ens=ens) for a in argv)) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, err",
    [
        (["density", "--bins", 0], "need bins >= 1, got 0"),
        (["spacings", "--bins", 0], "need bins >= 1, got 0"),
        (["spacings", "--bulk-fraction", 1.5], "bulk_fraction must lie in (0, 1], got 1.5"),
    ],
    ids=["density-bins0", "spacings-bins0", "spacings-bulk-fraction"],
)
def test_statistic_parameters_checked_before_any_spectrum(argv, err, monkeypatch, tmp_path, capsys):
    from onefacemaps import spectra

    def fail(a):
        raise AssertionError("a spectrum was solved before the parameters were checked")

    monkeypatch.setattr(spectra, "eigenvalues_symmetric", fail)
    ens = tmp_path / "ens.jsonl"
    ens.write_text(_N2 + _N2)
    assert run(argv[0], ens, *argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""


def test_eigensolver_failure_is_exit_5(monkeypatch, tmp_path, capsys):
    from onefacemaps import spectra

    def fail(work):
        raise np.linalg.LinAlgError("dsyevd returned info = 1")

    monkeypatch.setattr(spectra, "_symmetric_eigenvalues", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)  # the solve where numpy bundles no OpenBLAS
    ens = tmp_path / "ens.jsonl"
    ens.write_text(_RECORD.format(n=2, partner=[3, 4, 1, 2], genus=1))  # K4: the dense path
    assert run("spectrum", ens) == 5
    captured = capsys.readouterr()
    assert captured.err == "error: eigensolver did not converge: dsyevd returned info = 1\n"
    assert captured.out == ""
