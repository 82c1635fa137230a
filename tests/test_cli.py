"""End-to-end CLI tests through main(argv): exit codes, formats, determinism."""

import csv
import hashlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import srswor
from srswor import suite
from srswor.cli import BENCH_HEADER, main
from srswor.samplers import default_samplers


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- sample: indices mode ---

def test_sample_inorder_full_range(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "5", "--k", "5",
                           "--algo", "inorder", "--indices-only")
    assert code == 0
    assert out == "1\n2\n3\n4\n5\n"


def test_sample_k_zero_prints_nothing(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "5", "--k", "0", "--indices-only")
    assert code == 0
    assert out == ""


def test_sample_deterministic_per_seed(capsys):
    args = ("sample", "--n", "100", "--k", "10", "--seed", "7",
            "--algo", "inorder", "--indices-only")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    _, other, _ = run_cli(capsys, "sample", "--n", "100", "--k", "10", "--seed", "8",
                          "--algo", "inorder", "--indices-only")
    assert other != out1


@pytest.mark.parametrize("algo", list(default_samplers()))
def test_sample_every_algorithm_yields_valid_subset(capsys, algo):
    code, out, _ = run_cli(capsys, "sample", "--n", "30", "--k", "12",
                           "--seed", "3", "--algo", algo, "--indices-only")
    assert code == 0
    values = [int(line) for line in out.splitlines()]
    assert len(values) == 12
    assert len(set(values)) == 12
    assert all(1 <= v <= 30 for v in values)


def test_sample_n_beyond_64_bits(capsys):
    n = 2**64 + 1
    code, out, _ = run_cli(capsys, "sample", "--n", str(n), "--k", "2", "--indices-only")
    assert code == 0
    values = [int(line) for line in out.splitlines()]
    assert len(set(values)) == 2
    assert all(1 <= v <= n for v in values)


def _limit_address_space():
    # only the child: about 600 MB, far below the 80 GB an n = 1e10 array needs
    resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))


def _env():
    env = dict(os.environ)
    src = str(pathlib.Path(srswor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_python(args, **kwargs):
    return subprocess.run([sys.executable, *args], env=_env(),
                          capture_output=True, text=True, timeout=60, **kwargs)


def _run_module(argv, **kwargs):
    return _run_python(["-m", "srswor", *argv], **kwargs)


def test_cli_import_stays_lean():
    # every CLI process pays for what `import srswor.cli` loads; bench and
    # verify import what only they need when they run, and verify's modules
    # keep to the package's records, not dataclasses
    probe = ("import sys, srswor.cli; print(*(m for m in ('dataclasses', 'inspect', 'csv', "
             "'json', 'srswor.suite', 'srswor.statcheck') if m in sys.modules)); "
             "import srswor.suite; print(*(m for m in ('dataclasses', 'inspect') "
             "if m in sys.modules))")
    proc = _run_python(["-c", probe])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", ""]


@pytest.mark.parametrize("argv", [
    ["sample", "--indices-only", "--algo", "fy", "--n", "10000000000", "--k", "2"],
    ["sample", "--indices-only", "--algo", "preinit", "--n", "10000000000", "--k", "2"],
    ["bench", "--grid", "10000000000:2", "--algos", "fy", "--reps", "1"],
])
def test_out_of_memory_exits_2_without_traceback(argv):
    proc = _run_module(argv, preexec_fn=_limit_address_space)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"{argv[0]}: out of memory")


@pytest.mark.parametrize("argv", [
    ["sample", "--indices-only", "--algo", "fy", "--n", "100000", "--k", "50000"],
    ["sample", "--k", "100000", "{lines}"],
    ["merge", "--manifest", "{manifest}"],
    ["bench", "--grid", "10:1", "--algos", "fy", "--reps", "20000"],
])
def test_closed_reader_exits_1_without_traceback(tmp_path, argv):
    # each command writes far more than a pipe holds, to a reader that takes
    # one line and closes
    lines, manifest = tmp_path / "lines.txt", tmp_path / "manifest.tsv"
    lines.write_text("".join(f"line-{i}\n" for i in range(1, 200_001)))
    manifest.write_text(f"100000\t100000\t{','.join(map(str, range(100_000)))}\n")
    argv = [arg.format(lines=lines, manifest=manifest) for arg in argv]
    proc = subprocess.Popen([sys.executable, "-m", "srswor", *argv], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("errors,code", [("surrogateescape", 0), ("strict", 1)])
def test_sample_file_decodes_as_stdin(tmp_path, monkeypatch, errors, code):
    # the same lines that are not UTF-8, from a file and from stdin: passed
    # through verbatim where stdin escapes them, one line and exit 1 where
    # it is strict
    data = b"".join(b"line-%d \xff\xfe\n" % i for i in range(1, 11))
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    monkeypatch.setenv("PYTHONIOENCODING", f"utf-8:{errors}")
    argv = ["sample", "--k", "4", "--seed", "3"]
    codec = {"encoding": "utf-8", "errors": "surrogateescape"}
    by_file = _run_module([*argv, str(path)], **codec)
    by_stdin = _run_module([*argv, "-"], input=data.decode(**codec), **codec)
    assert (by_file.returncode, by_file.stdout) == (by_stdin.returncode, by_stdin.stdout)
    assert by_file.returncode == code
    for proc in (by_file, by_stdin):
        assert proc.stderr.count("\n") == code and "Traceback" not in proc.stderr
    picked = by_file.stdout.encode(**codec).splitlines(keepends=True)
    assert len(picked) == 4 * (1 - code)
    assert set(picked) <= set(data.splitlines(keepends=True))


def test_float_overflow_exits_2_without_traceback(tmp_path):
    # 10^400 is beyond float range, which inorder's binomials and merge
    # thinning need for n
    huge = str(10**400)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{huge}\t2\ta,b\n5\t1\tc\n")
    for argv in (["sample", "--indices-only", "--algo", "inorder", "--n", huge, "--k", "2"],
                 ["merge", "--manifest", str(manifest)]):
        proc = _run_module(argv)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"{argv[0]}: input too large for float arithmetic")


@given(algo=st.sampled_from(["sparse", "member", "inorder"]),
       # every bit length alike, so n is not mostly tiny or near 2^1100
       n=st.integers(min_value=1, max_value=1100).flatmap(
           lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits)),
       seed=st.integers(min_value=0, max_value=2**32), data=st.data())
@settings(max_examples=300, deadline=None)
def test_sample_indices_exit_0_or_2_at_any_n(algo, n, seed, data):
    # the O(k) samplers at every n: a valid sample, or exit 2 with no traceback
    k = data.draw(st.integers(min_value=0, max_value=min(n, 64)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["sample", "--indices-only", "--algo", algo, "--n", str(n),
                     "--k", str(k), "--seed", str(seed)])
    assert code in (0, 2), err.getvalue()
    if code == 0:
        values = [int(line) for line in out.getvalue().splitlines()]
        assert len(set(values)) == len(values) == k
        assert all(1 <= v <= n for v in values)


def test_sample_sorted_algorithms_print_ascending(capsys):
    for algo in ("select", "inorder"):
        _, out, _ = run_cli(capsys, "sample", "--n", "50", "--k", "9",
                            "--seed", "11", "--algo", algo, "--indices-only")
        values = [int(line) for line in out.splitlines()]
        assert values == sorted(values)


def test_sample_k_exceeds_n(capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "3", "--k", "5", "--indices-only")
    assert code == 2
    assert "exceeds" in err


def test_sample_indices_need_n(capsys):
    code, _, err = run_cli(capsys, "sample", "--k", "2", "--indices-only")
    assert code == 2
    assert "--n" in err


def test_sample_negative_k(capsys):
    code, _, _ = run_cli(capsys, "sample", "--n", "5", "--k", "-1", "--indices-only")
    assert code == 2


# --- sample: line mode ---

@pytest.fixture
def lines_file(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("".join(f"line-{i}\n" for i in range(1, 21)))
    return str(path)


def test_sample_lines_known_n(capsys, lines_file):
    code, out, _ = run_cli(capsys, "sample", "--n", "20", "--k", "5",
                           "--seed", "2", lines_file)
    assert code == 0
    picked = out.splitlines()
    assert len(picked) == 5
    # single in-order pass: output preserves input order without repeats
    numbers = [int(s.split("-")[1]) for s in picked]
    assert numbers == sorted(numbers)
    assert len(set(numbers)) == 5


def test_sample_lines_inferred_n(capsys, lines_file):
    code, out, _ = run_cli(capsys, "sample", "--k", "4", "--seed", "5", lines_file)
    assert code == 0
    assert len(out.splitlines()) == 4


def test_sample_lines_k_exceeds_inferred_n(capsys, lines_file):
    code, _, err = run_cli(capsys, "sample", "--k", "25", lines_file)
    assert code == 2
    assert "inferred" in err


def test_sample_lines_missing_file(capsys, tmp_path):
    path = tmp_path / "nope.txt"
    code, _, err = run_cli(capsys, "sample", "--k", "2", str(path))
    assert code == 1
    assert err.startswith("sample: ") and err.count("\n") == 1 and str(path) in err


def test_sample_lines_short_input_with_declared_n(capsys, lines_file):
    # file has 20 lines; claiming 100 can strand a position past the end
    code, _, err = run_cli(capsys, "sample", "--n", "100", "--k", "90",
                           "--seed", "1", lines_file)
    assert code == 1
    assert "ended before" in err


def test_sample_lines_from_stdin_reservoir(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a\nb\nc\nd\ne\n"))
    code, out, _ = run_cli(capsys, "sample", "--k", "3", "--seed", "6")
    assert code == 0
    picked = out.splitlines()
    assert len(picked) == 3
    assert set(picked) <= {"a", "b", "c", "d", "e"}
    # reservoir output is re-emitted in input order
    order = {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}
    assert [order[p] for p in picked] == sorted(order[p] for p in picked)


def test_sample_lines_stdin_with_known_n(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a\nb\nc\nd\n"))
    code, out, _ = run_cli(capsys, "sample", "--n", "4", "--k", "2", "--seed", "9")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_sample_lines_k_zero_reads_nothing(capsys, tmp_path):
    # no input needed at all when k=0
    code, out, _ = run_cli(capsys, "sample", "--k", "0", str(tmp_path / "absent.txt"))
    assert code == 0
    assert out == ""


# --- bench ---

def test_bench_header_and_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "bench", "--grid", "100:10,200:20",
                           "--algos", "fy,sparse", "--reps", "2", "--seed", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == BENCH_HEADER
    assert BENCH_HEADER == ("algorithm", "n", "k", "rep", "wall_time_ns",
                            "logical_draws", "peak_aux_entries", "seed")
    body = rows[1:]
    assert len(body) == 2 * 2 * 2  # algos x cells x reps
    for row in body:
        algo, n, k, rep, wall, draws, peak, seed = row
        assert algo in ("fy", "sparse")
        assert int(n) in (100, 200)
        assert int(wall) > 0
        assert int(draws) == int(k)  # one logical draw per selection
        assert int(seed) == 1 + int(rep)


def test_bench_deterministic_except_wall_time(capsys):
    args = ("bench", "--grid", "50:5", "--algos", "member,inorder",
            "--reps", "3", "--seed", "4")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)

    def strip_wall(text):
        rows = list(csv.reader(io.StringIO(text)))
        return [row[:4] + row[5:] for row in rows]

    assert strip_wall(out1) == strip_wall(out2)


def test_bench_peak_entries_by_algorithm(capsys):
    code, out, _ = run_cli(capsys, "bench", "--grid", "1000:100",
                           "--algos", "fy,sparse,member", "--reps", "1")
    assert code == 0
    peaks = {row[0]: int(row[6]) for row in list(csv.reader(io.StringIO(out)))[1:]}
    assert peaks["fy"] == 0  # dense array, no auxiliary hash
    assert 0 < peaks["sparse"] <= 100
    assert peaks["member"] == 100


def test_bench_k_zero_every_algorithm(capsys):
    code, out, _ = run_cli(capsys, "bench", "--grid", "10:0", "--reps", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[0] for row in rows] == list(default_samplers())
    assert all(row[5] == row[6] == "0" for row in rows)  # no draws, no entries


def test_bench_unknown_algorithm(capsys):
    code, _, err = run_cli(capsys, "bench", "--grid", "10:2", "--algos", "quantum")
    assert code == 2
    assert "unknown algorithm" in err


def test_bench_bad_grid(capsys):
    for bad in ("10", "10:2:3", "ten:2", ""):
        code, _, err = run_cli(capsys, "bench", "--grid", bad)
        assert code == 2, bad
        assert "grid" in err


def test_bench_invalid_cell(capsys):
    code, _, _ = run_cli(capsys, "bench", "--grid", "10:20")
    assert code == 2
    code, _, _ = run_cli(capsys, "bench", "--grid", "0:0")
    assert code == 2


def test_bench_bad_reps(capsys):
    code, _, _ = run_cli(capsys, "bench", "--grid", "10:2", "--reps", "0")
    assert code == 2


# --- verify ---

QUICK_SEED1_SHA256 = "915e789941b87bf88f33d7f469e39eeef47dd5e3905537decaf475b639788b14"


@pytest.fixture(scope="module")
def quick_verify_seed1(tmp_path_factory):
    # one quick-suite run, shared by the tests of its text and its JSON report
    path = tmp_path_factory.mktemp("verify") / "report.json"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--suite", "quick", "--seed", "1", "--json", str(path)])
    return code, out.getvalue(), err.getvalue(), path


def test_verify_quick_seed1_passes(quick_verify_seed1):
    code, out, err, _ = quick_verify_seed1
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines
    assert all(line.endswith("PASS") for line in lines)
    # the text is pinned: a change that moves the stream on purpose updates
    # this digest and says so
    assert hashlib.sha256(out.encode()).hexdigest() == QUICK_SEED1_SHA256, out


def test_verify_json_report(quick_verify_seed1):
    code, out, _, path = quick_verify_seed1
    assert code == 0
    payload = json.loads(path.read_text())
    assert len(payload) == len(out.splitlines())
    for record in payload:
        assert set(record) == {"name", "statistic", "p_value", "pass"}
        assert record["pass"] is True


def test_verify_alpha_one_fails_stochastic_checks(capsys):
    # alpha=1.0 makes every check with p < 1 fail by construction
    code, _, err = run_cli(capsys, "verify", "--suite", "quick", "--seed", "1",
                           "--alpha", "1.0")
    assert code == 3
    assert "failed" in err


@pytest.mark.parametrize("alpha", ["0", "-1", "1.5", "nan"])
def test_verify_refuses_alpha_outside_unit_interval(capsys, alpha):
    expected = (2, "", "verify: --alpha must be in (0, 1]\n")  # before any check runs
    assert run_cli(capsys, "verify", f"--alpha={alpha}") == expected


def test_verify_unwritable_json_exits_1_before_any_check(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(suite, "run_suite", lambda *args: pytest.fail("the suite ran"))
    path = tmp_path / "absent" / "report.json"
    code, out, err = run_cli(capsys, "verify", "--json", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("verify: ") and err.count("\n") == 1 and str(path) in err


def test_verify_table_rows():
    rows = suite._checks()
    names = [name for name, _, _ in rows]
    assert len(set(names)) == len(names)
    assert {key for _, key, _ in rows} <= set(suite._SCALES)
    assert [name for name, key, _ in rows if suite._SCALES[key][0] == 0] == [
        "uniform-int-sweep-m1-64", "split-merge-duality-4-4-k3",
        "chi-square-calibration-ncat20"]
    with pytest.raises(ValueError):
        suite.run_suite("medium")


# --- merge ---

def write_manifest(tmp_path, text):
    path = tmp_path / "manifest.tsv"
    path.write_text(text)
    return str(path)


def test_merge_full_shards_union(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "3\t3\ta,b,c\n2\t2\td,e\n")
    code, out, _ = run_cli(capsys, "merge", "--manifest", manifest, "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "# effective_size=5"
    assert sorted(lines[:-1]) == ["a", "b", "c", "d", "e"]


def test_merge_empty_shard_contributes_nothing(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "4\t0\t\n3\t3\tx,y,z\n")
    code, out, _ = run_cli(capsys, "merge", "--manifest", manifest, "--seed", "2")
    assert code == 0
    lines = out.splitlines()
    merged = lines[:-1]
    assert set(merged) <= {"x", "y", "z"}
    assert lines[-1] == f"# effective_size={len(merged)}"


def test_merge_deterministic(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "9\t4\ta,b,c,d\n7\t3\tp,q,r\n")
    _, out1, _ = run_cli(capsys, "merge", "--manifest", manifest, "--seed", "5")
    _, out2, _ = run_cli(capsys, "merge", "--manifest", manifest, "--seed", "5")
    assert out1 == out2


def test_merge_population_at_the_float_range(capsys, tmp_path):
    # a 2^1023 population gives the threshold Beta(3, 2^1023 - 2), whose
    # shapes are finite floats; 2^1100 is past the float range
    for population, expected in ((2**1023, 0), (2**1100, 2)):
        manifest = write_manifest(tmp_path, f"{population}\t2\ta,b\n5\t1\tc\n")
        code, out, err = run_cli(capsys, "merge", "--manifest", manifest, "--seed", "4")
        assert code == expected, err
        if expected == 0:
            assert out.splitlines()[-1].startswith("# effective_size=")
        else:
            assert err.count("\n") == 1 and "Traceback" not in err
            assert err.startswith("merge: input too large for float arithmetic")


def test_merge_target_downsamples(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "4\t4\ta,b,c,d\n4\t4\te,f,g,h\n")
    code, out, _ = run_cli(capsys, "merge", "--manifest", manifest,
                           "--seed", "3", "--target", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "# effective_size=3"
    assert len(set(lines[:-1])) == 3


def test_merge_target_out_of_range(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "2\t2\ta,b\n2\t2\tc,d\n")
    code, _, err = run_cli(capsys, "merge", "--manifest", manifest, "--target", "9")
    assert code == 2
    assert "--target" in err


def test_merge_missing_manifest(capsys, tmp_path):
    path = tmp_path / "no.tsv"
    code, _, err = run_cli(capsys, "merge", "--manifest", str(path))
    assert code == 1
    assert err.startswith("merge: ") and err.count("\n") == 1 and str(path) in err


@pytest.mark.parametrize("bad_line,phrase", [
    ("3\t2\n", "field"),                      # missing ids column
    ("x\t2\ta,b\n", "non-integer"),           # population not a number
    ("3\t2\ta\n", "declared size"),           # id count mismatch
    ("2\t3\ta,b,c\n", "invalid sizes"),       # k > n
    ("0\t0\t\n", "invalid sizes"),            # empty population
    ("3\t2\ta,a\n", "duplicate"),             # repeated identifier
])
def test_merge_malformed_manifest_lines(capsys, tmp_path, bad_line, phrase):
    manifest = write_manifest(tmp_path, "5\t2\tu,v\n" + bad_line)
    code, _, err = run_cli(capsys, "merge", "--manifest", manifest)
    assert code == 1
    assert "line 2" in err
    assert phrase in err


def test_merge_blank_lines_skipped(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "\n2\t2\ta,b\n\n2\t2\tc,d\n\n")
    code, out, _ = run_cli(capsys, "merge", "--manifest", manifest)
    assert code == 0
    assert out.splitlines()[-1] == "# effective_size=4"


def test_merge_empty_manifest(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "\n\n")
    code, _, err = run_cli(capsys, "merge", "--manifest", manifest)
    assert code == 1
    assert "no shards" in err
