from __future__ import annotations

import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cyclic_lrc
from cyclic_lrc import cli
from cyclic_lrc.cli import main
from cyclic_lrc.codefile import code_to_dict, dumps_canonical, load_code
from cyclic_lrc.constructions import LrcCode, base_field
from cyclic_lrc.cyclic import CyclicCode
from cyclic_lrc.field import primitive_nth_root
from cyclic_lrc.poly import Poly


def _cli_env() -> dict[str, str]:
    """The environment of every CLI subprocess: this package on the path,
    and PYTHONUNBUFFERED dropped, so stdout on a pipe is block-buffered and
    output the CLI does not flush is lost, as it is for a user."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cyclic_lrc.__file__).resolve().parent.parent)
    return env


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def code_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    rc, out, err = _run(
        capsys, "construct", "--scheme", "thm-1.1-ii", "--q", "5", "--n", "8", "--r", "3",
        "--out", str(path),
    )
    assert rc == 0, err
    return path


def test_construct_summary_and_file(code_file, capsys, tmp_path):
    rc, out, err = _run(
        capsys, "construct", "--scheme", "thm-1.1-ii", "--q", "5", "--n", "8", "--r", "3",
        "--out", str(tmp_path / "again.json"),
    )
    assert rc == 0
    assert "[n, k, d] = [8, 4, 4] over GF(5)" in out
    assert "locality r = 3" in out
    assert "g(x) = x^4 + 2*x^3 + x + 1" in out
    assert (tmp_path / "again.json").read_bytes() == code_file.read_bytes()


def test_construct_is_byte_deterministic(capsys, tmp_path):
    outputs = []
    for name in ("a.json", "b.json"):
        rc, out, _ = _run(
            capsys, "construct", "--scheme", "ex-3.3", "--q", "11", "--n", "12", "--r", "3",
            "--d", "10", "--out", str(tmp_path / name),
        )
        assert rc == 0
        assert "[n, k, d] = [12, 3, 10] over GF(11)" in out
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


def test_construct_precondition_diagnostics(capsys):
    rc, out, err = _run(capsys, "construct", "--scheme", "thm-1.1-i", "--q", "4", "--n", "10", "--r", "2")
    assert rc == 1
    assert "gcd" in err


def test_construct_oversized_splitting_field_is_a_precondition_failure():
    # ex-3.3 takes beta from GF(q^2), and GF(2048^2) is beyond the supported
    # order; the thm schemes need no such field
    proc = subprocess.run(
        [sys.executable, "-m", "cyclic_lrc.cli", "construct", "--scheme", "ex-3.3",
         "--q", "2048", "--n", "3", "--r", "2", "--d", "2"],
        capture_output=True, text=True, env=_cli_env(),
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "the splitting field of x^3 - 1 over GF(2048) exceeds" in proc.stderr


def _bounded_cli(*argv, address_space_mb=1500):
    """One CLI process under an address-space limit, so that a regression
    that materializes a huge polynomial fails fast instead of exhausting
    memory.  Returns the finished process and its wall time."""
    limit = address_space_mb << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cyclic_lrc.cli", *argv],
        capture_output=True, text=True, env=_cli_env(), preexec_fn=cap, timeout=60,
    )
    return proc, time.perf_counter() - start


def test_construct_huge_length_is_rejected_first():
    # the length bound is checked before any scheme precondition, and
    # nothing of length n is built
    proc, elapsed = _bounded_cli("construct", "--scheme", "thm-1.1-i", "--q", "13",
                                 "--n", "300000000", "--r", "2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "length n = 300000000 exceeds the supported length 4096\n"
    assert elapsed < 10.0


def test_construct_length_with_a_huge_prime_factor_is_prompt():
    # a length is compared with the bound, never factored: 3(2^61 - 1)(2^89 - 1)
    # would take rho about 1.5e9 steps
    for n in (3 * (2**61 - 1), 3 * (2**61 - 1) * (2**89 - 1)):
        proc, elapsed = _bounded_cli("construct", "--scheme", "thm-1.1-i", "--q", "13",
                                     "--n", str(n), "--r", "2")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"length n = {n} exceeds the supported length 4096\n"
        assert elapsed < 10.0


def test_verify_huge_length_is_rejected_by_construct(code_file, tmp_path):
    # the loader rebuilds the code, so a length is checked by the length
    # bound and the scheme's preconditions before any generator is divided
    # into x^n - 1; 100000004 passes every thm-1.1-ii precondition
    for n, reason in [
        (100000001, "length n = 100000001 exceeds the supported length 4096"),
        (100000004, "length n = 100000004 exceeds the supported length 4096"),
        (4093, "gcd(n, q - 1) = 1 is not divisible by r + 1 = 4"),
    ]:
        data = json.loads(code_file.read_text())
        data["n"] = n
        bad = tmp_path / "huge.json"
        bad.write_text(dumps_canonical(data))
        proc, elapsed = _bounded_cli("verify", str(bad))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"code file integrity failure: {reason}\n"
        assert elapsed < 5.0


def test_long_code_constructs_encodes_repairs_and_verifies(tmp_path):
    # x^1204 - 1 over GF(13) splits only beyond the supported order; the
    # code is built in GF(13), and its stated zeros give the BCH bound 3 = d
    path = tmp_path / "long.json"
    proc, elapsed = _bounded_cli("construct", "--scheme", "thm-1.1-i", "--q", "13", "--n", "1204",
                                 "--r", "3", "--out", str(path))
    assert (proc.returncode, proc.stderr) == (0, "") and elapsed < 3.0
    assert proc.stdout.startswith("[n, k, d] = [1204, 902, 3] over GF(13)\n")
    message = ["1"] + ["0"] * 900 + ["5"]
    proc, elapsed = _bounded_cli("encode", str(path), "--message", ",".join(message))
    assert (proc.returncode, proc.stderr) == (0, "") and elapsed < 3.0
    word = proc.stdout.strip().split(",")
    assert len(word) == 1204 and word[302:] == message
    proc, elapsed = _bounded_cli("repair", str(path), "--word", ",".join(word[:5] + ["_"] + word[6:]))
    assert (proc.returncode, proc.stderr) == (0, "") and elapsed < 3.0
    assert proc.stdout.splitlines() == [word[5], "read: 306,607,908"]
    proc, elapsed = _bounded_cli("verify", str(path), "--budget", "65536")
    assert (proc.returncode, proc.stderr) == (0, "") and elapsed < 3.0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "optimal-certified"
    assert report["bch_lower_bound"] == 3
    assert report["distance"] == {"enumerated": 0, "exact": False, "lower": 3, "upper": 303}
    assert report["locality"]["ok"] is True and report["locality"]["method"] == "coset-witness"


def test_verify_of_length_4092_needs_no_scan(tmp_path):
    # q**k = 13**3068 is far over the default budget; the verdict reads the
    # proven bracket, whose BCH bound 3 reaches d, and no codeword is
    # enumerated
    path = tmp_path / "n4092.json"
    proc, _ = _bounded_cli("construct", "--scheme", "thm-1.1-i", "--q", "13", "--n", "4092",
                           "--r", "3", "--out", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    proc, elapsed = _bounded_cli("verify", str(path))
    assert (proc.returncode, proc.stderr) == (0, "") and elapsed < 3.0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "optimal-certified"
    assert report["distance"] == {"enumerated": 0, "exact": False, "lower": 3, "upper": 1025}


def test_failures_print_one_line_and_no_traceback(tmp_path):
    # each path exits with its documented code and one stderr line
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"scheme": "\xe9"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    construct = ["construct", "--scheme", "thm-1.1-ii", "--q", "5", "--n", "8", "--r", "3", "--out"]
    runs = [
        (_bounded_cli("verify", str(not_utf8))[0], 64, "unreadable code file: cannot read"),
        (_bounded_cli("verify", str(deep))[0], 64, "unreadable code file:"),
        (_bounded_cli(*construct, str(tmp_path / "no" / "dir" / "x.json"))[0], 64, "cannot write"),
        (_bounded_cli(*construct, str(tmp_path))[0], 64, "cannot write"),
    ]
    # a reader that closes stdout before the 263 KB report is written
    long_file = tmp_path / "long.json"
    proc, _ = _bounded_cli("construct", "--scheme", "thm-1.1-i", "--q", "13", "--n", "1204", "--r", "3",
                           "--out", str(long_file))
    assert proc.returncode == 0

    def closed_stdout(stderr):
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyclic_lrc.cli", "verify", str(long_file)],
            stdout=subprocess.PIPE, stderr=stderr, text=True,
            env=_cli_env(),
        )
        proc.stdout.close()
        err = proc.stderr.read() if proc.stderr else ""
        return subprocess.CompletedProcess(proc.args, proc.wait(timeout=60), "", err)

    runs.append((closed_stdout(subprocess.PIPE), 141, "stdout closed before the output was complete"))
    # with stderr on the same closed pipe (2>&1) the exit code is the same
    assert closed_stdout(subprocess.STDOUT).returncode == 141
    for done, code, start in runs:
        assert done.returncode == code, done.args
        assert "Traceback" not in done.stderr, done.args
        assert done.stderr.count("\n") == 1 and done.stderr.startswith(start), done.stderr


def test_module_entry_point_keeps_every_exit_code_and_diagnostic(code_file, capsys, tmp_path):
    # python -m ends in cli.run, which flushes and leaves through os._exit:
    # on pipes, each failure's code and stderr line are what main gives in
    # process
    tampered = json.loads(code_file.read_text())
    tampered["g"][0] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_canonical(tampered))
    failures = {
        1: ["construct", "--scheme", "thm-1.1-i", "--q", "4", "--n", "10", "--r", "2"],
        3: ["verify", str(bad)],
        5: ["repair", str(code_file), "--word", "_,1,1,2,1,0,0,0"],
        64: ["verify", str(tmp_path / "missing.json")],
    }
    # block-buffered stdout, so output that run did not flush would be lost
    env = _cli_env()
    for status, argv in failures.items():
        rc, out, err = _run(capsys, *argv)
        assert rc == status and err.count("\n") == 1, (argv, err)
        proc = subprocess.run([sys.executable, "-m", "cyclic_lrc.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err), argv
    # argparse leaves the help text in the stdout buffer; run flushes it
    rc, out, err = _run(capsys, "--help")
    proc = subprocess.run([sys.executable, "-m", "cyclic_lrc.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err) == (0, out, "")
    assert out.startswith("usage: cyclic-lrc")
    # 127 KB of CSV, more than a pipe holds, to a reader that has gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclic_lrc.cli", "sweep", "--scheme", "ex-3.2", "--qmax", "128", "--nmax", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, "stdout closed before the output was complete\n")


def test_run_passes_the_status_to_os_exit(monkeypatch, capsys):
    statuses = []
    monkeypatch.setattr(cli.os, "_exit", statuses.append)
    monkeypatch.setattr(sys, "argv", ["cyclic-lrc", "sweep", "--scheme", "thm-3.4", "--qmax", "5"])
    cli.run()
    assert capsys.readouterr().out.startswith("scheme,q,n,k,r,d,verdict\n")

    class ClosedStdout(io.StringIO):
        def flush(self):
            raise BrokenPipeError

    # a reader that closes stdout before the last flush, as after --help
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    monkeypatch.setattr(sys, "argv", ["cyclic-lrc", "--help"])
    cli.run()
    assert statuses == [0, 141]


def test_installed_script_enters_through_run():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    lines = pyproject.read_text().splitlines()
    scripts = lines[lines.index("[project.scripts]") + 1 :]
    assert scripts[0] == 'cyclic-lrc = "cyclic_lrc.cli:run"'


def test_code_too_large_to_encode_exits_1(tmp_path):
    # thm-1.1-i over GF(4096) at n = 4095 builds, but its parity matrix
    # would hold 536,805,216 GF(2) entries; encode and repair's codeword
    # check refuse it before building any of it
    path = tmp_path / "wide.json"
    proc, elapsed = _bounded_cli("construct", "--scheme", "thm-1.1-i", "--q", "4096", "--n", "4095",
                                 "--r", "2", "--out", str(path))
    assert (proc.returncode, proc.stderr) == (0, "") and elapsed < 5.0
    reason = ("cannot encode: the parity matrix of this [4095, 2729] code over GF(4096) "
              "has 536805216 entries, over the supported 4194304\n")
    for command, symbols in [("encode", ["1"] * 2729), ("repair", ["_"] + ["0"] * 4094)]:
        flag = "--message" if command == "encode" else "--word"
        proc, elapsed = _bounded_cli(command, str(path), flag, ",".join(symbols))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", reason)
        assert elapsed < 5.0


def test_distance_4_code_longer_than_q_squared(capsys, tmp_path):
    # n = 172 > 13^2: the unbounded distance-4 family over GF(13)
    path = tmp_path / "ii.json"
    rc, out, err = _run(capsys, "construct", "--scheme", "thm-1.1-ii", "--q", "13", "--n", "172",
                        "--r", "3", "--out", str(path))
    assert (rc, err) == (0, "")
    assert out.splitlines()[:3] == [
        "[n, k, d] = [172, 127, 4] over GF(13)", "locality r = 3", "g(x) = x^45 + 12*x^43 + 5*x^2 + 8",
    ]
    rc, out, err = _run(capsys, "verify", str(path), "--budget", "4096")
    report = json.loads(out)
    assert (rc, report["verdict"], report["locality"]["ok"]) == (2, "optimal-consistent", True)
    # the stated zeros give the BCH bound 3, short of d = 4
    assert report["bch_lower_bound"] == 3
    assert report["distance"] == {"enumerated": 0, "exact": False, "lower": 3, "upper": 46}


def test_verify_certified(code_file, capsys):
    rc, out, _ = _run(capsys, "verify", str(code_file))
    assert rc == 0
    report = json.loads(out)
    assert report["verdict"] == "optimal-certified"
    assert report["distance"] == {"enumerated": 624, "exact": True, "lower": 4, "upper": 4}


def test_verify_budget_one_is_uncertified(code_file, capsys, tmp_path):
    # over the budget only a proven bound certifies: the BCH bound of the
    # [12, 7, 4] thm-1.1-ii code over GF(5) is 3, that of [8, 4, 4] is 4
    path = tmp_path / "bch3.json"
    rc, _, err = _run(capsys, "construct", "--scheme", "thm-1.1-ii", "--q", "5", "--n", "12",
                      "--r", "3", "--out", str(path))
    assert (rc, err) == (0, "")
    rc, out, _ = _run(capsys, "verify", str(path), "--budget", "1")
    report = json.loads(out)
    assert (rc, report["verdict"]) == (2, "optimal-consistent")
    assert report["distance"] == {"enumerated": 0, "exact": False, "lower": 3, "upper": 6}
    rc, out, _ = _run(capsys, "verify", str(code_file), "--budget", "1")
    report = json.loads(out)
    assert (rc, report["verdict"]) == (0, "optimal-certified")
    assert report["distance"] == {"enumerated": 0, "exact": False, "lower": 4, "upper": 5}


def test_verify_tampered_file(code_file, capsys, tmp_path):
    data = json.loads(code_file.read_text())
    data["g"][0] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_canonical(data))
    rc, out, err = _run(capsys, "verify", str(bad))
    assert rc == 3
    assert "integrity" in err


@pytest.mark.parametrize("r", [0, -1])
@pytest.mark.parametrize("command", [["verify"], ["encode", "--message", "1,0,0,0"]])
def test_tampered_locality_is_an_integrity_failure(code_file, capsys, tmp_path, r, command):
    # r must be rejected before n % (r + 1) and the Singleton-type bound read it
    data = json.loads(code_file.read_text())
    data["r"] = r
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_canonical(data))
    rc, out, err = _run(capsys, command[0], str(bad), *command[1:])
    assert (rc, out) == (3, "")
    assert err == f"code file integrity failure: locality must be >= 3, got {r}\n"


def _hand_made_file(path, scheme, q, n, r, d, zeros, elements=(None, None)):
    """A code file for g = prod over e in zeros of (x - beta^e), beta the
    canonical primitive n-th root in GF(q), stored with the given claims and
    alpha = beta^a, gamma = beta^c for (a, c) = elements, where not None;
    written without construct and its scheme preconditions."""
    field = base_field(q)
    beta = primitive_nth_root(field, n)
    g = Poly.from_roots(field, [field.pow(beta.index, e) for e in zeros])
    alpha, gamma = (None if e is None else field.from_index(field.pow(beta.index, e)) for e in elements)
    code = LrcCode(CyclicCode(field, n, g), r, d, scheme, beta, alpha, gamma)
    path.write_text(dumps_canonical(code_to_dict(code)))
    return path


@pytest.mark.parametrize(
    "command", [["verify"], ["encode", "--message", "1"], ["repair", "--word", "_,1,1,1"]]
)
def test_thm_3_4_file_of_another_length_is_an_integrity_failure(capsys, tmp_path, command):
    # the thm-3.4 root set {0, 2} + grid at q = 5, n = 4, r = 3 gives a
    # [4, 1, 4] code, but thm-3.4 fixes n = 2(q - 1) = 8
    bad = _hand_made_file(tmp_path / "bad.json", "thm-3.4", 5, 4, 3, 4, (0, 1, 2), (1, 2))
    rc, out, err = _run(capsys, command[0], str(bad), *command[1:])
    assert (rc, out) == (3, "")
    assert err == "code file integrity failure: scheme thm-3.4 fixes n = 2(q - 1) = 8, got 4\n"


def test_generator_of_another_divisor_is_an_integrity_failure(capsys, tmp_path):
    # zeros beta^0..beta^5 instead of the ex-3.2 set: the same n, k and
    # claims, and a g, h and dual_g that agree with each other
    good = tmp_path / "good.json"
    rc, _, err = _run(capsys, "construct", "--scheme", "ex-3.2", "--q", "13", "--n", "12",
                      "--r", "2", "--d", "5", "--out", str(good))
    assert rc == 0, err
    other = json.loads(_hand_made_file(tmp_path / "other.json", "ex-3.2", 13, 12, 2, 5,
                                       range(6)).read_text())
    data = json.loads(good.read_text())
    assert data["g"] != other["g"] and data["k"] == other["k"] == 6
    data.update({key: other[key] for key in ("g", "h", "dual_g")})
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_canonical(data))
    rc, out, err = _run(capsys, "encode", str(bad), "--message", "1,0,0,0,0,0")
    assert (rc, out) == (3, "")
    assert err.startswith(f"code file integrity failure: stored g = {json.dumps(other['g'])}, ")


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc, out, err = _run(capsys, "verify", str(bad))
    assert rc == 64


def test_verify_rejects_noncanonical_element_encodings(code_file, capsys, tmp_path):
    # an element has one encoding, so that load then save reproduces the
    # file: a bare index over a prime field, m digits over GF(p^m)
    data = json.loads(code_file.read_text())
    assert data["alpha"] == 2
    data["alpha"] = [2]
    code_file.write_text(json.dumps(data))
    rc, out, err = _run(capsys, "verify", str(code_file))
    assert (rc, out) == (64, "") and "bad element encoding for alpha" in err

    gf4 = tmp_path / "gf4.json"
    rc, _, err = _run(
        capsys, "construct", "--scheme", "thm-1.1-i", "--q", "4", "--n", "9", "--r", "2",
        "--out", str(gf4),
    )
    assert rc == 0, err
    digits = json.loads(gf4.read_text())["g"][0]
    assert len(digits) == 2
    for bad in (digits[0] + 2 * digits[1], digits[:1]):
        data = json.loads(gf4.read_text())
        data["g"][0] = bad
        code_file.write_text(json.dumps(data))
        rc, out, err = _run(capsys, "verify", str(code_file))
        assert (rc, out) == (64, "") and "bad element encoding for g" in err, bad


def test_encode_and_repair_round_trip(code_file, capsys):
    rc, out, _ = _run(capsys, "encode", str(code_file), "--message", "1,0,0,0")
    assert rc == 0
    word = out.strip()
    assert word == "1,1,0,2,1,0,0,0"
    symbols = word.split(",")
    for i in range(8):
        erased = ",".join("_" if j == i else s for j, s in enumerate(symbols))
        rc, out, _ = _run(capsys, "repair", str(code_file), "--word", erased)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == symbols[i]
        read_positions = [int(p) for p in lines[1].removeprefix("read: ").split(",")]
        assert len(read_positions) == 3
        assert i not in read_positions
        assert all((p - i) % 2 == 0 for p in read_positions)


@pytest.mark.parametrize("flip", [2, 1], ids=["inside-group", "outside-group"])
def test_repair_rejects_corrupt_word(code_file, capsys, flip):
    # codeword 1,1,0,2,1,0,0,0 with coordinate 0 erased; its repair group is
    # {2, 4, 6}, so flipping coordinate 2 corrupts the repaired symbol and
    # flipping coordinate 1 leaves it right but the word inconsistent
    symbols = ["_", "1", "0", "2", "1", "0", "0", "0"]
    symbols[flip] = str((int(symbols[flip]) + 1) % 5)
    rc, out, err = _run(capsys, "repair", str(code_file), "--word", ",".join(symbols))
    assert rc == 5
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "not a codeword" in err


def test_repair_error_is_one_line(code_file, capsys, monkeypatch):
    from cyclic_lrc import repair

    def no_plan(base, r):
        raise repair.RepairError("no plan for this coordinate")

    monkeypatch.setattr(repair, "_grid_constant", no_plan)
    rc, out, err = _run(capsys, "repair", str(code_file), "--word", "_,1,0,2,1,0,0,0")
    assert rc == 3
    assert out == ""
    assert err.strip().splitlines() == ["no repair plan: no plan for this coordinate"]


def test_oversized_field_is_rejected_before_factoring(code_file, capsys, monkeypatch):
    # a prime order far above MAX_FIELD_ORDER fails on its size alone; trial
    # division of it would run for minutes
    from cyclic_lrc import constructions, field

    big = 1000000000000000003

    def small_only(real):
        def guarded(n):
            assert n <= field.MAX_FIELD_ORDER, f"trial division of {n}"
            return real(n)

        return guarded

    monkeypatch.setattr(constructions, "prime_factors", small_only(constructions.prime_factors))
    monkeypatch.setattr(field, "prime_factors", small_only(field.prime_factors))
    rc, out, err = _run(
        capsys, "construct", "--scheme", "ex-3.2", "--q", str(big), "--n", "2", "--r", "1", "--d", "2"
    )
    assert (rc, out) == (1, "") and "exceeds the supported order" in err
    # nor is a length factored, however large
    for n in (300000000, 3 * (2**61 - 1), 3 * (2**61 - 1) * (2**89 - 1)):
        rc, out, err = _run(capsys, "construct", "--scheme", "thm-1.1-i", "--q", "13",
                            "--n", str(n), "--r", "2")
        assert (rc, out) == (1, "") and "exceeds the supported length" in err
    for n, reason in [(100000001, "exceeds the supported length"), (100000004, "exceeds the supported length")]:
        data = json.loads(code_file.read_text())
        data["n"] = n
        huge = code_file.with_name("huge.json")
        huge.write_text(dumps_canonical(data))
        rc, out, err = _run(capsys, "verify", str(huge))
        assert (rc, out) == (3, "") and reason in err
    data = json.loads(code_file.read_text())
    data["p"] = big
    code_file.write_text(json.dumps(data))
    rc, out, err = _run(capsys, "verify", str(code_file))
    assert (rc, out) == (64, "") and "exceeds the supported limit" in err


def test_encode_all_zero(code_file, capsys):
    rc, out, _ = _run(capsys, "encode", str(code_file), "--message", "0,0,0,0")
    assert rc == 0 and out.strip() == "0,0,0,0,0,0,0,0"


def test_encode_wrong_length(code_file, capsys):
    rc, _, err = _run(capsys, "encode", str(code_file), "--message", "1,0")
    assert rc == 64 and "k = 4" in err


def test_repair_rejects_double_erasure(code_file, capsys):
    rc, _, err = _run(capsys, "repair", str(code_file), "--word", "_,_,0,1,1,0,0,0")
    assert rc == 64 and "exactly one" in err


def test_repair_rejects_bad_symbol(code_file, capsys):
    rc, _, err = _run(capsys, "repair", str(code_file), "--word", "_,9,0,1,1,0,0,0")
    assert rc == 64 and "bad symbol" in err


def _parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def test_sweep_header_and_rows(capsys):
    rc, out, _ = _run(capsys, "sweep", "--scheme", "thm-1.1-i", "--qmax", "4", "--nmax", "9")
    assert rc == 0
    assert out.splitlines()[0] == "scheme,q,n,k,r,d,verdict"
    rows = _parse_csv(out)
    assert {(r["q"], r["n"], r["r"]) for r in rows} >= {("4", "9", "2"), ("4", "3", "2")}
    assert all(r["verdict"] == "" for r in rows)


def test_sweep_double_length_diagnostic_column(capsys):
    rc, out, _ = _run(capsys, "sweep", "--scheme", "thm-3.4", "--qmax", "8")
    assert rc == 0
    rows = {(r["q"], r["r"]): r["verdict"] for r in _parse_csv(out)}
    assert rows[("5", "3")] == ""
    assert rows[("7", "3")] == "alpha-membership-failed"


def test_sweep_verify_small(capsys):
    rc, out, _ = _run(capsys, "sweep", "--scheme", "ex-3.3", "--qmax", "5", "--nmax", "6", "--verify")
    assert rc == 0
    rows = _parse_csv(out)
    assert rows
    assert all(r["verdict"] == "optimal-certified" for r in rows)


def test_sweep_verify_keeps_its_table_when_one_row_fails_a_self_check(capsys, monkeypatch):
    from cyclic_lrc import cli
    from cyclic_lrc.constructions import ConstructionError

    real = cli.construct

    def failing(scheme, q, n=None, r=None, d=None):
        if (q, n, r) == (5, 8, 3):
            raise ConstructionError("derived dimension 4 != scheme formula 5")
        return real(scheme, q, n=n, r=r, d=d)

    monkeypatch.setattr(cli, "construct", failing)
    rc, out, err = _run(capsys, "sweep", "--scheme", "thm-1.1-i", "--qmax", "5", "--nmax", "12", "--verify")
    assert rc == 1
    assert err == "internal construction failure: derived dimension 4 != scheme formula 5\n"
    assert out == (
        "scheme,q,n,k,r,d,verdict\n"
        "thm-1.1-i,4,3,1,2,3,optimal-certified\n"
        "thm-1.1-i,4,9,5,2,3,optimal-certified\n"
        "thm-1.1-i,5,4,2,3,3,optimal-certified\n"
        "thm-1.1-i,5,8,5,3,3,construction-failed\n"
        "thm-1.1-i,5,12,8,3,3,optimal-certified\n"
    )


def test_sweep_walk_stops_at_the_supported_field_order(capsys):
    # no q above MAX_FIELD_ORDER passes _plan, so a huge --qmax must not
    # walk every integer below it; thm-3.4 with n <= 8 stops at q = 5
    proc = subprocess.run(
        [sys.executable, "-m", "cyclic_lrc.cli", "sweep", "--scheme", "thm-3.4",
         "--qmax", "100000000", "--nmax", "8"],
        capture_output=True, text=True, env=_cli_env(), timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    rc, out, _ = _run(capsys, "sweep", "--scheme", "thm-3.4", "--qmax", "5", "--nmax", "8")
    assert rc == 0
    assert proc.stdout == out


def test_sweep_verify_certifies_fields_above_order_1024(capsys):
    # the scans take every field up to MAX_FIELD_ORDER; 1033 and 1039 give
    # the [3, 2] and [3, 1] codes of n = 3
    rc, out, err = _run(capsys, "sweep", "--scheme", "ex-3.2", "--qmax", "1040", "--nmax", "3", "--verify")
    assert rc == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 200
    assert {row["verdict"] for row in rows} == {"optimal-certified"}
    assert [row["q"] for row in rows if int(row["q"]) > 1024] == ["1033"] * 2 + ["1039"] * 2


def test_verify_agrees_with_sweep_over_the_budget(capsys, tmp_path):
    # one verdict per code: each over-budget row of the criterion box gets
    # from verify the verdict and exit code that sweep prints for it
    budget = str(1 << 20)
    exit_codes = {"optimal-certified": 0, "optimal-consistent": 2}
    seen = set()
    for scheme in ("ex-3.2", "ex-3.3", "thm-1.1-i", "thm-1.1-ii", "thm-3.4"):
        rc, out, _ = _run(capsys, "sweep", "--verify", "--scheme", scheme, "--qmax", "13",
                          "--nmax", "24", "--budget", budget)
        assert rc == 0
        rows = [row for row in _parse_csv(out) if row["verdict"] in exit_codes
                and int(row["q"]) ** int(row["k"]) > 1 << 20]
        assert rows, scheme
        for row in rows:
            path = tmp_path / "c.json"
            argv = ["construct", "--scheme", scheme, "--q", row["q"], "--n", row["n"], "--r", row["r"]]
            if scheme.startswith("ex-"):
                argv += ["--d", row["d"]]
            assert _run(capsys, *argv, "--out", str(path))[0] == 0
            rc, out, _ = _run(capsys, "verify", str(path), "--budget", budget)
            verdict = json.loads(out)["verdict"]
            assert (verdict, rc) == (row["verdict"], exit_codes[row["verdict"]]), row
            seen.add(verdict)
    assert seen == set(exit_codes)


def test_sweep_empty_result(capsys):
    rc, out, _ = _run(capsys, "sweep", "--scheme", "ex-3.2", "--qmax", "3", "--nmax", "2")
    assert rc == 0
    assert out.strip() == "scheme,q,n,k,r,d,verdict"


def test_sweep_rejects_bad_bounds(capsys):
    rc, _, err = _run(capsys, "sweep", "--scheme", "ex-3.2", "--qmax", "1", "--nmax", "2")
    assert rc == 64


def test_flag_errors_use_usage_exit_code(code_file, capsys):
    # exit 2 stays reserved for the consistent-but-uncertified verdict
    rc, _, _ = _run(capsys, "verify", str(code_file), "--budget", "0")
    assert rc == 64
    rc, _, _ = _run(capsys, "verify")
    assert rc == 64


def test_roundtrip_through_load(code_file):
    code = load_code(code_file)
    assert code.scheme == "thm-1.1-ii"
    assert code_to_dict(code)["g"] == [1, 1, 0, 2, 1]
