"""Byte-exact pins of CLI stdout, exit codes, code files and locality
witnesses.  The golden files were captured before the scan kernel was
rewritten; any change to enumeration order or witness choice shows here."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from cyclic_lrc.constructions import ALL_SCHEMES, construct, enumerate_valid_params
from cyclic_lrc.cyclic import DEFAULT_BUDGET
from cyclic_lrc.field import MAX_FIELD_ORDER
from cyclic_lrc.cli import main
from cyclic_lrc.codefile import code_from_dict, code_to_dict, dumps_canonical
from cyclic_lrc.repair import verify_locality

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_verify_ex_3_2_q13(capsys, tmp_path):
    path = tmp_path / "c.json"
    rc, _ = _run(
        capsys, "construct", "--scheme", "ex-3.2", "--q", "13", "--n", "12", "--r", "2",
        "--d", "5", "--out", str(path),
    )
    assert rc == 0
    assert path.read_bytes() == (GOLDEN / "ex-3.2-q13-n12-r2-d5.json").read_bytes()
    rc, out = _run(capsys, "verify", str(path))
    assert rc == 0
    assert out == (GOLDEN / "verify-ex-3.2-q13-n12-r2-d5.out").read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--scheme", "thm-3.4", "--qmax", "9"], "sweep-thm-3.4-qmax9-verify.csv"),
        # certified rows over GF(4), GF(8) and GF(9)
        (["--scheme", "ex-3.3", "--qmax", "9", "--nmax", "10"], "sweep-ex-3.3-qmax9-nmax10-verify.csv"),
        (["--scheme", "thm-1.1-i", "--qmax", "9", "--nmax", "10"], "sweep-thm-1.1-i-qmax9-nmax10-verify.csv"),
    ],
    ids=["thm-3.4", "ex-3.3", "thm-1.1-i"],
)
def test_sweep_verify(capsys, argv, golden):
    rc, out = _run(capsys, "sweep", "--verify", *argv)
    assert rc == 0
    assert out == (GOLDEN / golden).read_text()


def test_sweep_verify_over_criterion_box(capsys):
    # the five tables of the benchmark's sweep-box workload, one digest over
    # their concatenation in ALL_SCHEMES order; re-captured when the rows
    # over the budget were built and given render_verdict's verdict
    digest = hashlib.sha256()
    for scheme in ALL_SCHEMES:
        rc, out = _run(capsys, "sweep", "--verify", "--scheme", scheme, "--qmax", "13",
                       "--nmax", "24", "--budget", str(1 << 20))
        assert rc == 0, scheme
        digest.update(out.encode())
    assert digest.hexdigest() == (GOLDEN / "sweep-verify-qmax13-nmax24.sha256").read_text().strip()


def test_coset_locality_witnesses_over_criterion_box():
    # every constructible row of the five schemes at --qmax 13 --nmax 24,
    # restricted solution spaces of dimension 1 to 11; the digest was taken
    # from the coset nullspace solver that the grid witness replaced
    cases = []
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 13, 24):
            if not rec.constructible:
                continue
            code = construct(rec.scheme, rec.q, n=rec.n, r=rec.r, d=rec.d)
            check = verify_locality(code)
            assert check.method == "coset-witness", rec
            cases.append(
                {"scheme": rec.scheme, "q": rec.q, "n": rec.n, "k": rec.k, "r": rec.r,
                 "d": rec.d, "check": check.to_dict()}
            )
    assert len(cases) == 260
    digest = hashlib.sha256(dumps_canonical(cases).encode()).hexdigest()
    assert digest == (GOLDEN / "locality-coset-qmax13-nmax24.sha256").read_text().strip()


def test_code_files_over_criterion_box():
    # every constructible row of the five schemes at --qmax 13 --nmax 24;
    # re-captured when the thm schemes were built in GF(q) and stored no beta
    digest = hashlib.sha256()
    rows = 0
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 13, 24):
            if not rec.constructible:
                continue
            code = construct(rec.scheme, rec.q, n=rec.n, r=rec.r, d=rec.d)
            text = dumps_canonical(code_to_dict(code))
            # save -> load -> save is byte identical
            assert dumps_canonical(code_to_dict(code_from_dict(json.loads(text)))) == text, rec
            digest.update(text.encode())
            rows += 1
    assert rows == 260
    assert digest.hexdigest() == (GOLDEN / "codes-qmax13-nmax24.sha256").read_text().strip()


def test_code_files_over_the_property_box():
    # the code file of every constructible row of --qmax 32 --nmax 40, one
    # line each; captured while ex generators were built root by root from
    # the head run plus a stride-(r+1) tail, before every scheme shared the
    # grid-factor formula
    digest = hashlib.sha256()
    rows = 0
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 32, 40):
            if not rec.constructible:
                continue
            code = construct(scheme, rec.q, n=rec.n, r=rec.r, d=rec.d)
            digest.update(dumps_canonical(code_to_dict(code)).encode() + b"\n")
            rows += 1
    assert rows == 1756
    assert digest.hexdigest() == (GOLDEN / "generators-qmax32-nmax40.sha256").read_text().strip()


# (qmax, nmax) pairs: the smallest box, boxes with only prime or only
# extension rows, the criterion box, and the property-test box
ENUMERATION_BOUNDS = ((2, 2), (4, 4), (8, 14), (9, 16), (13, 24), (31, 12), (32, 40))


def enumeration_digest() -> str:
    digest = hashlib.sha256()
    for scheme in ALL_SCHEMES:
        for q_max, n_max in ENUMERATION_BOUNDS:
            for rec in enumerate_valid_params(scheme, q_max, n_max):
                digest.update(f"{q_max} {n_max} {rec!r}\n".encode())
    return digest.hexdigest()


# integer arguments of construct, each with None and out-of-range values;
# n = 27 has a splitting field over GF(7) beyond the supported order, which
# thm-1.1-i does not need
CONSTRUCT_LENGTHS = (None, -1, 0, 1, 2, 3, 4, 6, 8, 9, 10, 12, 16, 24, 27)
CONSTRUCT_LOCALITIES = (None, -1, 0, 1, 2, 3, 4, 5)
CONSTRUCT_DISTANCES = (None, -1, 0, 1, 2, 3, 4, 5, 6, 8, 12)


def construct_outcome_digest() -> str:
    """SHA-256 over the outcome of every construct call of the grid: the
    exception type and message, or [n, k, d] of the code."""
    digest = hashlib.sha256()
    for scheme in ALL_SCHEMES:
        for q in range(34):
            for n in CONSTRUCT_LENGTHS:
                for r in CONSTRUCT_LOCALITIES:
                    for d in CONSTRUCT_DISTANCES:
                        try:
                            code = construct(scheme, q, n=n, r=r, d=d)
                        except Exception as exc:  # noqa: BLE001  (the type is the outcome)
                            outcome = f"{type(exc).__name__}: {exc}"
                        else:
                            outcome = f"[{code.n}, {code.k}, {code.d_claimed}]"
                        digest.update(f"{scheme} {q} {n} {r} {d} {outcome}\n".encode())
    return digest.hexdigest()


def _splits_within_the_supported_order(q, n):
    """Some GF(q^m) of at most MAX_FIELD_ORDER holds a primitive n-th root:
    q^m = 1 mod n, by walking the powers of q."""
    power = q
    while power <= MAX_FIELD_ORDER:
        if power % n == 1 % n:
            return True
        power *= q
    return False


def test_bch_bounds_over_the_property_box():
    # "scheme q n r d bch" of every row of --qmax 32 --nmax 40 whose splitting
    # field fits, captured while the bound read the zeros found in that
    # field; the 25 rows past it, which had no bound then, read 3 from the
    # zeros the construction states.  None of them fits the default budget,
    # so no exact scan can check them; the scans of the in-budget rows check
    # the bound in test_acceptance and test_verify
    digest = hashlib.sha256()
    rows, beyond = 0, []
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 32, 40):
            if not rec.constructible:
                continue
            bch = construct(scheme, rec.q, n=rec.n, r=rec.r, d=rec.d).base.bch_lower_bound()
            if not _splits_within_the_supported_order(rec.q, rec.n):
                beyond.append((bch, rec.q**rec.k - 1 > DEFAULT_BUDGET))
                continue
            digest.update(f"{scheme} {rec.q} {rec.n} {rec.r} {rec.d} {bch}\n".encode())
            rows += 1
    assert (rows, beyond) == (1731, [(3, True)] * 25)
    assert digest.hexdigest() == (GOLDEN / "bch-qmax32-nmax40.sha256").read_text().strip()


def test_enumerated_rows():
    # repr of every listed row; captured before the scheme preconditions
    # were moved into one place
    assert enumeration_digest() == (GOLDEN / "enumeration-rows.sha256").read_text().strip()


def test_construct_outcomes_over_argument_grid():
    # captured before the scheme preconditions were moved into one place
    expected = (GOLDEN / "construct-outcomes.sha256").read_text().strip()
    assert construct_outcome_digest() == expected
