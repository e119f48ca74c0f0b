"""Output checks for the three workloads, run outside the timed region.

Every check returns a list of problems (empty when the output is right) so
that ``selftest.py`` can feed it deliberately wrong outputs.  ``Tally``
turns check results into the ``attempted`` / ``failed`` counts the benchmark
prints; the run is ``correct`` only when no output was wrong.
"""

from __future__ import annotations

import csv
import io
import json

# verify-heavy: ex-3.2 [12, 6, 5] over GF(13) with locality 2
VERIFY_CODE = {"scheme": "ex-3.2", "q": 13, "n": 12, "r": 2, "d": 5}
VERIFY_ENUMERATED = 13**6 - 1

SWEEP_QMAX, SWEEP_NMAX, SWEEP_BUDGET = 13, 24, 1 << 20
SWEEP_OVER_BUDGET_OK = {"indeterminate", "optimal-consistent", "optimal-certified"}


class Tally:
    """Attempted and failed operations, with the first few problems kept."""

    KEEP = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < self.KEEP:
                self.problems.extend(problems[: self.KEEP - len(self.problems)])

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        room = self.KEEP - len(self.problems)
        self.problems.extend(other["problems"][:max(room, 0)])

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        }

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_verify(exit_code: int, stdout: bytes, reference: bytes | None) -> list[str]:
    """One ``cyclic-lrc verify`` call on the [12, 6, 5] code."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["verify stdout is not JSON"]
    if report.get("verdict") != "optimal-certified":
        problems.append(f"verdict {report.get('verdict')!r}")
    want = {"exact": True, "lower": 5, "upper": 5, "enumerated": VERIFY_ENUMERATED}
    if report.get("distance") != want:
        problems.append(f"distance {report.get('distance')!r} != {want}")
    dual = report.get("dual_distance") or {}
    if not (dual.get("exact") is True and dual.get("lower") == dual.get("upper")):
        problems.append(f"dual distance not exact: {dual!r}")
    if (report.get("locality") or {}).get("ok") is not True:
        problems.append("locality not ok")
    if reference is not None and stdout != reference:
        problems.append("verify stdout differs from the first call")
    return problems


def expected_sweep_rows(scheme: str) -> list[tuple]:
    from cyclic_lrc.constructions import enumerate_valid_params

    return [
        (rec.scheme, rec.q, rec.n, rec.k, rec.r, rec.d, rec.constructible, rec.diagnostic)
        for rec in enumerate_valid_params(scheme, SWEEP_QMAX, SWEEP_NMAX)
    ]


def check_sweep(exit_code: int, stdout: bytes, expected: list[tuple]) -> list[list[str]]:
    """Problems per expected row of one ``cyclic-lrc sweep --verify`` call.

    The row set must equal ``enumerate_valid_params``; no row may be
    refuted; a constructible row within the budget must be certified, one
    over it may be indeterminate, consistent or certified; a row that is not
    constructible must carry its diagnostic.
    """
    if exit_code != 0:
        return [[f"sweep exited {exit_code}"] for _ in expected]
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8", "replace"))))
    if not rows or rows[0] != ["scheme", "q", "n", "k", "r", "d", "verdict"]:
        return [["sweep header missing"] for _ in expected]
    body = rows[1:]
    out = []
    for i, (scheme, q, n, k, r, d, constructible, diagnostic) in enumerate(expected):
        if i >= len(body):
            out.append([f"row {i} missing"])
            continue
        row = body[i]
        key = [scheme, str(q), str(n), str(k), str(r), str(d)]
        if row[:6] != key:
            out.append([f"row {i} is {row[:6]}, expected {key}"])
            continue
        verdict = row[6] if len(row) > 6 else ""
        if verdict == "refuted":
            out.append([f"{key} refuted"])
        elif not constructible:
            out.append([] if verdict == diagnostic else [f"{key} verdict {verdict!r}, expected {diagnostic!r}"])
        elif q**k <= SWEEP_BUDGET:
            out.append([] if verdict == "optimal-certified" else [f"{key} in budget but {verdict!r}"])
        else:
            out.append([] if verdict in SWEEP_OVER_BUDGET_OK else [f"{key} over budget but {verdict!r}"])
    if len(body) > len(expected):
        out[-1] = out[-1] + [f"{len(body) - len(expected)} unexpected extra rows"]
    return out


def check_data_step(code, message, codeword, erased_at: int, repaired) -> list[str]:
    """One encode + repair step of the data path."""
    problems = []
    if not code.base.contains(codeword):
        problems.append(f"{code.n}-symbol codeword over GF({code.q}) is not in the code")
    if tuple(codeword[code.n - code.k:]) != tuple(message):
        problems.append("codeword does not carry its message in the last k coordinates")
    if repaired != codeword[erased_at]:
        problems.append(f"repair of coordinate {erased_at} gave {repaired!r}, erased {codeword[erased_at]!r}")
    return problems
