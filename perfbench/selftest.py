#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and of BENCHMARK.json.

    python3 perfbench/selftest.py      (from the checkout root)

Each check is fed one right output, which must pass, and one deliberately
wrong output (a report with the wrong distance or changed bytes, a
``refuted`` sweep row, a flipped repair symbol), which must count as a failed
operation in ``failed_ratio``.  Then the metric names and units that
``run.py`` prints are compared with BENCHMARK.json.  Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from cyclic_lrc import ErasedWord, construct, repair_erasure  # noqa: E402
from cyclic_lrc.codefile import dumps_canonical  # noqa: E402


def expect(tally: checks.Tally, problems, failed: bool, what: str) -> None:
    before = tally.failed
    tally.record(problems)
    if (tally.failed > before) != failed:
        raise SystemExit(f"selftest: {what}: expected failed={failed}, problems={problems}")


def verify_check(tally: checks.Tally) -> None:
    report = {
        "verdict": "optimal-certified",
        "distance": {"exact": True, "lower": 5, "upper": 5,
                     "enumerated": checks.VERIFY_ENUMERATED},
        "dual_distance": {"exact": True, "lower": 3, "upper": 3,
                          "enumerated": checks.VERIFY_ENUMERATED},
        "locality": {"ok": True, "method": "coset-witness", "r_test": 2},
    }
    good = dumps_canonical(report).encode()
    expect(tally, checks.check_verify(0, good, good), False, "verify, right report")
    wrong = copy.deepcopy(report)
    wrong["distance"].update(lower=4, upper=4)
    expect(tally, checks.check_verify(0, dumps_canonical(wrong).encode(), None), True,
           "verify, wrong distance")
    expect(tally, checks.check_verify(0, good + b" ", good), True, "verify, changed bytes")


def sweep_check(tally: checks.Tally) -> None:
    expected = checks.expected_sweep_rows("thm-3.4")
    lines = ["scheme,q,n,k,r,d,verdict"]
    for scheme, q, n, k, r, d, constructible, diagnostic in expected:
        if not constructible:
            verdict = diagnostic
        elif q**k <= checks.SWEEP_BUDGET:
            verdict = "optimal-certified"
        else:
            verdict = "indeterminate"
        lines.append(f"{scheme},{q},{n},{k},{r},{d},{verdict}")
    good = ("\n".join(lines) + "\n").encode()
    for problems in checks.check_sweep(0, good, expected):
        expect(tally, problems, False, "sweep, right CSV")
    wrong_lines = list(lines)
    wrong_lines[1] = wrong_lines[1].rsplit(",", 1)[0] + ",refuted"
    wrong = ("\n".join(wrong_lines) + "\n").encode()
    results = checks.check_sweep(0, wrong, expected)
    expect(tally, results[0], True, "sweep, refuted row")
    for problems in results[1:]:
        expect(tally, problems, False, "sweep, rows after the refuted one")


def data_check(tally: checks.Tally) -> None:
    code = construct("thm-1.1-ii", 5, n=8, r=3)
    field = code.field
    message = tuple(field.from_index(i) for i in (1, 2, 3, 4))
    word = code.base.encode_systematic(message)
    symbols = list(word)
    symbols[2] = None
    got = repair_erasure(code, ErasedWord(tuple(symbols), 2))
    expect(tally, checks.check_data_step(code, message, word, 2, got), False, "data, right repair")
    flipped = got + field.one()
    expect(tally, checks.check_data_step(code, message, word, 2, flipped), True,
           "data, flipped repair symbol")


def benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        raise SystemExit(f"selftest: end_to_end {e2e} != run.py {run.END_TO_END_UNITS}")
    names = list(spans.layer_metrics([], 1, 1.0)) + list(run.trace_extras(1.0, 1, {}))
    printed = {name: run.per_layer_unit(name) for name in names}
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if printed != listed:
        raise SystemExit(f"selftest: per_layer differs: printed-only "
                         f"{sorted(set(printed.items()) - set(listed.items()))}, listed-only "
                         f"{sorted(set(listed.items()) - set(printed.items()))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        raise SystemExit("selftest: workloads differ between BENCHMARK.json and run.py")


def main() -> int:
    tally = checks.Tally()
    verify_check(tally)
    sweep_check(tally)
    data_check(tally)
    benchmark_json()
    wrong_outputs = 4
    if tally.failed != wrong_outputs:
        raise SystemExit(f"selftest: {tally.failed} failed, expected {wrong_outputs}")
    print(f"selftest ok: failed_ratio {tally.failed_ratio:.4f} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
