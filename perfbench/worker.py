"""Child processes of the benchmark; ``run.py`` starts every one of them.

    worker.py setup WORKLOAD   the workload's set-up alone, then exit
    worker.py data-path        seeded encode + repair loop over eight codes
    worker.py cli SPANS SPAWN_NS TRACE_ID ARGS...
                               ``cyclic_lrc.cli.main(ARGS)`` under tracing

Each mode except ``cli`` prints one JSON line last, holding ``ready_ns``
(``time.monotonic_ns`` when set-up ended, so the parent can time set-up from
its own spawn stamp) and the mode's measurements.  ``--spans FILE`` turns
tracing on; spans are appended to FILE when the process ends, under trace
ids that start with ``--trace-id``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

import checks
from spans import Tracer

# data-path codes: (scheme, q, n, r, d), one or more per scheme, prime and
# extension fields, lengths 8 to 32
DATA_CODES = (
    ("thm-1.1-i", 4, 9, 2, None),  # GF(4)  [9, 5, 3]
    ("thm-1.1-ii", 5, 8, 3, None),  # GF(5)  [8, 4, 4]
    ("ex-3.2", 13, 12, 2, 5),  # GF(13) [12, 6, 5]
    ("ex-3.3", 11, 12, 3, 10),  # GF(11) [12, 3, 10]
    ("thm-1.1-ii", 16, 15, 4, None),  # GF(16) [15, 10, 4]
    ("ex-3.2", 25, 24, 3, 6),  # GF(25) [24, 15, 6]
    ("ex-3.2", 31, 30, 4, 7),  # GF(31) [30, 20, 7]
    ("thm-3.4", 17, None, 3, None),  # GF(17) [32, 22, 4]
)
DATA_STEPS_PER_CODE = 50  # steps per code in one pass
DATA_POOL = 64  # seeded (message, erasure) inputs per code


def _ready() -> dict:
    return {"ready_ns": time.monotonic_ns()}


def _modules():
    from cyclic_lrc import cli, codefile, constructions, repair  # noqa: F401

    return constructions, codefile, repair


# -- set-up ------------------------------------------------------------------


def setup_verify(work: Path) -> Path:
    constructions, codefile, _ = _modules()
    c = checks.VERIFY_CODE
    code = constructions.construct(c["scheme"], c["q"], n=c["n"], r=c["r"], d=c["d"])
    path = work / "code.json"
    codefile.save_code(code, path)
    return path


def setup_data_path(seed: int):
    """Codes, every repair plan, and the seeded inputs."""
    constructions, _, repair = _modules()
    codes = []
    for scheme, q, n, r, d in DATA_CODES:
        code = constructions.construct(scheme, q, n=n, r=r, d=d)
        for i in range(code.n):
            repair.repair_vector(code, i)
        codes.append(code)
    rng = random.Random(seed)
    pools = []
    for code in codes:
        field = code.field
        pools.append([
            (tuple(field.from_index(rng.randrange(field.q)) for _ in range(code.k)),
             rng.randrange(code.n))
            for _ in range(DATA_POOL)
        ])
    return codes, pools


# -- data path -----------------------------------------------------------------


def data_path(args) -> dict:
    tracer = Tracer(f"{args.trace_id}/setup") if args.spans else None
    if tracer:
        tracer.install()
    codes, pools = setup_data_path(args.seed)
    if tracer:
        tracer.uninstall()
    _, _, repair = _modules()
    from cyclic_lrc.repair import ErasedWord

    out = _ready()
    tally = checks.Tally()
    encode_ns = symbols = 0
    repair_ns: list[int] = []
    walls = {"pass_s": [], "traced_pass_s": []}

    def one_pass(p: int, traced: bool) -> float:
        nonlocal encode_ns, symbols
        outputs = []
        lat = []
        t_pass = time.perf_counter()
        for j in range(DATA_STEPS_PER_CODE):
            slot = (p * DATA_STEPS_PER_CODE + j) % DATA_POOL
            for c, code in enumerate(codes):
                message, at = pools[c][slot]
                if traced:
                    tracer.trace = f"{args.trace_id}/{p}/{j}/{c}"
                t0 = time.perf_counter_ns()
                word = code.base.encode_systematic(message)
                t1 = time.perf_counter_ns()
                symbols_in = list(word)
                symbols_in[at] = None
                erased = ErasedWord(tuple(symbols_in), at)
                t2 = time.perf_counter_ns()
                got = repair.repair_erasure(code, erased)
                t3 = time.perf_counter_ns()
                outputs.append((code, message, word, at, got))
                lat.append((t1 - t0, code.n, t3 - t2))
        wall = time.perf_counter() - t_pass
        for code, message, word, at, got in outputs:
            tally.record(checks.check_data_step(code, message, word, at, got))
        if not traced:
            for enc, n, rep in lat:
                encode_ns += enc
                symbols += n
                repair_ns.append(rep)
        return wall

    # with tracing, each round is an untraced pass and then a traced one, so
    # the overhead compares adjacent passes of one process and the untraced
    # rates come from the same process
    kinds = ("pass_s", "traced_pass_s") if tracer else ("pass_s",)
    rounds: list[float] = []
    start = time.perf_counter()
    p = 0
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= args.seconds:
        t_round = time.perf_counter()
        for kind in kinds:
            traced = kind == "traced_pass_s"
            if traced:
                tracer.install()
            walls[kind].append(one_pass(p, traced))
            if traced:
                tracer.uninstall()
            p += 1
        rounds.append(time.perf_counter() - t_round)
    if tracer:
        tracer.write(args.spans)
    out.update(walls, tally=tally.to_dict(), encode_ns=encode_ns, encode_symbols=symbols,
               repair_ns=repair_ns)
    return out


# -- traced CLI ----------------------------------------------------------------------


def traced_cli(spans_path: str, spawn_ns: int, trace_id: str, argv: list[str]) -> int:
    tracer = Tracer(trace_id)
    tracer.install()
    from cyclic_lrc import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        main_span = next(s for s in tracer.spans if s.name == "cli.main")
        tracer.add("cli.process_start", spawn_ns, main_span.start_ns)
        tracer.write(spans_path)


def main() -> int:
    if sys.argv[1:2] == ["cli"]:
        spans_path, spawn_ns, trace_id, *argv = sys.argv[2:]
        return traced_cli(spans_path, int(spawn_ns), trace_id, argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "data-path"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--work", default=".")
    parser.add_argument("--spans")
    parser.add_argument("--trace-id", help="prefix of the trace ids, unique per process")
    args = parser.parse_args()
    if args.mode == "setup":
        if args.workload == "verify-heavy":
            setup_verify(Path(args.work))
        elif args.workload == "data-path":
            setup_data_path(args.seed)
        else:
            _modules()
        out = _ready()
    else:
        out = data_path(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
