"""Command-line front end: construct, verify, encode, repair and sweep.

Symbols on the command line are comma-separated canonical element indices
(for prime fields these are plain residues); "_" marks the erased position
in a repair word.  Exit codes: 0 optimal-certified (locality verified, d the
Singleton-type bound, and a proven lower bound, exact scan or BCH, reaches
d), 2 optimal-consistent (no proven lower bound reaches d), 3 refuted /
integrity failure, 4 indeterminate, 1 construction precondition failure or
a code too large to encode, 5 corrupt input (a repair word whose filled-in
form is not a codeword), 64 usage errors, unreadable code files and
unwritable ``--out`` paths, 141 (128 + SIGPIPE) when stdout is closed
early.  All output is byte-deterministic for fixed arguments.

The installed ``cyclic-lrc`` script and ``python -m cyclic_lrc.cli`` enter
through :func:`run`, which ends the process with ``os._exit`` once stdout
and stderr are flushed: the interpreter is not torn down and no atexit
handler runs.  :func:`main` returns its exit code and exits nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys

from .codefile import (
    CodeFileFormatError,
    CodeFileInvariantError,
    dumps_canonical,
    load_code,
    save_code,
)
from .constructions import (
    ALL_SCHEMES,
    ConstructionError,
    ParameterError,
    construct,
    enumerate_valid_params,
)
from .cyclic import DEFAULT_BUDGET
from .field import FiniteField
from .repair import ErasedWord, RepairError, repair_erasure
from .verify import VERDICT_EXIT_CODES, render_verdict, verify_optimal

EX_CORRUPT = 5
EX_USAGE = 64
EX_PIPE = 141  # 128 + SIGPIPE


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _parse_symbols(field: FiniteField, text: str, allow_erasure: bool):
    symbols = []
    for token in text.split(","):
        token = token.strip()
        if allow_erasure and token == "_":
            symbols.append(None)
            continue
        try:
            symbols.append(field.from_index(int(token)))
        except ValueError as exc:
            raise CliError(f"bad symbol {token!r}: {exc}", EX_USAGE) from None
    return symbols


def _load(path: str):
    try:
        return load_code(path)
    except CodeFileFormatError as exc:
        raise CliError(f"unreadable code file: {exc}", EX_USAGE) from None
    except CodeFileInvariantError as exc:
        raise CliError(f"code file integrity failure: {exc}", 3) from None


def _construct(scheme: str, q: int, n: int | None, r: int | None, d: int | None):
    try:
        return construct(scheme, q, n=n, r=r, d=d)
    except ParameterError as exc:
        raise CliError(str(exc), 1) from None
    except ConstructionError as exc:
        raise CliError(f"internal construction failure: {exc}", 1) from None


def _encode(method, word):
    """encode_systematic or contains; a code too large to encode exits 1."""
    try:
        return method(word)
    except ValueError as exc:
        raise CliError(str(exc), 1) from None


def _cmd_construct(args) -> int:
    code = _construct(args.scheme, args.q, args.n, args.r, args.d)
    print(f"[n, k, d] = [{code.n}, {code.k}, {code.d_claimed}] over GF({code.q})")
    print(f"locality r = {code.r}")
    print(f"g(x) = {code.base.g}")
    if args.out:
        try:
            save_code(code, args.out)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}", EX_USAGE) from None
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    code = _load(args.code_file)
    report = verify_optimal(code, budget=args.budget)
    sys.stdout.write(dumps_canonical(report.to_dict()))
    return VERDICT_EXIT_CODES[report.verdict]


def _cmd_encode(args) -> int:
    code = _load(args.code_file)
    message = _parse_symbols(code.field, args.message, allow_erasure=False)
    if len(message) != code.k:
        raise CliError(f"message needs k = {code.k} symbols, got {len(message)}", EX_USAGE)
    word = _encode(code.base.encode_systematic, message)
    print(",".join(str(s.index) for s in word))
    return 0


def _cmd_repair(args) -> int:
    code = _load(args.code_file)
    symbols = _parse_symbols(code.field, args.word, allow_erasure=True)
    if len(symbols) != code.n:
        raise CliError(f"word needs n = {code.n} symbols, got {len(symbols)}", EX_USAGE)
    try:
        erased = ErasedWord.from_symbols(symbols)
    except ValueError as exc:
        raise CliError(str(exc), EX_USAGE) from None
    try:
        symbol = repair_erasure(code, erased)
    except RepairError as exc:
        raise CliError(f"no repair plan: {exc}", 3) from None
    filled = list(symbols)
    filled[erased.erased_at] = symbol
    if not _encode(code.base.contains, filled):
        raise CliError("corrupt input: the repaired word is not a codeword", EX_CORRUPT)
    reads = [j for j, _ in code.repair_plan[erased.erased_at]]
    print(symbol.index)
    print("read: " + ",".join(str(j) for j in reads))
    return 0


def _cmd_sweep(args) -> int:
    try:
        records = enumerate_valid_params(args.scheme, args.qmax, args.nmax)
    except ParameterError as exc:
        raise CliError(str(exc), EX_USAGE) from None
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scheme", "q", "n", "k", "r", "d", "verdict"])
    status = 0
    for rec in records:
        if not rec.constructible:
            verdict = rec.diagnostic or "not-constructible"
        elif not args.verify:
            verdict = ""
        else:
            try:
                code = _construct(rec.scheme, rec.q, rec.n, rec.r, rec.d)
            except CliError as exc:
                # the row keeps its place; the table still prints
                print(str(exc), file=sys.stderr)
                verdict, status = "construction-failed", exc.code
            else:
                verdict = render_verdict(code, budget=args.budget)[0]
        writer.writerow([rec.scheme, rec.q, rec.n, rec.k, rec.r, rec.d, verdict])
    sys.stdout.write(out.getvalue())
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic-lrc",
        description="Construct, verify, encode and repair cyclic locally repairable codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code and write its JSON description")
    p.add_argument("--scheme", required=True, choices=ALL_SCHEMES)
    p.add_argument("--q", required=True, type=int, help="field order (prime power)")
    p.add_argument("--n", type=int, help="code length (fixed to 2(q-1) for thm-3.4)")
    p.add_argument("--r", required=True, type=int, help="locality")
    p.add_argument("--d", type=int, help="distance (ex-3.2 / ex-3.3 only)")
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="certify optimality of a stored code")
    p.add_argument("code_file")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET, help="max enumerations per oracle")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("encode", help="systematically encode a message")
    p.add_argument("code_file")
    p.add_argument("--message", required=True, help="k comma-separated symbols")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("repair", help="repair the single erased symbol of a word")
    p.add_argument("code_file")
    p.add_argument("--word", required=True, help='n comma-separated symbols with one "_"')
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("sweep", help="enumerate admissible parameters as CSV")
    p.add_argument("--scheme", required=True, choices=ALL_SCHEMES)
    p.add_argument("--qmax", required=True, type=int)
    p.add_argument("--nmax", type=int, default=None, help="default: 2*(qmax - 1)")
    p.add_argument("--verify", action="store_true", help="append a verdict per row")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # keep exit 2 reserved for the consistent-but-uncertified verdict
        return 0 if exc.code == 0 else EX_USAGE
    if getattr(args, "nmax", 0) is None:
        args.nmax = max(2, 2 * (args.qmax - 1))
    try:
        try:
            return args.func(args)
        except CliError as exc:
            print(str(exc), file=sys.stderr)
            return exc.code
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (and stderr too, under 2>&1): point stdout
        # at devnull, so the flush at exit is silent, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        with contextlib.suppress(BrokenPipeError):
            print("stdout closed before the output was complete", file=sys.stderr)
        return EX_PIPE


def run() -> None:
    """:func:`main`, a flush of stdout and stderr, then ``os._exit`` with
    main's status; a reader that closed stdout before the flush makes it
    141."""
    status = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        status = EX_PIPE
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
