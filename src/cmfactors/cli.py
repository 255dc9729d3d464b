"""Command-line front end: scans, verification, identity checks, exports.

Subcommands:
    scan      stream per-prime records to CSV plus a JSON summary
    verify    compare the records scan writes with the brute-force oracle
    identity  exact divisor-decomposition identity at a bound
    aux       schur / wintner / bt / trivlem diagnostics

A model outside the packaged table comes in only by --custom, and only
once the records scan writes for it match the oracle up to p = 200.

Exit codes: 0 success, 1 failed check or mismatch (an ArithmeticError
itself, as the Frobenius rule's guard raises, or a scan worker that died
without a result), 2 bad arguments (a --custom model that fails the gate
among them), 3 ambiguous Frobenius above the gate (with the prime reported;
only the point sampling of a --custom model can raise it).  A subclass of
ArithmeticError, such as ZeroDivisionError, is a bug and keeps its traceback.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np

from . import stats
from .eccurve import CmCurve, custom_curve, get_curve
from .frobenius import BAD, KINDS, AmbiguousFrobenius, PrimeRecord
from .oracle import ENUMERATION_BOUND, group_structure
from .quadorder import QuadInt, order
from .stats import SumAccumulator, scan

# perfbench/tracing.py times these by rebinding them in this module.
from .frobenius import dp_ep  # noqa: F401
from .primesieve import primes_upto  # noqa: F401

CSV_HEADER = "p,kind,a_p,pi_a,pi_b,N,d_p,e_p"


def _resolve_curve(args) -> CmCurve:
    if args.custom and args.curve:
        raise SystemExit2("--custom cannot be combined with --curve")
    if args.custom:
        try:
            a, b, g, f = (int(t) for t in args.custom.split(","))
        except ValueError:
            raise SystemExit2(f"--custom expects four integers A,B,g,f, got {args.custom!r}")
        try:
            curve = custom_curve(a, b, g, f)
            _, mismatches = oracle_mismatches(curve, 200)
        except ValueError as e:
            raise SystemExit2(f"--custom {args.custom}: {e}")
        except AmbiguousFrobenius as e:
            raise SystemExit2(f"custom curve failed validation at p={e.p}: ambiguous Frobenius")
        if mismatches:
            p, rec, (d, e, n) = mismatches[0]
            raise SystemExit2(
                f"custom curve failed validation at p={p}: pipeline(d,e,N,a)="
                f"({rec.d_p},{rec.e_p},{rec.N},{rec.a_p}) but oracle(d,e,N)=({d},{e},{n})"
            )
        return curve
    if not args.curve:
        raise SystemExit2("one of --curve or --custom is required")
    try:
        return get_curve(args.curve)
    except KeyError as e:
        raise SystemExit2(str(e))


class SystemExit2(Exception):
    """Bad arguments detected after parsing."""


def _record_line(rec) -> str:
    return (
        f"{rec.p},{rec.kind},{rec.a_p},{rec.pi_a},{rec.pi_b},"
        f"{rec.N},{rec.d_p},{rec.e_p}"
    )


# KINDS as a byte table, each name NUL-padded to the width of the longest.
_KIND_WIDTH = max(map(len, KINDS))
_KIND_BYTES = np.array([list(k.ljust(_KIND_WIDTH, "\0").encode()) for k in KINDS], dtype=np.uint8)


def _block_bytes(rows: np.ndarray) -> bytes:
    """The CSV lines of a scan's (n, 8) int64 record rows, as _record_line writes them.

    Every value must satisfy |v| < 2^62.  The rows are laid out as one
    (n, width) uint8 matrix: per column an optional sign slot, the decimal
    digits right-aligned in the width of the column's largest value, then
    ',' (the last column's is '\n'); the kind column holds its name from
    a NUL-padded byte table.  Leading zeros, the sign slots of nonnegative
    values and kind padding are NUL, so the matrix read row by row with
    its NULs deleted by one bytes.translate is the text.  The matrix is
    stored column-major, like the rows _record_block builds, so that each
    digit position is one contiguous write.  Digits come from repeated
    division by the scalar 10, which numpy does far faster than a
    broadcast division by a column of powers of ten, and in uint32 when
    the column fits.
    """
    n = len(rows)
    layout = []
    for j, col in enumerate(rows.T):
        if j == 1:
            layout.append((col, False, _KIND_WIDTH))
            continue
        m = np.abs(col)
        top = int(m.max()) if n else 0
        layout.append((m.astype(np.uint32) if top < 1 << 32 else m,
                       n > 0 and bool((col < 0).any()), len(str(top))))
    width = sum(sign + w + 1 for _, sign, w in layout)
    text = np.empty((n, width), dtype=np.uint8, order="F")
    at = 0
    for j, (m, sign, w) in enumerate(layout):
        if sign:
            np.less(rows[:, j], 0, out=text[:, at].view(bool))
            text[:, at] *= ord("-")
            at += 1
        if j == 1:
            text[:, at:at + w] = _KIND_BYTES[m]
        else:
            for k in range(at + w - 1, at - 1, -1):
                q = m // 10
                # '0' plus the digit while any digit is left, else NUL.
                digit = text[:, k]
                np.greater(m, 0, out=digit.view(bool))
                digit *= ord("0")
                np.add(digit, m - q * 10, out=digit, casting="unsafe")
                m = q
            # A zero still shows its units digit.
            text[:, at + w - 1] |= ord("0")
        at += w
        text[:, at] = ord(",")
        at += 1
    text[:, -1] = ord("\n")
    return text.tobytes(order="C").translate(None, b"\0")


def _summary_text(curve: CmCurve, seed, acc: SumAccumulator, x_max: int) -> str:
    summary = {
        "curve": curve.label,
        "seed": seed,
        "xmax": x_max,
        "sum_dp": acc.sum_dp,
        "sum_ep": acc.sum_ep,
        "counts": acc.counts,
        "checkpoints": [
            {"x": c.x, "sum_dp": c.sum_dp, "sum_ep": c.sum_ep, "pi_x": c.pi_x}
            for c in acc.checkpoints
        ],
    }
    return json.dumps(summary, sort_keys=True, indent=2)


@contextlib.contextmanager
def _atomic_outputs(path: str):
    """Open binary temp files beside PATH and PATH.summary.json; yield (csv, summary).

    They are renamed into place only if the body completes; on any
    exception they are removed, so no partial target is left behind.
    An unusable or empty PATH raises SystemExit2 before the body runs.
    """
    if not path:
        raise SystemExit2("--out: empty path")
    if os.path.isdir(path):
        raise SystemExit2(f"--out {path}: is a directory")
    targets = (path, path + ".summary.json")
    temps = [f"{t}.{os.getpid()}.tmp" for t in targets]
    try:
        with contextlib.ExitStack() as files:
            try:
                handles = [files.enter_context(open(t, "wb")) for t in temps]
            except OSError as e:
                raise SystemExit2(f"--out {path}: {e.strerror}")
            yield handles
        for tmp, target in zip(temps, targets):
            os.replace(tmp, target)
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def cmd_scan(args) -> int:
    curve = _resolve_curve(args)
    if not 2 <= args.xmax < stats.X_MAX_LIMIT:
        raise SystemExit2("--xmax must lie in [2, 2^50)")
    if not 1 <= args.workers <= stats.MAX_WORKERS:
        raise SystemExit2(f"--workers must lie in [1, {stats.MAX_WORKERS}]")
    try:
        checkpoints = [int(t) for t in args.checkpoints.split(",")] if args.checkpoints else []
    except ValueError:
        raise SystemExit2(f"--checkpoints expects comma-separated integers, got {args.checkpoints!r}")
    outside = [x for x in checkpoints if not 2 <= x <= args.xmax]
    if outside:
        raise SystemExit2(f"checkpoint {outside[0]} lies outside [2, --xmax {args.xmax}]")
    if args.out is None:
        acc = scan(curve, args.xmax, checkpoints=checkpoints, workers=args.workers)
        print(_summary_text(curve, args.seed, acc, args.xmax))
        return 0
    with _atomic_outputs(args.out) as (csv_fh, summary_fh):
        csv_fh.write(f"{CSV_HEADER}\n".encode())
        acc = scan(
            curve,
            args.xmax,
            checkpoints=checkpoints,
            workers=args.workers,
            records=csv_fh.write,
            render=_block_bytes,
        )
        text = _summary_text(curve, args.seed, acc, args.xmax)
        summary_fh.write(f"{text}\n".encode())
    # One record per prime.
    print(f"wrote {acc.pi_x} records to {args.out}")
    print(f"wrote summary to {args.out}.summary.json")
    print(text)
    return 0


def oracle_mismatches(curve: CmCurve, pmax: int) -> tuple[int, list]:
    """Compare the records scan writes for p <= pmax with group_structure.

    Returns (checked, mismatches): the number of good primes compared and,
    in increasing p, (p, record, (d, e, N)) for each record whose
    (d_p, e_p, N, a_p) is not the oracle's (d, e, d*e, p + 1 - d*e).  An
    AmbiguousFrobenius from the scan propagates.
    """
    checked = 0
    mismatches = []
    bad = KINDS.index(BAD)

    def check(rows):
        nonlocal checked
        for p, kind, a_p, pi_a, pi_b, n_rec, d_p, e_p in rows.tolist():
            if kind == bad:
                continue
            checked += 1
            d, e = group_structure(curve, p)
            n = d * e
            if (d_p, e_p, n_rec, a_p) != (d, e, n, p + 1 - n):
                rec = PrimeRecord(p, KINDS[kind], a_p, pi_a, pi_b, n_rec, d_p, e_p)
                mismatches.append((p, rec, (d, e, n)))

    scan(curve, pmax, workers=1, records=check)
    return checked, mismatches


def cmd_verify(args) -> int:
    curve = _resolve_curve(args)
    if not 2 <= args.pmax <= ENUMERATION_BOUND:
        raise SystemExit2(f"--pmax must lie in [2, {ENUMERATION_BOUND}]")
    checked, mismatches = oracle_mismatches(curve, args.pmax)
    if mismatches:
        print(f"{curve.label}: {len(mismatches)} mismatches over {checked} good primes")
        print("p,pipeline(d,e,N,a),oracle(d,e,N)")
        for p, rec, oracle_t in mismatches:
            print(f"{p},({rec.d_p},{rec.e_p},{rec.N},{rec.a_p}),{oracle_t}")
        return 1
    print(f"{curve.label}: 0 mismatches over {checked} good primes up to {args.pmax}")
    return 0


def cmd_identity(args) -> int:
    curve = _resolve_curve(args)
    if not 2 <= args.x < stats.X_MAX_LIMIT:
        raise SystemExit2("--x must lie in [2, 2^50)")
    lhs, rhs, equal = stats.decomposition_check(curve, args.x)
    print(f"lhs={lhs} rhs={rhs} equal={equal}")
    return 0 if equal else 1


@contextlib.contextmanager
def _unlimited_int_text():
    """Lift Python's limit on the digits of an int converted to str, which
    an exact aux sum near EXACT_SUM_BOUND passes, for the body only."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # Python >= 3.11
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def _parse_pair(text: str, od) -> QuadInt:
    parts = text.split(",")
    try:
        a, b = (int(parts[0]), int(parts[1])) if len(parts) == 2 else (int(text), 0)
    except ValueError:
        raise SystemExit2(f"expected integer coordinates a or a,b, got {text!r}")
    return QuadInt(a, b, od)


def cmd_schur(args) -> int:
    try:
        val = stats.schur_sum(args.t)
    except ValueError as e:
        raise SystemExit2(f"--t: {e}")
    ratio = val / args.t
    if isinstance(val, Fraction):
        with _unlimited_int_text():
            print(f"sum={val} sum/t={float(ratio):.6f}")
    else:
        print(f"sum={val:.6f} sum/t={ratio:.6f}")
    return 0


def cmd_wintner(args) -> int:
    try:
        s = stats.wintner_sum(args.z)
    except ValueError as e:
        raise SystemExit2(f"--z: {e}")
    if isinstance(s, Fraction):
        with _unlimited_int_text():
            print(f"sum={s}")
    else:
        print(f"sum={s:.6f}")
    if args.z >= 2:
        # The sum has a mean value, so sum / log z stabilizes.
        print(f"slope={float(s) / math.log(args.z):.6f}")
    return 0


def cmd_bt(args) -> int:
    try:
        od = order(args.g, 1)
    except ValueError as e:
        raise SystemExit2(f"--g: {e}")
    mu = _parse_pair(args.mu, od)
    alpha = _parse_pair(args.alpha, od)
    try:
        count = stats.bt_counter(args.x, mu, alpha)
    except (ValueError, OverflowError) as e:
        raise SystemExit2(str(e))
    print(f"count={count} ratio={stats.bt_ratio(args.x, mu, count):.6f}")
    return 0


def cmd_trivlem(args) -> int:
    if args.trials < 1:
        raise SystemExit2("--trials must be at least 1")
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        gmap = {p: Fraction(rng.randint(0, 8), 4) for p in primes}
        k = rng.randint(1, 100)
        t = rng.randint(1, 1000)
        res = stats.trivlem_check(lambda p: gmap.get(p, Fraction(1, 2)), k, t)
        if not res.holds:
            failures += 1
    print(f"{args.trials - failures}/{args.trials} hold")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmfactors",
        description="Invariant factors of CM elliptic curve reductions mod p",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve_args(sp):
        sp.add_argument("--curve", help="curve label from the table (e.g. j1728-D4 or D4)")
        sp.add_argument("--custom", help="custom model as A,B,g,f (validated against the oracle)")

    sp = sub.add_parser("scan", help="scan primes up to a bound and export records")
    add_curve_args(sp)
    sp.add_argument("--xmax", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0, help="only recorded in the summary")
    sp.add_argument("--checkpoints", default="", help="comma-separated snapshot bounds")
    sp.add_argument("--out", default=None, help="records CSV path (summary goes to PATH.summary.json)")
    sp.add_argument("--workers", type=int, default=min(len(stats.usable_cpus()), stats.MAX_WORKERS),
                    help="processes that sweep, this one included (default: usable cores)")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("verify", help="compare pipeline and oracle for all good p <= pmax")
    add_curve_args(sp)
    sp.add_argument("--pmax", type=int, required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("identity", help="exact divisor-decomposition identity check")
    add_curve_args(sp)
    sp.add_argument("--x", type=int, required=True)
    sp.set_defaults(func=cmd_identity)

    sp = sub.add_parser("aux", help="auxiliary diagnostics")
    aux = sp.add_subparsers(dest="aux_command", required=True)

    s = aux.add_parser("schur", help="sum of (m/phi(m))^4 up to t")
    s.add_argument("--t", type=int, required=True)
    s.set_defaults(func=cmd_schur)

    s = aux.add_parser("wintner", help="squarefree phi(d)/d^2 partial sum and slope")
    s.add_argument("--z", type=int, required=True, dest="z")
    s.set_defaults(func=cmd_wintner)

    s = aux.add_parser("bt", help="prime-element congruence count")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--mu", required=True, help="a,b coordinates of the modulus")
    s.add_argument("--alpha", required=True, help="a,b coordinates of the residue")
    s.add_argument("--g", type=int, default=-1, help="field parameter (default -1)")
    s.set_defaults(func=cmd_bt)

    s = aux.add_parser("trivlem", help="randomized squarefree-restriction inequality suite")
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_trivlem)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AmbiguousFrobenius as e:
        print(f"ambiguous Frobenius at p={e.p}", file=sys.stderr)
        return 3
    except (stats.WorkerLost, ArithmeticError) as e:
        # A subclass of ArithmeticError, such as ZeroDivisionError, is a bug: keep its traceback.
        if type(e) not in (stats.WorkerLost, ArithmeticError):
            raise
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
