"""Output checks applied to every iteration of every workload.

* A scan's summary, with its `seed` field removed, must equal the reference
  recorded for the workload: results may depend neither on the seed nor on
  the worker count.
* Every CSV row must satisfy the invariants of the decomposition
  (d_p | e_p, d_p e_p = N, N = p + 1 - a_p, a_p^2 <= 4p, d_p | p - 1 and
  Nm(pi) = p on ordinary primes), and the rows must add up to the summary.
* A seeded sample of rows with p <= 10^5 must match the brute-force oracle.
* Every `verify` must exit 0 and report the recorded number of good primes.
"""
from __future__ import annotations

import json
import re

CSV_HEADER = "p,kind,a_p,pi_a,pi_b,N,d_p,e_p"
ORACLE_SAMPLE = 8
ORACLE_PMAX = 10**5

_VERIFY_LINE = re.compile(r"^(\S+): 0 mismatches over (\d+) good primes up to (\d+)$")


class CheckFailed(Exception):
    """An iteration's output disagrees with the reference or an invariant."""


def parse_summary(stdout: str) -> dict:
    """The JSON summary `scan` prints after its `wrote ...` lines."""
    start = 0 if stdout.startswith("{") else stdout.find("\n{") + 1
    if start == 0 and not stdout.startswith("{"):
        raise CheckFailed("no JSON summary in scan output")
    try:
        return json.loads(stdout[start:])
    except json.JSONDecodeError as e:
        raise CheckFailed(f"scan summary is not valid JSON: {e}") from None


def check_summary(summary: dict, expected: dict) -> None:
    got = {k: v for k, v in summary.items() if k != "seed"}
    if got != expected:
        keys = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
        raise CheckFailed(f"summary differs from the reference in {keys}")


def read_rows(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise CheckFailed(f"unexpected CSV header {header!r}")
        rows = []
        for line in fh:
            f = line.rstrip("\n").split(",")
            if len(f) != 8:
                raise CheckFailed(f"malformed CSV row {line!r}")
            try:
                rows.append((int(f[0]), f[1], *map(int, f[2:])))
            except ValueError:
                raise CheckFailed(f"malformed CSV row {line!r}") from None
    return rows


def _basis(order: tuple[int, int]) -> tuple[int, int]:
    """Trace and norm of beta = f*omega, the order's second basis element."""
    g, f = order
    if g % 4 == 1:
        return f, f * f * (1 - g) // 4
    return 0, f * f * -g


def check_rows(rows: list[tuple], summary: dict, order: tuple[int, int]) -> None:
    """Per-row invariants, plus agreement of the rows with the summary."""
    bt, bn = _basis(order)
    counts = {"bad": 0, "ord": 0, "small": 0, "ss": 0}
    sum_d = sum_e = 0
    last = 1
    for row in rows:
        p, kind, a, x, y, n, d, e = row
        if p <= last or p > summary["xmax"]:
            raise CheckFailed(f"row out of order or beyond xmax: {row}")
        last = p
        if kind not in counts:
            raise CheckFailed(f"unknown kind: {row}")
        counts[kind] += 1
        sum_d += d
        sum_e += e
        if kind == "bad":
            if row[2:] != (0,) * 6:
                raise CheckFailed(f"bad prime with nonzero fields: {row}")
            continue
        if d < 1 or e % d or d * e != n or n != p + 1 - a or a * a > 4 * p:
            raise CheckFailed(f"decomposition invariant fails: {row}")
        if kind == "ord":
            if (p - 1) % d:
                raise CheckFailed(f"d_p does not divide p - 1: {row}")
            if x * x + x * y * bt + y * y * bn != p or 2 * x + y * bt != a:
                raise CheckFailed(f"pi does not have norm p and trace a_p: {row}")
        elif kind == "ss" and (a, x, y) != (0, 0, 0):
            raise CheckFailed(f"supersingular row with nonzero a_p or pi: {row}")
    if counts != summary["counts"] or (sum_d, sum_e) != (summary["sum_dp"], summary["sum_ep"]):
        raise CheckFailed("CSV rows do not add up to the summary")


def check_oracle_sample(rows: list[tuple], curve_label: str, rng) -> None:
    """Compare a seeded sample of good rows with p <= 10^5 against the oracle."""
    from cmfactors.eccurve import get_curve
    from cmfactors.oracle import group_structure

    curve = get_curve(curve_label)
    pool = [r for r in rows if r[1] != "bad" and r[0] <= ORACLE_PMAX]
    for row in rng.sample(pool, min(ORACLE_SAMPLE, len(pool))):
        p, _, _, _, _, n, d, e = row
        if group_structure(curve, p) != (d, e) or d * e != n:
            raise CheckFailed(f"oracle disagrees with row {row}")


def parse_verify(stdout: str) -> dict[str, int]:
    """Label -> number of good primes checked, from clean `verify` reports."""
    checked = {}
    for line in stdout.splitlines():
        m = _VERIFY_LINE.match(line)
        if not m:
            raise CheckFailed(f"unexpected verify output line {line!r}")
        checked[m.group(1)] = int(m.group(2))
    return checked


def check_iteration(workload, stdout: str, codes: list[int], csv_path, expected: dict, rng) -> int:
    """Check one iteration's outputs; returns the number of primes it handled."""
    if any(codes):
        raise CheckFailed(f"cmfactors exited with codes {codes}")
    if workload.command == "verify":
        checked = parse_verify(stdout)
        if checked != expected["checked"]:
            raise CheckFailed("verify checked other primes than the reference")
        return sum(checked.values())
    summary = parse_summary(stdout)
    check_summary(summary, expected["summary"])
    if csv_path is not None:
        with open(csv_path + ".summary.json", encoding="utf-8") as fh:
            if json.load(fh) != summary:
                raise CheckFailed("summary file differs from the printed summary")
        rows = read_rows(csv_path)
        check_rows(rows, summary, workload.order)
        check_oracle_sample(rows, workload.curves[0], rng)
    return sum(summary["counts"].values())
