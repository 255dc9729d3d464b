"""Regenerate src/cmfactors/data/frobenius.txt and check it against point sampling.

Usage, from the root of a checkout:

    python3 tools/frobenius_rules.py PMAX

For each of the thirteen table curves the allowed Frobenius residues are
learned from the point-sampling path (`frobenius_by_sampling`) on the
ordinary primes p <= 3*10^4, closed under conjugation, and required to meet
every unit orbit of classes coprime to the modulus exactly once.  The rules
are written to the packaged data file, which is then reloaded and checked:
for every ordinary p <= PMAX, `frobenius_at` (the rule path) must return
the same element as the sampling path.  Exits 1 on any mismatch.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cmfactors import frobrules  # noqa: E402
from cmfactors.eccurve import curve_table  # noqa: E402
from cmfactors.frobenius import ORDINARY, classify, frobenius_at, frobenius_by_sampling  # noqa: E402
from cmfactors.frobrules import PI, TRACE, FrobeniusRule, format_rule  # noqa: E402
from cmfactors.primesieve import primes_upto  # noqa: E402

TRAIN_PMAX = 3 * 10**4
DATA = ROOT / "src" / "cmfactors" / "data" / "frobenius.txt"

# Key modulus of the (g, f) orders with a "pi" key; every other order has
# w = 2 and -g prime, 3 mod 4, and takes a "trace" key with M = -g.
PI_MODULI = {
    (-1, 1): 4, (-1, 2): 4,
    (-2, 1): 24,
    (-3, 1): 12, (-3, 2): 12, (-3, 3): 12,
    (-7, 1): 28, (-7, 2): 28,
}

HEADER = """\
# Allowed Frobenius residues of the thirteen table curves, one model per line.
# Written by tools/frobenius_rules.py from the point-sampling path on
# p <= {train}; see cmfactors/frobrules.py for the keys.
# Columns: A  B  g  f  kind  M  residues (x:y, comma separated)
#   pi     x:y = (a mod M, c mod M), pi = a + c*omega in maximal-order coordinates
#   trace  x:y = (Legendre(Tr(pi) mod M), p mod 24), M = -g
"""


def ordinary_primes(curve, pmax: int):
    return (p for p in primes_upto(pmax) if classify(p, curve) == ORDINARY)


def learn(curve) -> FrobeniusRule:
    od = curve.order
    model = (curve.A, curve.B, od.g, od.f)
    M = PI_MODULI.get((od.g, od.f))
    kind = PI if M is not None else TRACE
    if M is None:
        M = -od.g
    probe = FrobeniusRule(model, kind, M, ())
    seen = set()
    for p in ordinary_primes(curve, TRAIN_PMAX):
        pi, _ = frobenius_by_sampling(p, curve)
        key = probe.key(p, pi.a, pi.b)
        seen.update((key, probe.conj(key)))
    rule = FrobeniusRule(model, kind, M, seen)  # raises if an orbit is met twice
    unmet = [o for o in rule.orbits() if not o & rule.residues]
    if unmet:
        raise SystemExit(f"{curve.label}: {len(unmet)} unit orbits unseen below {TRAIN_PMAX}")
    return rule


def check(curve, pmax: int) -> tuple[int, int]:
    """(ordinary primes checked, rule/sampling mismatches) up to pmax."""
    checked = mismatches = 0
    for p in ordinary_primes(curve, pmax):
        checked += 1
        pi, n = frobenius_at(p, curve)
        ref, n_ref = frobenius_by_sampling(p, curve)
        if (pi.a, pi.b, n) != (ref.a, ref.b, n_ref):
            mismatches += 1
            print(f"  mismatch at p={p}: rule {pi}, sampling {ref}")
    return checked, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pmax", type=int, help="check the rules on every ordinary p <= PMAX")
    args = parser.parse_args(argv)
    if args.pmax < 5:
        parser.error("PMAX must be at least 5")

    curves = curve_table()
    lines = [HEADER.format(train=TRAIN_PMAX)]
    for curve in curves:
        rule = learn(curve)
        lines.append(f"# {curve.label}\n{format_rule(rule)}\n")
        print(f"{curve.label}: {rule.kind} key mod {rule.modulus}, {len(rule.residues)} residues")
    DATA.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {DATA.relative_to(ROOT)}")

    # rule_for reads these caches; the check must see the rules just written.
    frobrules._packaged_fields.cache_clear()
    frobrules._packaged_rule.cache_clear()
    total = 0
    for curve in curves:
        t0 = time.perf_counter()
        checked, bad = check(curve, args.pmax)
        total += bad
        print(f"{curve.label}: {bad} mismatches over {checked} ordinary p <= {args.pmax}"
              f" ({time.perf_counter() - t0:.1f} s)")
    print(f"total mismatches: {total}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
