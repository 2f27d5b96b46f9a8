"""Mutation matrix: twenty-six faults injected at the boundaries of the
integer lift, the omega table, the expansion columns, the ratio denominators,
polynomial evaluation, the directional derivative, the modular values, the
exact values at integral, scaled rational and quadratic points, the
fundamental ratio, the classical Lucas and Fibonacci numbers, the harmonic
numbers and the Lagarias sweep, and the registered checks that catch each one
at tiny bounds.

``tests/mutation_matrix.json`` records mutant -> sorted ids of the checks
whose status is not "pass" while it is active (gen1, which records genuine
counterexamples, is left out).  A rewrite that lets a check stop seeing a
fault shrinks a set, and the test below names that mutant.  The mutants in
``KNOWN_GAPS`` are recorded with an empty set: no registered check sees them,
and only direct tests guard those functions.  To print the sets of the
current tree:

    PYTHONPATH=src python tests/test_mutation_matrix.py

``tests/mutant_report_digests.json`` records, under each mutant and under the
flipped omega coupling, the SHA-256 of the canonical tiny report (seed 0) of
F1100, H2 and lagarias: their failure texts, order and counts, not only their
statuses.  To print them for the current tree:

    PYTHONPATH=src:tests python -c "import json, test_mutation_matrix as m; print(json.dumps(m.report_digests(), indent=2))"
"""

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

from quanta import polynomials, primes, sequences, verify
from quanta.verify import REGISTRY, flipped_omega_coupling, run_check

MATRIX_FILE = Path(__file__).with_name("mutation_matrix.json")
DIGESTS_FILE = Path(__file__).with_name("mutant_report_digests.json")
DIGEST_IDS = ("F1100", "H2", "lagarias")
FLIPPED = "flipped omega coupling"
MODULES = (sequences, verify, primes, polynomials)


def _seed_sign_flipped_at_r1(lambda_seed):
    return lambda n, r: -lambda_seed(n, r) if r == 1 else lambda_seed(n, r)


def _entries_plus_one_from_k2(lambda_table):
    def mutant(point, n):
        table = lambda_table(point, n)
        entry = table.entry
        table.entry = lambda r, k: entry(r, k) + 1 if k >= 2 else entry(r, k)
        return table

    return mutant


def _omega_entries_plus_one_from_k2(omega_table):
    def mutant(point, n, modulus=None):
        table = omega_table(point, n, modulus)
        entry = table.entry
        table.entry = lambda r, k: entry(r, k) + 1 if k >= 2 else entry(r, k)
        return table

    return mutant


def _plus_one_at_n7(psi_point):
    def mutant(point, n, modulus=None):
        value = psi_point(point, n, modulus)
        return value + 1 if n == 7 else value

    return mutant


def _psi_plus_one_at_a_quadratic_point(psi_point):
    def mutant(point, n, modulus=None):
        value = psi_point(point, n, modulus)
        return value + 1 if sequences.as_point(point).d else value

    return mutant


def _column_negated_at_k1(expansion_column):
    # a changed copy: the column cached on the table stays intact
    def mutant(table, k):
        column = expansion_column(table, k)
        return [-c for c in column] if k == 1 else column

    return mutant


def _column_plus_one_at_last_r(expansion_column):
    def mutant(table, k):
        column = expansion_column(table, k)
        return column[:-1] + [column[-1] + 1]

    return mutant


def _plus_one_at_one_step(dir_derivative):
    def mutant(poly, point, times=1):
        value = dir_derivative(poly, point, times)
        return value + 1 if times == 1 else value

    return mutant


def _plus_one_above_degree5(evaluate):
    def mutant(poly, x):
        value = evaluate(poly, x)
        return value + 1 if poly.degree > 5 else value

    return mutant


def _plus_one_at(m):
    # a function of n alone, +1 at n = m
    def factory(original):
        return lambda n: original(n) + 1 if n == m else original(n)

    return factory


def _window_plus_one_at_n7(falling_factorials):
    # the generator yields falling_factorial(n) for n = 2, 3, ...
    def mutant():
        for n, ff in enumerate(falling_factorials(), start=2):
            yield ff + 1 if n == 7 else ff

    return mutant


def _ratio_plus_one_at_n7(second_fundamental):
    def mutant(point, n):
        value = second_fundamental(point, n)
        return value + 1 if n == 7 else value

    return mutant


def _plus_one_with_modulus(original):
    # psi_point and omega_top share the signature (point, n, modulus=None)
    def mutant(point, n, modulus=None):
        value = original(point, n, modulus)
        return value if modulus is None else value + 1

    return mutant


def _psi_plus_one_with_modulus_at_odd_n(psi_point):
    def mutant(point, n, modulus=None):
        value = psi_point(point, n, modulus)
        return value + 1 if modulus is not None and n & 1 else value

    return mutant


def _exact_top_plus_one_where(at_point):
    def factory(omega_top):
        def mutant(point, n, modulus=None):
            value = omega_top(point, n, modulus)
            return value + 1 if modulus is None and at_point(sequences.as_point(point)) else value

        return mutant

    return factory


def _exact_skips_division(unlift):
    return lambda raw, q, d, modulus=None: unlift(raw, 1 if modulus is None else q, d, modulus)


def _modular_lift_keeps_the_scale(reduced_lift):
    def mutant(point, modulus):
        s, z, x, d = reduced_lift(point, modulus)
        if modulus is None:
            return s, z, x, d
        scale = sequences._lift(point)[0]
        return s, tuple(c * scale % modulus for c in z), tuple(c * scale % modulus for c in x), d

    return mutant


def _lower_end_one_unit_high(harmonic_brackets):
    def mutant(ns, bits):
        return ((n, lo + 1, hi) for n, lo, hi in harmonic_brackets(ns, bits))

    return mutant


def _harmonic_plus_one_from_k1000(harmonic_number):
    return lambda k: harmonic_number(k) + 1 if k >= 1000 else harmonic_number(k)


def _also_undecided_at_n7(lagarias_sweep):
    return lambda nmax: lagarias_sweep(nmax) + [7]


# mutant -> (the name it replaces, a factory from the original to the mutant)
MUTANTS = {
    "lambda_seed sign flipped at r=1": ("lambda_seed", _seed_sign_flipped_at_r1),
    "lambda_table entries +1 at k>=2": ("lambda_table", _entries_plus_one_from_k2),
    "omega_table entries +1 at k>=2": ("omega_table", _omega_entries_plus_one_from_k2),
    "psi_point +1 at n=7": ("psi_point", _plus_one_at_n7),
    "psi_point +1 at a quadratic point": ("psi_point", _psi_plus_one_at_a_quadratic_point),
    "psi_point +1 with a modulus": ("psi_point", _plus_one_with_modulus),
    "psi_point +1 with a modulus at odd n": ("psi_point", _psi_plus_one_with_modulus_at_odd_n),
    "exact _unlift skips its division": ("_unlift", _exact_skips_division),
    "modular lift keeps the scale": ("_reduced_lift", _modular_lift_keeps_the_scale),
    "_expansion_column negated at k=1": ("_expansion_column", _column_negated_at_k1),
    "_expansion_column +1 at r=K-k": ("_expansion_column", _column_plus_one_at_last_r),
    "UniPoly.evaluate +1 when degree>5": ("UniPoly.evaluate", _plus_one_above_degree5),
    "dir_derivative +1 at times=1": ("dir_derivative", _plus_one_at_one_step),
    "falling_factorial +1 at n=7": ("falling_factorial", _plus_one_at(7)),
    "falling_factorial +1 at n=10": ("falling_factorial", _plus_one_at(10)),
    "_falling_factorials +1 at n=7": ("_falling_factorials", _window_plus_one_at_n7),
    "second_fundamental +1 at n=7": ("second_fundamental", _ratio_plus_one_at_n7),
    "lucas +1 at n=8": ("lucas", _plus_one_at(8)),
    "fibonacci +1 at n=7": ("fibonacci", _plus_one_at(7)),
    "omega_top +1 with a modulus": ("omega_top", _plus_one_with_modulus),
    "omega_top +1 at an exact integral point": (
        "omega_top", _exact_top_plus_one_where(lambda point: point.is_integral)
    ),
    "omega_top +1 at an exact scaled rational point": (
        "omega_top", _exact_top_plus_one_where(lambda point: point.is_rational and not point.is_integral)
    ),
    "omega_top +1 at an exact quadratic point": (
        "omega_top", _exact_top_plus_one_where(lambda point: point.d)
    ),
    "_harmonic_brackets lower end one unit high": (
        "_harmonic_brackets", _lower_end_one_unit_high
    ),
    "harmonic_number +1 at k>=1000": ("harmonic_number", _harmonic_plus_one_from_k1000),
    "lagarias_sweep reports n=7 undecided": ("lagarias_sweep", _also_undecided_at_n7),
}
# The sweep decides sigma(n) < H_n + log(H_n) e^(H_n) with a margin far above
# one unit in 2^-192, and no check at tiny bounds asks for H_k with k >= 1000.
# The only modular psi_point caller in a check, mersenne_test, asks for an
# even n = 2^(p-1).
KNOWN_GAPS = {
    "_harmonic_brackets lower end one unit high",
    "harmonic_number +1 at k>=1000",
    "psi_point +1 with a modulus at odd n",
}


@contextmanager
def mutated(name, factory):
    """Replace ``name`` by its mutant: a ``Class.attr`` name on its class,
    any other name in every module that binds it."""
    owner, _, attr = name.rpartition(".")
    if owner:
        bound = [next(getattr(m, owner) for m in MODULES if hasattr(m, owner))]
        original = getattr(bound[0], attr)
    else:
        original = next(getattr(m, attr) for m in MODULES if hasattr(m, attr))
        bound = [m for m in MODULES if getattr(m, attr, None) is original]
    mutant = factory(original)
    for target in bound:
        setattr(target, attr, mutant)
    try:
        yield
    finally:
        for target in bound:
            setattr(target, attr, original)


def catching_sets() -> dict[str, list[str]]:
    ids = sorted(id for id in REGISTRY if id != "gen1")
    sets = {}
    for label, (name, factory) in MUTANTS.items():
        with mutated(name, factory):
            sets[label] = [id for id in ids if run_check(id, REGISTRY[id].tiny).status != "pass"]
    return sets


def report_digests() -> dict[str, dict[str, str]]:
    faults = {label: (lambda name=name, factory=factory: mutated(name, factory))
              for label, (name, factory) in MUTANTS.items()}
    faults[FLIPPED] = flipped_omega_coupling
    digests = {}
    for label, fault in faults.items():
        with fault():
            reports = {id: run_check(id, REGISTRY[id].tiny, seed=0) for id in DIGEST_IDS}
        digests[label] = {
            id: hashlib.sha256(report.to_json(volatile=False).encode()).hexdigest()
            for id, report in reports.items()
        }
    return digests


def test_no_catching_set_shrank():
    recorded = json.loads(MATRIX_FILE.read_text())
    assert set(recorded) == set(MUTANTS)
    sets = catching_sets()
    uncaught = [label for label, caught in sets.items() if not caught and label not in KNOWN_GAPS]
    shrank = {
        label: sorted(set(recorded[label]) - set(caught))
        for label, caught in sets.items()
        if not set(recorded[label]) <= set(caught)
    }
    assert not uncaught, f"no check catches: {uncaught}"
    assert not shrank, f"checks that stopped catching a mutant: {shrank}"


def test_mutant_reports_match_recorded_digests():
    recorded = json.loads(DIGESTS_FILE.read_text())
    assert set(recorded) == set(MUTANTS) | {FLIPPED}
    digests = report_digests()
    changed = sorted(
        f"{id} under {label}" for label, by_id in recorded.items()
        for id, digest in by_id.items() if digests[label][id] != digest
    )
    assert not changed, f"canonical tiny report bytes changed for {changed}"


if __name__ == "__main__":
    print(json.dumps(catching_sets(), indent=2))
