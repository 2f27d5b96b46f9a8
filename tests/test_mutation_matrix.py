"""Mutation matrix: eleven faults injected at the boundaries of the integer
lift, the expansion coefficients, the ratio denominator, polynomial
evaluation and the modular values, and the registered checks that catch
each one at tiny bounds.

``tests/mutation_matrix.json`` records mutant -> sorted ids of the checks
whose status is not "pass" while it is active (gen1, which records genuine
counterexamples, is left out).  A rewrite that lets a check stop seeing a
fault shrinks a set, and the test below names that mutant.  To print the
sets of the current tree:

    PYTHONPATH=src python tests/test_mutation_matrix.py
"""

import json
from contextlib import contextmanager
from pathlib import Path

from quanta import polynomials, primes, sequences, verify
from quanta.verify import REGISTRY, run_check

MATRIX_FILE = Path(__file__).with_name("mutation_matrix.json")
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


def _plus_one_at_n7(psi_point):
    def mutant(point, n, modulus=None):
        value = psi_point(point, n, modulus)
        return value + 1 if n == 7 else value

    return mutant


def _negated_at_k1(expansion_coeff):
    def mutant(table, r, k):
        value = expansion_coeff(table, r, k)
        return -value if k == 1 else value

    return mutant


def _plus_one_at_last_r(expansion_coeff):
    # the last coefficient of a column, r = K - k
    def mutant(table, r, k):
        value = expansion_coeff(table, r, k)
        return value + 1 if r == table.K - k else value

    return mutant


def _plus_one_above_degree5(evaluate):
    def mutant(poly, x):
        value = evaluate(poly, x)
        return value + 1 if poly.degree > 5 else value

    return mutant


def _falling_plus_one_at_n7(falling_factorial):
    return lambda n: falling_factorial(n) + 1 if n == 7 else falling_factorial(n)


def _pow2_plus_one_with_modulus(psi_pow2):
    def mutant(a, b, s, modulus=None):
        value = psi_pow2(a, b, s, modulus)
        return value if modulus is None else value + 1

    return mutant


def _top_plus_one_with_modulus(omega_top):
    def mutant(point, n, modulus=None):
        value = omega_top(point, n, modulus)
        return value if modulus is None else value + 1

    return mutant


def _exact_skips_division(unlift):
    return lambda raw, q, d, modulus=None: unlift(raw, 1 if modulus is None else q, d, modulus)


def _modular_skips_inverse(unlift):
    return lambda raw, q, d, modulus=None: unlift(raw, q if modulus is None else 1, d, modulus)


# mutant -> (the name it replaces, a factory from the original to the mutant)
MUTANTS = {
    "lambda_seed sign flipped at r=1": ("lambda_seed", _seed_sign_flipped_at_r1),
    "lambda_table entries +1 at k>=2": ("lambda_table", _entries_plus_one_from_k2),
    "psi_point +1 at n=7": ("psi_point", _plus_one_at_n7),
    "exact _unlift skips its division": ("_unlift", _exact_skips_division),
    "modular _unlift skips q^-1": ("_unlift", _modular_skips_inverse),
    "_expansion_coeff negated at k=1": ("_expansion_coeff", _negated_at_k1),
    "_expansion_coeff +1 at r=K-k": ("_expansion_coeff", _plus_one_at_last_r),
    "UniPoly.evaluate +1 when degree>5": ("UniPoly.evaluate", _plus_one_above_degree5),
    "falling_factorial +1 at n=7": ("falling_factorial", _falling_plus_one_at_n7),
    "psi_pow2 +1 with a modulus": ("psi_pow2", _pow2_plus_one_with_modulus),
    "omega_top +1 with a modulus": ("omega_top", _top_plus_one_with_modulus),
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
        original = getattr(sequences, attr)
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


def test_no_catching_set_shrank():
    recorded = json.loads(MATRIX_FILE.read_text())
    assert set(recorded) == set(MUTANTS)
    sets = catching_sets()
    uncaught = [label for label, caught in sets.items() if not caught]
    shrank = {
        label: sorted(set(recorded[label]) - set(caught))
        for label, caught in sets.items()
        if not set(recorded[label]) <= set(caught)
    }
    assert not uncaught, f"no check catches: {uncaught}"
    assert not shrank, f"checks that stopped catching a mutant: {shrank}"


if __name__ == "__main__":
    print(json.dumps(catching_sets(), indent=2))
