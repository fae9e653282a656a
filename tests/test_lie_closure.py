"""Closure dimensions against the frozen family values, and the
generator-bracket closure against a plain-Python closure over the whole basis."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from spcirc.errors import CapacityError, DomainError
from spcirc.lie_closure import (
    GeneratorSet,
    check_closure,
    classify,
    closure,
    prop2_generators,
    so_chain_generators,
    theorem1_generators,
)
from spcirc.pauli import (
    PauliString,
    commutator,
    in_sp_algebra,
    members,
    sp_dimension,
    strings,
)


def test_theorem1_generator_count():
    for n in range(2, 7):
        assert len(theorem1_generators(n).generators) == 3 * n - 2


def test_prop2_generator_count():
    for n in range(2, 6):
        assert len(prop2_generators(n).generators) == 3 * n - 2


def test_theorem1_dimensions_small():
    # frozen: d(d+1)/2 for d = 4, 8
    assert closure(theorem1_generators(2)).dimension == 10
    assert closure(theorem1_generators(3)).dimension == 36


def test_theorem1_classification_and_membership():
    res = closure(theorem1_generators(3))
    assert res.classification == "sp"
    assert res.dimension == sp_dimension(3)
    assert all(in_sp_algebra(p) for p in strings(3, res.directions))
    assert res.iterations >= 2


def test_prop2_dimensions_small():
    # at n = 2 every generator is an sp direction (gates on qubits (1,2)
    # preserve the form), so the closure is sp, not su; su appears at n >= 3
    res2 = closure(prop2_generators(2))
    res3 = closure(prop2_generators(3))
    assert (res2.dimension, res2.classification) == (10, "sp")
    assert (res3.dimension, res3.classification) == (63, "su")


def test_so_chain_dimension():
    # frozen: d(d-1)/2 antisymmetric directions
    for n in (2, 3):
        res = closure(so_chain_generators(n))
        d = 2**n
        assert res.dimension == d * (d - 1) // 2
        assert res.classification == "so"
        assert all(p.y_count % 2 == 1 for p in strings(n, res.directions))


def test_closure_is_commutator_closed_and_idempotent():
    res = closure(theorem1_generators(2))
    basis = strings(2, res.directions)
    for a in basis:
        for b in basis:
            c = commutator(a, b)
            if c is not None:
                assert res.directions >> c.key & 1
    again = closure(GeneratorSet(2, tuple(basis)))
    assert again.dimension == res.dimension
    assert again.iterations == 1


def test_basis_contains_generators():
    gens = theorem1_generators(4)
    res = closure(gens)
    assert all(res.directions >> g.key & 1 for g in gens.generators)


def test_single_generator_closure():
    res = closure(GeneratorSet(1, (PauliString.from_label("X"),)))
    assert res.dimension == 1
    assert res.classification == "other"
    assert res.iterations == 1


def test_generator_validation():
    with pytest.raises(DomainError):
        GeneratorSet(2, (PauliString.from_label("XI"), PauliString.from_label("X")))
    with pytest.raises(DomainError):
        GeneratorSet(2, (PauliString.identity(2),))
    with pytest.raises(DomainError):
        GeneratorSet(
            2, (PauliString.from_label("XI"), PauliString.from_label("-XI"))
        )
    with pytest.raises(DomainError):
        theorem1_generators(1)


def test_capacity_budget():
    # the byte rule is the closure's only cap: n = 14 is refused before any table
    with pytest.raises(CapacityError):
        closure(theorem1_generators(14))


def test_check_closure_byte_bound():
    # theorem1's sets, one per generator and key bit and 8 more, at 16/15 bit per
    # table entry: 71 sets at n = 13 take 640 MiB, 76 at n = 14 take 2.75 GiB
    check_closure(13)
    with pytest.raises(CapacityError):
        check_closure(14)


# -- the closure over the whole basis, as an oracle ---------------------------------

def closure_over_basis(g):
    """Direction set of the closure, as (x, z) mask pairs: each round's
    frontier is commuted with every direction found so far, one
    ``pauli.commutator`` per unordered pair."""
    found = {(p.x_mask, p.z_mask): p for p in g.generators}
    older, new = [], list(found.values())
    while new:
        fresh = {}
        for i, a in enumerate(new):
            for b in older + new[i + 1:]:
                c = commutator(a, b)
                if c is not None and (c.x_mask, c.z_mask) not in found:
                    fresh[c.x_mask, c.z_mask] = c
        found.update(fresh)
        older += new
        new = list(fresh.values())
    return set(found)


def as_set(n, masks):
    """(x, z) mask pairs as the 4**n-bit set ``classify`` reads."""
    return sum(1 << ((x << n) | z) for x, z in set(masks))


def assert_matches_basis_closure(g):
    res = closure(g)
    expected = closure_over_basis(g)
    got = {(p.x_mask, p.z_mask) for p in strings(g.n, res.directions)}
    assert got == expected, [str(p) for p in g.generators]
    assert res.dimension == len(expected)
    assert res.classification == classify(g.n, as_set(g.n, expected))
    return res


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("family", [theorem1_generators, prop2_generators,
                                    so_chain_generators])
def test_family_closure_matches_basis_closure(family, n):
    assert_matches_basis_closure(family(n))


def test_random_generator_sets_match_basis_closure():
    gen = np.random.default_rng(2024)
    kinds = set()
    for _ in range(20):
        n = int(gen.integers(1, 5))
        count = int(gen.integers(1, 6))
        keys = gen.choice(np.arange(1, 4**n), size=min(count, 4**n - 1), replace=False)
        gens = tuple(PauliString(n, int(k) >> n, int(k) & (2**n - 1)) for k in keys)
        kinds.add(assert_matches_basis_closure(GeneratorSet(n, gens)).classification)
    assert len(kinds) >= 2, kinds


# -- classification over sets of directions ------------------------------------------

@pytest.mark.parametrize("n", range(1, 5))
def test_vectorised_rules_match_per_object_rules(n):
    # the member set of each form against its per-object rule
    paulis = [PauliString(n, k >> n, k & (2**n - 1)) for k in range(1, 4**n)]
    # iP is in so(d) iff P^T = -P, i.e. the Y count is odd
    per_object = {"sp": in_sp_algebra, "o": lambda p: p.y_count % 2 == 1}
    for form, rule in per_object.items():
        assert members(n, form) == directions(filter(rule, paulis)), form


def directions(paulis):
    return sum(1 << p.key for p in paulis)


@pytest.mark.parametrize("n", range(1, 5))
def test_classify_on_known_bases(n):
    # the sets classify compares with are the form's members, here built by
    # the per-object rules: a set of the right size passes, and the same set
    # with one member swapped fails
    d = 2**n
    everything = [PauliString(n, k >> n, k & (d - 1)) for k in range(1, 4**n)]
    sp = [p for p in everything if in_sp_algebra(p)]
    so = [p for p in everything if p.y_count % 2 == 1]
    assert classify(n, directions(sp)) == "sp"
    # sp(1) = su(2): at n = 1 the rule for sp comes first
    assert classify(n, directions(everything)) == ("su" if n > 1 else "sp")
    assert classify(n, directions(so)) == "so"
    assert classify(n, 0) == "other"
    # the right sizes with one member outside the algebra
    symmetric = [p for p in everything if p.y_count % 2 == 0]
    assert classify(n, directions(so[:-1] + symmetric[:1])) == "other"
    if n > 1:
        outside_sp = next(p for p in everything if not in_sp_algebra(p))
        assert classify(n, directions(sp[:-1] + [outside_sp])) == "other"


def test_theorem1_n9():
    res = closure(theorem1_generators(9))
    assert (res.dimension, res.classification) == (131328, "sp")


def test_result_holds_only_its_keys():
    # the result holds its directions as one 4**n-bit set: the 524 800
    # directions of sp(512) take 128 KiB (and CPython's 30 bits per 4-byte
    # digit), not the 4 MiB of their int64 keys
    closure(theorem1_generators(3))  # warm
    tracemalloc.start()
    try:
        res = closure(theorem1_generators(10))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert res.dimension == 524800
    assert held <= 4**10 // 8 * 16 // 15 + 64 * 1024


def test_theorem1_discovery_order_at_n8():
    # the directions in ascending key order, as little-endian int64 x then z
    # masks; the pin is the sorted keys of the breadth-first engine that
    # listed them in discovery order, so the set is unchanged
    basis = strings(8, closure(theorem1_generators(8)).directions)
    keys = np.array([p.key for p in basis])
    assert (np.diff(keys) > 0).all()
    x, z = keys >> 8, keys & (2**8 - 1)
    masks = x.astype("<i8").tobytes() + z.astype("<i8").tobytes()
    assert hashlib.sha256(masks).hexdigest() == (
        "f4b9cc087f801b4faf11b7a2aae7248b6a42b26eb579c5ad5c6a312a708ef81a")


def test_a_library_caller_reads_keys_and_basis():
    # pauli.strings lists a result's set in ascending key order
    res = closure(prop2_generators(3))
    basis = strings(3, res.directions)
    keys = [p.key for p in basis]
    assert keys == sorted(set(keys)) and len(keys) == res.dimension == 63
    assert basis[0].phase_exp == 0 and res.directions == sum(1 << k for k in keys)


# -- translation-invariant nearest-neighbour sets ------------------------------------

TI_TERMS = ("X", "Y", "Z") + tuple(p + q for p in "XYZ" for q in "XYZ")


def ti_generators(n, terms):
    """Each one-qubit term on every qubit and each two-qubit term on every bond
    of an open chain, duplicates dropped."""
    labels = [("I" * j + term).ljust(n, "I")
              for term in terms for j in range(n - len(term) + 1)]
    return GeneratorSet(n, tuple(dict.fromkeys(map(PauliString.from_label, labels))))


@pytest.mark.parametrize("n,counts,all_sp_dims", [
    (3, {"su": 3776, "so": 10, "other": 309}, [3, 3, 3, 10, 11, 11, 11]),
    (4, {"su": 3818, "so": 14, "other": 263}, [4, 6, 6, 36, 37, 37, 37]),
    (5, {"su": 3818, "so": 14, "other": 263}, [5, 10, 10, 136, 137, 137, 137]),
])
def test_no_translation_invariant_set_closes_to_sp(n, counts, all_sp_dims):
    # all 4095 nonempty subsets of the three one-qubit and nine two-qubit terms
    found = dict.fromkeys(("sp", "su", "so", "other"), 0)
    dims = {}
    for k in range(1, 2 ** len(TI_TERMS)):
        terms = [term for b, term in enumerate(TI_TERMS) if k >> b & 1]
        gens = ti_generators(n, terms)
        res = closure(gens)
        found[res.classification] += 1
        if all(map(in_sp_algebra, gens.generators)):
            dims[" ".join(terms)] = res.dimension
    assert found == {"sp": 0, **counts}
    # Y, YX, YZ and their unions; YX YZ closes to sp of n - 1 qubits
    assert dims == dict(zip(["Y", "YX", "YZ", "YX YZ", "Y YX", "Y YZ", "Y YX YZ"],
                            all_sp_dims))
    assert dims["YX YZ"] == sp_dimension(n - 1)
