"""Closure dimensions against the frozen family values, and the
generator-bracket closure against the closure over the whole basis."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from spcirc import kernels
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
    enumerate_sp_basis,
    in_algebra,
    in_sp_algebra,
    sp_dimension,
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
    assert all(in_sp_algebra(p) for p in res.basis)
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
        assert all(p.y_count % 2 == 1 for p in res.basis)


def test_closure_is_commutator_closed_and_idempotent():
    res = closure(theorem1_generators(2))
    directions = {(p.x_mask, p.z_mask) for p in res.basis}
    for a in res.basis:
        for b in res.basis:
            c = commutator(a, b)
            if c is not None:
                assert (c.x_mask, c.z_mask) in directions
    again = closure(GeneratorSet(2, res.basis))
    assert again.dimension == res.dimension
    assert again.iterations == 1


def test_basis_contains_generators():
    gens = theorem1_generators(4)
    res = closure(gens)
    dirs = {(p.x_mask, p.z_mask) for p in res.basis}
    assert all((g.x_mask, g.z_mask) in dirs for g in gens.generators)


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
    # the byte rule is the closure's only cap: n = 13 is refused before any table
    with pytest.raises(CapacityError):
        closure(theorem1_generators(13))


def test_check_closure_byte_bound():
    # the seen table, the keys and a round's output, 25 * 4**n bytes, and one
    # block against 1 GiB
    check_closure(12)
    with pytest.raises(CapacityError):
        check_closure(13)


# -- the closure over the whole basis, as an oracle ---------------------------------

def closure_over_basis(g):
    """Direction set of the closure by commuting each round's frontier with
    every direction found so far."""
    n = g.n
    found = new = keys(g.generators)
    seen = np.zeros(4**n, dtype=bool)
    seen[found] = True
    while new.size:
        new = kernels.closure_round(new, n, found, seen)
        found = np.concatenate([found, new])
    return found


def assert_matches_basis_closure(g):
    res = closure(g)
    expected = closure_over_basis(g)
    got = set(res.keys.tolist())
    assert got == set(expected.tolist()), [str(p) for p in g.generators]
    assert res.dimension == expected.size == len(got)
    assert res.classification == classify(g.n, expected)
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


# -- classification over keys --------------------------------------------------------

def keys(paulis):
    return np.array([(p.x_mask << p.n) | p.z_mask for p in paulis], dtype=np.int64)


@pytest.mark.parametrize("n", range(1, 5))
def test_vectorised_rules_match_per_object_rules(n):
    # the key rule of each form against its per-object rule
    paulis = [PauliString(n, k >> n, k & (2**n - 1)) for k in range(1, 4**n)]
    # iP is in so(d) iff P^T = -P, i.e. the Y count is odd
    per_object = {"sp": in_sp_algebra, "o": lambda p: p.y_count % 2 == 1}
    for form, rule in per_object.items():
        assert in_algebra(keys(paulis), n, form).tolist() == list(map(rule, paulis)), form


@pytest.mark.parametrize("n", range(1, 5))
def test_classify_on_known_bases(n):
    d = 2**n
    everything = [PauliString(n, k >> n, k & (d - 1)) for k in range(1, 4**n)]
    sp = enumerate_sp_basis(n)
    so = [p for p in everything if p.y_count % 2 == 1]
    assert classify(n, keys(sp)) == "sp"
    # sp(1) = su(2): at n = 1 the rule for sp comes first
    assert classify(n, keys(everything)) == ("su" if n > 1 else "sp")
    assert classify(n, keys(so)) == "so"
    assert classify(n, keys([])) == "other"
    # the right sizes with one member outside the algebra
    symmetric = [p for p in everything if p.y_count % 2 == 0]
    assert classify(n, keys(so[:-1] + symmetric[:1])) == "other"
    if n > 1:
        outside_sp = next(p for p in everything if not in_sp_algebra(p))
        assert classify(n, keys(sp[:-1] + [outside_sp])) == "other"


def test_theorem1_n9():
    res = closure(theorem1_generators(9))
    assert (res.dimension, res.classification) == (131328, "sp")


def test_result_holds_only_its_keys():
    # the 4**n key buffer shrinks to the keys found: the 524 800 directions of
    # sp(512) hold 4.0 MiB, not the 8 MiB of the buffer
    closure(theorem1_generators(3))  # warm
    tracemalloc.start()
    try:
        res = closure(theorem1_generators(10))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert res.keys.base is None and res.keys.nbytes == 8 * res.dimension == 8 * 524800
    assert held <= res.keys.nbytes + 64 * 1024


def test_theorem1_discovery_order_at_n8():
    # the directions in discovery order, as little-endian int64 x then z masks
    res = closure(theorem1_generators(8))
    x, z = res.keys >> 8, res.keys & (2**8 - 1)
    masks = x.astype("<i8").tobytes() + z.astype("<i8").tobytes()
    assert hashlib.sha256(masks).hexdigest() == (
        "60c6aa4583f9844dafcc5a79b1feeaf6b7fdc6b75105b2f67b03e8dddc515cdd")


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
