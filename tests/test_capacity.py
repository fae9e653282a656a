"""The capacity rule: every memory cap is one ``errors.check_bytes`` call on
the bytes its call holds at once, and every check costs O(1) however large
the request is."""

import ast
import contextlib
import os
import pathlib
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

import spcirc
from spcirc import brauer, circuit, cli, gp_stats, lie_closure, moment, pauli
from spcirc.errors import MEMORY_LIMIT, CapacityError, check_bytes
from spcirc.pauli import PauliString
from spcirc.sampler import RngStream

# -- check_bytes ---------------------------------------------------------------------

def test_check_bytes_boundary():
    check_bytes("a table", MEMORY_LIMIT)
    check_bytes("a table", 1, 2, 30)
    with pytest.raises(CapacityError, match="needs 1073741825 bytes"):
        check_bytes("a table", MEMORY_LIMIT + 1)
    with pytest.raises(CapacityError, match="needs 1610612736 bytes"):
        check_bytes("a table", 3, 2, 29)  # 1.5 GiB, over the limit by its low bits
    with pytest.raises(CapacityError, match="needs at least 2\\*\\*31 bytes"):
        check_bytes("a table", 2, 2, 30)


@pytest.mark.parametrize("nbytes,base,exponent", [
    (40, 3, 10**18),       # label propagation at n = 10**18
    (96, 10**3000, 2),     # a sample of dimension 10**3000
    (10**4000, 2, 0),      # a vast count
    (1, 2, 10**100),
])
def test_vast_sizes_are_refused_in_constant_time(nbytes, base, exponent):
    started = time.monotonic()
    with pytest.raises(CapacityError) as refused:
        check_bytes("a table", nbytes, base, exponent)
    assert time.monotonic() - started < 0.1
    assert len(str(refused.value)) < 300
    assert "at least 2**" in str(refused.value)


# -- the bounds that did not move, on both sides, at check level --------------------

@pytest.mark.parametrize("check,inside", [
    (pauli.check_dense, 12),  # to_dense, to_dense_kron and circuit.to_unitary
    (moment.check_propagation, 31),  # collision and anticoncentration-depth
    (lambda n: lie_closure.check_closure(n, 4**n), 12),
])
def test_bounds(check, inside):
    check(inside)
    with pytest.raises(CapacityError):
        check(inside + 1)


def test_dense_second_moment_bound(checked_only):
    checked = checked_only(moment)
    with pytest.raises(checked):
        moment.dense_second_moment(6, 1)
    with pytest.raises(CapacityError):
        moment.dense_second_moment(7, 1)


# -- each check counts at least what its call holds ----------------------------------

# The interpreter's own objects, a few KiB whatever the size, are not counted.
UNCOUNTED = 64 * 1024


@pytest.fixture
def counted(monkeypatch):
    """The byte counts the package's checks pass to check_bytes."""
    counts = []

    def record(what, nbytes, base=1, exponent=0):
        counts.append(nbytes * base**exponent)
        check_bytes(what, nbytes, base, exponent)

    for module in (brauer, circuit, cli, gp_stats, lie_closure, moment, pauli):
        monkeypatch.setattr(module, "check_bytes", record)
    return counts


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mixed_circuit(n):
    """A rotation block and a brick layer: both kinds of gate."""
    return circuit.concat([circuit.build_theorem1_block(n, np.linspace(0.1, 1.0, 3 * n - 2)),
                           circuit.build_bricklayer(n, 1, np.random.default_rng(1))])


def commuting_set(n):
    labels = ("Z" + "I" * (n - 1), "I" * (n - 1) + "Z")
    return lie_closure.GeneratorSet(n, tuple(map(PauliString.from_label, labels)))


def pauli_string(n):
    return PauliString.from_label(("XYZ" * n)[:n])


Y2 = PauliString.single(3, 2, "Y")
CUTS = np.linspace(0.02, 1.0, 32)
GP = gp_stats.run_gp_experiment


def gp_pair(n):
    return [gp_stats.StateSpec.computational_basis(n, 0),
            gp_stats.StateSpec.superposition_pair(n, 2)]


# name -> (the call at size n, its inputs built; n to warm caches at; n where arrays dominate)
BOUNDED = {
    "to_dense": (lambda n: partial(pauli.to_dense, pauli_string(n)), 3, 10),
    "to_dense_kron": (lambda n: partial(pauli.to_dense_kron, pauli_string(n)), 3, 10),
    "to_unitary": (lambda n: partial(circuit.to_unitary, mixed_circuit(n)), 3, 9),
    "apply": (lambda n: partial(circuit.apply, mixed_circuit(n), circuit.initial_state(n)),
              3, 16),
    "dense_second_moment": (lambda n: partial(moment.dense_second_moment, n, 1), 2, 5),
    # from n = 6 on, an even n meets no block step that n = 6 has not derived
    "propagate": (lambda n: partial(moment.propagate, moment.initial_label_vector(n), 2),
                  6, 20),
    "collision_trace": (lambda n: partial(moment.collision_trace, n, 3), 6, 20),
    "depth_to_anticoncentrate": (lambda n: partial(moment.depth_to_anticoncentrate, n, 0.01, 3),
                                 6, 20),
    "represent": (lambda d: partial(brauer.represent, brauer.enumerate_diagrams(2)[-1], d, "o"),
                  4, 64),
    "twirl": (lambda d: partial(brauer.twirl, np.eye(d * d, dtype=complex), 2, d, "o"), 2, 32),
    "twirl_superoperator": (lambda d: partial(brauer.twirl_superoperator, 2, d, "o"), 2, 6),
    "closure": (lambda n: partial(lie_closure.closure, commuting_set(n), 4**n), 3, 10),
    # the sampled experiments, sized by their sample count
    "run_gp_experiment": (lambda s: partial(GP, gp_pair(3), Y2, s, RngStream(1)), 40, 2500),
    "concentration_tail": (lambda s: partial(gp_stats.concentration_tail, gp_pair(3)[1], Y2, s,
                                             CUTS, RngStream(1)), 40, 1500),
    "anticoncentration_check": (lambda s: partial(gp_stats.anticoncentration_check, 3, s,
                                                  CUTS, RngStream(1)), 40, 1500),
    # ... at the most batches they allow: two draws per batch for the GP
    # covariances, one for the tails
    "run_gp_experiment-batches": (lambda s: partial(GP, gp_pair(3), Y2, s, RngStream(1),
                                                    batches=s // 2), 40, 2000),
    "concentration_tail-batches": (lambda s: partial(gp_stats.concentration_tail, gp_pair(3)[1],
                                                     Y2, s, CUTS, RngStream(1), batches=s),
                                   40, 2000),
    "anticoncentration_check-batches": (lambda s: partial(gp_stats.anticoncentration_check, 3,
                                                          s, CUTS, RngStream(1), batches=s),
                                        40, 2000),
    # ... and by n, at 40 draws
    "run_gp_experiment-n": (lambda n: partial(GP, gp_pair(n), PauliString.single(n, 2, "Y"), 40,
                                              RngStream(1)), 3, 14),
    "anticoncentration_check-n": (lambda n: partial(gp_stats.anticoncentration_check, n, 40,
                                                    CUTS, RngStream(1)), 3, 14),
}


@pytest.mark.parametrize("name", BOUNDED)
def test_peak_within_the_checked_bytes(name, counted):
    make, warm, size = BOUNDED[name]
    make(warm)()
    call = make(size)
    counts_before = len(counted)
    peak = traced_peak(call)
    assert len(counted) > counts_before, "the call made no byte check"
    assert peak <= max(counted[counts_before:]) + UNCOUNTED


def test_sample_counts_are_refused_before_any_draw():
    obs = PauliString.single(6, 2, "Y")
    # at n = 6 and 20 batches, the most draws that fit: the limit less what
    # the amplitudes and the batches hold, over the bytes per draw
    amplitudes = 2**6 * (2 * gp_stats.VECTOR_BYTES + gp_stats.ACTION_BYTES)
    batches = 20 * (gp_stats.CYCLE_BYTES + gp_stats.BATCH_BYTES * 2**2)
    inside = (MEMORY_LIMIT - amplitudes - batches) // (2 * gp_stats.SAMPLE_BYTES + 1)
    gp_stats.check_gp(6, inside, obs, states=2)
    amplitudes = 2**6 * (gp_stats.VECTOR_BYTES + gp_stats.ACTION_BYTES)
    batches = 20 * (gp_stats.CYCLE_BYTES + gp_stats.BATCH_BYTES * (1 + 2))
    alphas = (MEMORY_LIMIT - amplitudes - batches) // (gp_stats.SAMPLE_BYTES + 1)
    gp_stats.check_anticoncentration(6, alphas, [0.1, 0.2], 0)
    over = [partial(gp_stats.check_gp, 6, inside + 1, obs, states=2),
            partial(gp_stats.check_anticoncentration, 6, alphas + 1, [0.1, 0.2], 0),
            partial(gp_stats.check_concentration, 6, 10**9, [0.5], obs),
            partial(gp_stats.check_anticoncentration, 6, 10**9, [0.5], 0),
            partial(gp_stats.check_anticoncentration, 6, 10**4000, [0.5], 0)]
    for check in over:
        def refused():
            with pytest.raises(CapacityError, match="sampling") as error:
                check()
            assert len(str(error.value)) < 300
        assert traced_peak(refused) <= UNCOUNTED


def test_nothing_outlives_a_twirl():
    brauer.twirl(np.eye(4), 2, 2, "o")  # warm
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        brauer.twirl(np.eye(1024), 2, 32, "o")
        assert tracemalloc.get_traced_memory()[0] - start <= UNCOUNTED
    finally:
        tracemalloc.stop()


def cli_inputs(tmp):
    """A real 1024 x 1024 operator and an empty 14-qubit circuit."""
    np.save(tmp / "x.npy", np.random.default_rng(2).standard_normal((1024, 1024)))
    (tmp / "c.json").write_text('{"n": 14, "gates": []}')
    return tmp


# CLI runs whose whole peak, the loaded input and the printed envelope included,
# stays within the bytes the run checks
CLI_BOUNDED = {
    "twirl": ["twirl", "--t", "2", "--d", "32", "--group", "o", "--input", "{tmp}/x.npy"],
    "simulate-inline": ["simulate", "--circuit", "{tmp}/c.json"],
}


@pytest.mark.parametrize("name", CLI_BOUNDED)
def test_cli_peak_within_the_checked_bytes(name, counted, tmp_path):
    argv = [a.format(tmp=cli_inputs(tmp_path)) for a in CLI_BOUNDED[name]]
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        peak = traced_peak(lambda: codes.append(cli.main(argv)))
    assert codes == [0]
    assert peak <= max(counted) + UNCOUNTED


@pytest.mark.parametrize("group", ["sp", "o", "so", "u"])
def test_sample_peak_within_the_checked_bytes(group, counted, tmp_path, capsys):
    argv = ["sample", "--group", group, "--d", "256", "--count", "2", "--seed", "1",
            "--out", str(tmp_path / "s.npy")]
    assert cli.main(argv[:4] + ["4"] + argv[5:]) == 0  # warm
    codes = []
    peak = traced_peak(lambda: codes.append(cli.main(argv)))
    assert codes == [0] and np.load(tmp_path / "s.npy").shape == (2, 256, 256)
    assert peak <= counted[-1] + UNCOUNTED


# -- the float range of the Gram entries ---------------------------------------------

def test_gram_entries_stay_in_float_range():
    brauer.check_gram(2, 10**150, "sp")
    brauer.check_gram(5, 10**61, "o")
    with pytest.raises(CapacityError):
        brauer.check_gram(2, 10**160, "o")
    with pytest.raises(CapacityError):
        brauer.check_gram(5, 10**62, "o")
    for t, d in ((2, 10**150), (3, 10**102)):
        g = brauer.gram(t, d, "sp")
        assert np.all(np.isfinite(g.entries)) and np.all(np.isfinite(g.inverse()))


# -- the only capacity errors outside check_bytes are count caps ---------------------

SRC = pathlib.Path(spcirc.__file__).parent

# (module, function) -> a name its guarding if-test must read
ALLOWED = {
    ("errors", "check_bytes"): "MEMORY_LIMIT",
    ("brauer", "_check_order"): "MAX_T",  # diagrams enumerated
    ("pauli", "enumerate_sp_basis"): "BASIS_LIMIT",  # Pauli strings enumerated
    ("lie_closure", "check_closure"): "max_dim",  # the --max-dim budget
    # not memory: the Gram entries d**t must be float64 numbers
    ("brauer", "check_gram"): "float_info",
}


def raises_capacity(node) -> bool:
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "CapacityError")


def capacity_raises():
    """(module, function, names the guarding if-test reads) per raise of
    CapacityError, and the number of such raises in the package."""
    found, total = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        total += sum(map(raises_capacity, ast.walk(tree)))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for guard in ast.walk(func):
                if isinstance(guard, ast.If) and any(map(raises_capacity, guard.body)):
                    names = {getattr(x, "id", None) or getattr(x, "attr", None)
                             for x in ast.walk(guard.test)}
                    found.append((path.stem, func.name, names))
    return found, total


def test_capacity_errors_are_byte_bounds_or_count_caps():
    found, total = capacity_raises()
    assert len(found) == total, "a raise of CapacityError outside an if statement"
    for module, func, names in found:
        assert (module, func) in ALLOWED, f"{module}.{func} raises CapacityError"
        assert ALLOWED[module, func] in names, (module, func, names)

