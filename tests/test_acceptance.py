"""The ten release acceptance checks, one test per criterion.

Every test prints exactly one line

    ACCEPTANCE <k> <PASS|FAIL>: <detail>

before asserting, so a verbose run (pytest -v -rA) shows the full scorecard
even when a criterion fails. Tolerances are asserted as stated; nothing is
loosened to force a green run. Criteria 2 and 6 check the bond generator set
on both sides of its boundary: at n = 2 (one bond) every generator already
lies in sp(2), so the closure is the 10-dimensional symplectic algebra and
its circuits are exactly symplectic; from n = 3 on the closure is su(d) and
its circuits leave the symplectic group.
"""

import math
import time

import numpy as np
import pytest

from spcirc import brauer, circuit, gp_stats, lie_closure, moment
from spcirc.pauli import PauliString
from spcirc.sampler import RngStream, symplectic_defect


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def gp_run_n8():
    """One n = 8, N = 10^4 Gaussian-process run shared by criteria 7 and 8."""
    states = [
        gp_stats.StateSpec.computational_basis(8, 0),
        gp_stats.StateSpec.superposition_pair(8, 2),
    ]
    obs = PauliString.single(8, 2, "Y")
    started = time.monotonic()
    summary = gp_stats.run_gp_experiment(
        states, obs, 10_000, RngStream(814, "acceptance-gp")
    )
    return summary, time.monotonic() - started


@pytest.fixture(scope="module")
def depth_sweep():
    """n_L*(n) for n = 4..14 at epsilon = 0.01, shared by criterion 10."""
    started = time.monotonic()
    results = [
        moment.depth_to_anticoncentrate(n, epsilon=0.01) for n in range(4, 15)
    ]
    return results, time.monotonic() - started


# ---------------------------------------------------------------------------

def test_criterion_01_closure_dimensions_first_set():
    want = {2: 10, 3: 36, 4: 136, 5: 528}
    started = time.monotonic()
    got = {
        n: lie_closure.closure(lie_closure.theorem1_generators(n)).dimension
        for n in want
    }
    elapsed = time.monotonic() - started
    ok = got == want and elapsed < 60.0
    verdict(1, ok, f"dimensions {got} (want {want}), {elapsed:.1f} s (< 60 s)")


def test_criterion_02_closure_dimensions_bond_set():
    want = {2: 10, 3: 63, 4: 255}
    want_kind = {2: "sp", 3: "su", 4: "su"}
    # n = 2 has the single bond (1,2), whose generators all lie in sp(2).
    results = {
        n: lie_closure.closure(lie_closure.prop2_generators(n)) for n in want
    }
    got = {n: r.dimension for n, r in results.items()}
    got_kind = {n: r.classification for n, r in results.items()}
    ok = got == want and got_kind == want_kind
    verdict(
        2,
        ok,
        f"dimensions {got} (want {want}); "
        f"classifications {got_kind} (want {want_kind})",
    )


def test_criterion_03_gram_matrix():
    frozen_ok = True
    details = []
    for d in (4, 8, 16):
        g = brauer.gram(2, d, "sp")
        want = np.array(
            [[d * d, d, -d], [d, d * d, d], [-d, d, d * d]], dtype=float
        )
        diff = np.abs(g.entries - want).max()
        frozen_ok = frozen_ok and diff == 0.0
        details.append(f"d={d} exact" if diff == 0.0 else f"d={d} diff {diff}")
    g4 = brauer.gram(2, 4, "sp")
    reps = [brauer.represent(s, 4, form="sp") for s in g4.diagrams]
    dense = np.array([[float(np.sum(a * b)) for b in reps] for a in reps])
    dense_diff = np.abs(dense - g4.entries).max()
    ok = frozen_ok and dense_diff <= 1e-9
    verdict(3, ok, f"{', '.join(details)}; dense-trace diff {dense_diff:.2e} at d=4")


def test_criterion_04_twirl_vs_monte_carlo():
    stream = RngStream(4444, "acceptance-twirl")
    x_gen = stream.child("x").generator()
    counts = (100, 1000, 10_000)
    errs = {n: [] for n in counts}
    for i in range(10):
        g = x_gen.normal(size=(16, 16)) + 1j * x_gen.normal(size=(16, 16))
        x = (g + g.conj().T) / 2
        x /= np.linalg.norm(x)
        exact = brauer.twirl(x, 2, 4, "sp").matrix
        for n in counts:
            mc = brauer.monte_carlo_twirl(
                x, 2, 4, "sp", n, stream.child(f"mc{i}n{n}").generator()
            )
            errs[n].append(float(np.abs(exact - mc).max()))
    worst = max(errs[10_000])
    means = {n: float(np.mean(errs[n])) for n in counts}
    scaling = means[100] > means[1000] > means[10_000]
    ratio = means[100] / means[10_000]
    ok = worst <= 5e-2 and scaling and ratio >= 3.0
    verdict(
        4,
        ok,
        f"max err {worst:.4f} at N=1e4 (<= 0.05); mean errs "
        f"{means[100]:.4f}/{means[1000]:.4f}/{means[10_000]:.4f}, "
        f"ratio {ratio:.1f} (expect ~10 for N^-1/2)",
    )


def test_criterion_05_printed_transfer_matrix():
    tau = np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1 / 4, 3 / 20, 1 / 10, 1 / 4, -3 / 20],
            [0, 3 / 20, 1 / 4, -1 / 10, 3 / 20, -1 / 4],
            [0, 3 / 20, -3 / 20, 3 / 10, 3 / 20, 3 / 20],
            [0, 3 / 5, 0, 3 / 5, 3 / 5, 0],
            [0, 0, -3 / 5, 3 / 5, 0, 3 / 5],
        ]
    )
    t = moment.derive_transfer("sp2")
    diff = np.abs(t.entries - tau).max()
    ok = diff <= 1e-12 and t.basis_order == ("II", "IS", "IB", "SI", "SS", "SB")
    verdict(
        5,
        ok,
        f"derived 6x6 transfer vs frozen table: max diff {diff:.2e} "
        f"(<= 1e-12), basis order {','.join(t.basis_order)} (identity permutation)",
    )


def test_criterion_06_symplectic_membership():
    gen = RngStream(66, "acceptance-circuits").generator()

    def random_thetas(count):
        return gen.uniform(-math.pi, math.pi, size=count)

    defects_ok = 0
    for _ in range(500):
        n = int(gen.integers(2, 7))
        gens = lie_closure.theorem1_generators(n)
        blocks = [
            circuit.rotation_block(gens, random_thetas(len(gens.generators)))
            for _ in range(int(gen.integers(1, 4)))
        ]
        u = circuit.to_unitary(circuit.concat(blocks))
        if symplectic_defect(u) <= 1e-9:
            defects_ok += 1
    for _ in range(500):
        n = int(gen.integers(2, 7))
        circ = circuit.build_bricklayer(n, int(gen.integers(1, 4)), gen)
        if symplectic_defect(circuit.to_unitary(circ)) <= 1e-9:
            defects_ok += 1

    bond_count = {
        n: len(lie_closure.prop2_generators(n).generators) for n in (2, 3)
    }
    bond_defects = {}
    for n in (2, 3):
        bond_defects[n] = []
        for _ in range(50):
            blocks = [
                circuit.rotation_block(lie_closure.prop2_generators(n),
                                       random_thetas(bond_count[n]))
                for _ in range(3)
            ]
            u = circuit.to_unitary(circuit.concat(blocks))
            bond_defects[n].append(symplectic_defect(u))

    # n = 2 bond generators lie in sp(2) (criterion 2), so those circuits
    # are exactly symplectic; at n = 3 they escape to su(8).
    exact_n2 = sum(x <= 1e-9 for x in bond_defects[2])
    violations_n3 = sum(x > 0.1 for x in bond_defects[3])
    ok = defects_ok == 1000 and exact_n2 == 50 and violations_n3 >= 49
    verdict(
        6,
        ok,
        f"{defects_ok}/1000 symplectic circuits within 1e-9; "
        f"bond-set circuits: {exact_n2}/50 at n = 2 within 1e-9 (need 50), "
        f"{violations_n3}/50 at n = 3 violate > 0.1 (need >= 49)",
    )


def test_criterion_07_gp_covariance(gp_run_n8):
    summary, elapsed = gp_run_n8
    d = 256.0
    t_matrix = np.array([[1.0, 0.5], [0.5, 1.0]])
    reference = t_matrix / d
    exact = summary.exact_covariance
    err_ref = np.abs(summary.covariance - reference)
    err_exact = np.abs(summary.covariance - exact)
    limit = 3.0 * summary.covariance_se
    ratios = summary.fourth_moment_ratio
    ok = (
        bool(np.all(err_ref <= limit))
        and bool(np.all(err_exact <= limit))
        and bool(np.all((ratios >= 0.9) & (ratios <= 1.1)))
        and elapsed < 600.0
    )
    verdict(
        7,
        ok,
        f"cov err vs overlap/d {err_ref.max():.2e}, vs exact {err_exact.max():.2e} "
        f"(3 SE = {limit.max():.2e}); fourth-moment ratios "
        f"{ratios[0]:.3f}/{ratios[1]:.3f} in [0.9, 1.1]; {elapsed:.0f} s (< 600 s)",
    )


def test_criterion_08_concentration_bound(gp_run_n8):
    summary, _ = gp_run_n8
    d = 256.0
    tr_g = 0.5  # basis state
    sigma = math.sqrt(2.0 * tr_g / d)
    values = np.abs(summary.values[:, 0])
    grid = np.linspace(0.5 * sigma, 5.0 * sigma, 20)
    empirical = (values[None, :] >= grid[:, None]).mean(axis=1)
    bound = 2.0 * tr_g / (d * grid**2)
    violations = int(np.sum(empirical > bound))
    ok = violations == 0
    verdict(
        8,
        ok,
        f"{violations} violations of the second-moment tail bound on a "
        f"20-point grid (n = 8, N = 10^4, worst margin "
        f"{np.min(bound - empirical):.3f})",
    )


def test_criterion_09_anticoncentration():
    table = gp_stats.anticoncentration_check(
        6, 10_000, [0.5], RngStream(99, "acceptance-anticoncentration")
    )
    emp = float(table.empirical[0])
    z_err = abs(table.z_estimate - table.z_haar)
    ok = emp >= 0.125 and z_err <= 3.0 * table.z_se
    verdict(
        9,
        ok,
        f"Pr(p >= 0.5/d) = {emp:.3f} (>= 0.125); z = {table.z_estimate:.5f} "
        f"vs {table.z_haar:.5f}, err {z_err:.2e} <= 3 SE = {3 * table.z_se:.2e}",
    )


def test_criterion_10_collision_engine(depth_sweep):
    started = time.monotonic()
    dense_worst = 0.0
    for n in range(2, 7):
        for depth in range(1, 5):
            z_dense = moment.dense_collision(
                moment.dense_second_moment(n, depth), n
            )
            z_prop = moment.collision_probability(
                moment.propagate(moment.initial_label_vector(n), depth)
            )
            dense_worst = max(dense_worst, abs(z_dense - z_prop))
    dense_ok = dense_worst <= 1e-10

    fixed_worst = 0.0
    fixed_ok = True
    for n in range(2, 13):
        zh = moment.z_haar(n)
        v = moment.initial_label_vector(n)
        gap = None
        for _ in range(500):
            v = moment.propagate(v, 1)
            gap = abs(moment.collision_probability(v) - zh)
            if gap <= 1e-8:
                break
        fixed_ok = fixed_ok and gap is not None and gap <= 1e-8
        fixed_worst = max(fixed_worst, gap)

    results, sweep_seconds = depth_sweep
    stars = [r.n_l_star for r in results]
    monotone = all(x is not None for x in stars) and all(
        b >= a for a, b in zip(stars, stars[1:])
    )
    fit = moment.fit_log_depth([r.n for r in results], stars)
    elapsed = time.monotonic() - started + sweep_seconds
    ok = dense_ok and fixed_ok and monotone and fit.r_squared >= 0.9 and elapsed < 1800.0
    verdict(
        10,
        ok,
        f"dense vs propagated max diff {dense_worst:.1e} (<= 1e-10); "
        f"fixed point reached to 1e-8 for n <= 12 (worst gap {fixed_worst:.1e}); "
        f"n_L* {stars} nondecreasing = {monotone}, log fit a = {fit.a:.2f}, "
        f"R^2 = {fit.r_squared:.3f} (>= 0.9); {elapsed:.0f} s (< 1800 s)",
    )
