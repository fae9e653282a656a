"""Hot numerical kernels, vectorized with numpy.

Four kernels carry the package's inner loops: ``apply_gate_2q`` and
``pauli_rotation`` for the statevector simulator, ``transfer_apply`` for the
second-moment propagator's block steps and ``closure_round`` for the Lie closure.
``benchmarks/bench_kernels.py`` times each one on a representative workload.

``closure_round`` commutes a frontier of Pauli directions with a second set.
``lie_closure.closure`` passes the generators as that set: the algebra they
generate is spanned by right-normed brackets [g1, [g2, ... [g(k-1), gk]]],
and a commutator of two directions is one direction or zero, so a round
costs |frontier| * |G| parity tests rather than |frontier| * dim.

Conventions shared with the rest of the package:

- statevectors are 1-D complex arrays of length 2**n; qubit j (1-based,
  leftmost tensor factor) lives at dense bit position n - j (qubit 1 = MSB);
- two-qubit gate matrices are 4x4 with index 2*b_a + b_b where b_a is the bit
  at ``pos_a`` and b_b the bit at ``pos_b``;
- second-moment tensors are 1-D float64 arrays in row-major axis order;
  ``transfer_apply`` reads one as (L, din, R) and writes (L, dout, R), so
  the axes around the contracted ones stay in place. It is one gemm when
  R = 1 and a stack of L gemms otherwise.
"""

import numpy as np

# Kept for tools that report the machine they ran on; no kernel is compiled.
HAS_NUMBA = False


# ---------------------------------------------------------------------------
# two-qubit dense gate on a statevector

def apply_gate_2q(psi, gate, pos_a, pos_b):
    """Apply a 4x4 gate in place at dense bit positions (pos_a, pos_b)."""
    n = psi.size.bit_length() - 1
    # axis k of the (2,)*n view corresponds to dense bit position n-1-k
    ax_a = n - 1 - pos_a
    ax_b = n - 1 - pos_b
    v = psi.reshape((2,) * n)
    v = np.moveaxis(v, (ax_a, ax_b), (0, 1))
    shape = v.shape
    out = (gate @ v.reshape(4, -1)).reshape(shape)
    psi[:] = np.moveaxis(out, (0, 1), (ax_a, ax_b)).reshape(-1)


# ---------------------------------------------------------------------------
# exp(i theta P) on a statevector, P a Hermitian Pauli given by its dense action

def pauli_rotation(psi, x_dense, phases, theta):
    """In-place exp(i*theta*P)|psi> with P[r^x, r] = phases[r], the pair
    ``PauliString.dense_action`` returns."""
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    if x_dense == 0:
        psi *= cos_t + 1j * sin_t * phases
    else:
        ppsi = (phases * psi)[np.arange(psi.size) ^ x_dense]
        psi *= cos_t
        psi += 1j * sin_t * ppsi
    return psi


# ---------------------------------------------------------------------------
# block-step contraction: out[l,o,r] = sum_i T[o,i] v[l,i,r]

def transfer_apply(v, T, L, din, R):
    """Contract matrix T (dout x din) into the middle axis of v (L, din, R)
    and return the result flat in (L, dout, R) order: the contracted axis
    stays in place."""
    if R == 1:  # one gemm; a stack of L matrix-vector products is far slower
        return (v.reshape(L, din) @ T.T).reshape(-1)
    return np.matmul(T, v.reshape(L, din, R)).reshape(-1)


# ---------------------------------------------------------------------------
# one breadth-first round of Lie-closure commutators over Pauli directions

# Frontier rows per chunk are chosen so that a chunk holds about this many
# (frontier, basis) pairs: a few tens of MB of temporaries whatever the sizes.
CHUNK_PAIRS = 1 << 20


def closure_round(new_x, new_z, all_x, all_z, seen, n):
    """Commute each frontier direction with each basis direction; return the
    fresh commutator directions.

    Two Pauli directions anticommute iff popcount(x1 & z2) + popcount(z1 & x2)
    is odd, and their commutator is then the direction (x1 ^ x2, z1 ^ z2).
    The parities of a chunk of frontier rows against the whole basis are one
    vectorised pass. ``seen`` is a bool array of length 4**n indexed by key
    (x << n) | z and is updated in place. Returns (found_x, found_z) in
    row-major (frontier, basis) order, each direction at its first occurrence.
    """
    rows = max(1, CHUNK_PAIRS // max(all_x.size, 1))
    found_x, found_z = [], []
    for start in range(0, new_x.size, rows):
        fx = new_x[start:start + rows, None]
        fz = new_z[start:start + rows, None]
        par = (np.bitwise_count(fx & all_z) + np.bitwise_count(fz & all_x)) & 1
        i, j = np.nonzero(par)
        x3 = fx[i, 0] ^ all_x[j]
        z3 = fz[i, 0] ^ all_z[j]
        keys = (x3 << n) | z3
        fresh = np.flatnonzero(~seen[keys])
        # stable first-occurrence dedup within the chunk
        _, first = np.unique(keys[fresh], return_index=True)
        fresh = fresh[np.sort(first)]
        seen[keys[fresh]] = True
        found_x.append(x3[fresh])
        found_z.append(z3[fresh])
    if not found_x:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(found_x), np.concatenate(found_z)
