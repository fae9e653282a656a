"""Hot numerical kernels, vectorized with numpy.

Four kernels carry the package's inner loops: ``apply_gate_2q`` and
``pauli_rotation`` for the statevector simulator, ``transfer_apply`` for the
second-moment propagator's block steps and ``closure_round`` for the Lie closure.
``benchmarks/bench_kernels.py`` times each one on a representative workload.

``closure_round`` commutes a frontier of Pauli directions with a second set.
``lie_closure.closure`` passes the generators as that set: the algebra they
generate is spanned by right-normed brackets [g1, [g2, ... [g(k-1), gk]]],
and a commutator of two directions is one direction or zero, so a round
costs |frontier| * |G| parity tests rather than |frontier| * dim. Each
direction is one int64 key, and the pairs are taken in blocks small enough
for their temporaries to stay in cache.

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

# (frontier, basis) pairs per block, so that one block's int64 temporaries
# (256 KiB each) sit in a core's L2 cache. Theorem1 closures at n = 10 and 11
# take about as long with 2**14 to 2**17 pairs per block, and about 1.2x as
# long with 2**13 or 2**20.
CHUNK_PAIRS = 1 << 15


def closure_round(new, n, basis, seen):
    """Commute each frontier direction with each basis direction; return the
    fresh commutator directions.

    A direction is one int64 key (x << n) | z, the index into ``seen``, a
    bool array of length 4**n that is updated in place. Two directions
    anticommute iff popcount(key1 & swap2) is odd, where swap2 = (z2 << n) | x2
    (it counts x1 & z2 and z1 & x2 at once), and their commutator is then the
    direction key1 ^ key2. The frontier is processed in blocks of about
    ``CHUNK_PAIRS`` (frontier, basis) pairs. ``lie_closure.check_closure``
    admits n <= 12, so a key uses at most 24 bits, and a key with its
    position in a block fits one int64 for the dedup. Returns the fresh keys
    in row-major (frontier, basis) order, each at its first occurrence.
    """
    if new.size == 0 or basis.size == 0:
        return np.empty(0, dtype=np.int64)
    basis_swap = ((basis & ((1 << n) - 1)) << n) | (basis >> n)
    rows = max(1, CHUNK_PAIRS // basis.size)
    found = []
    for start in range(0, new.size, rows):
        block = new[start:start + rows, None]
        odd = np.bitwise_count(block & basis_swap)
        odd &= 1
        keys = (block ^ basis).ravel()[np.flatnonzero(odd.view(bool))]
        fresh = np.flatnonzero(~seen[keys])
        # first occurrence of each fresh key: sort (key, position) packed in
        # one int64 and keep the head of each run of equal keys
        tagged = np.sort((keys[fresh] << 32) | fresh)
        head = np.ones(tagged.size, dtype=bool)
        np.not_equal(tagged[1:] >> 32, tagged[:-1] >> 32, out=head[1:])
        keys = keys[np.sort(tagged[head] & 0xFFFFFFFF)]
        seen[keys] = True
        found.append(keys)
    return np.concatenate(found)
