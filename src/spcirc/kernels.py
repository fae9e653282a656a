"""Hot numerical kernels, vectorized with numpy.

Four kernels carry the package's inner loops: ``apply_gate_2q`` and
``pauli_rotation`` for the statevector simulator, ``transfer_apply`` for the
second-moment label propagator and ``closure_round`` for the Lie closure.
``benchmarks/bench_kernels.py`` times each one on a representative workload.

Conventions shared with the rest of the package:

- statevectors are 1-D complex arrays of length 2**n; qubit j (1-based,
  leftmost tensor factor) lives at dense bit position n - j (qubit 1 = MSB);
- two-qubit gate matrices are 4x4 with index 2*b_a + b_b where b_a is the bit
  at ``pos_a`` and b_b the bit at ``pos_b``;
- label vectors for the second-moment propagator are 1-D float64 arrays whose
  axis being contracted has length ``din`` and stride ``R``.
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
# label-basis transfer contraction: out[l,o,r] = sum_i T[o,i] v[l,i,r]

def transfer_apply(v, T, L, din, R):
    """Contract matrix T (dout x din) into the middle axis of v (L, din, R)."""
    return np.matmul(T, v.reshape(L, din, R)).reshape(-1)


# ---------------------------------------------------------------------------
# one breadth-first round of Lie-closure commutators over Pauli directions

def closure_round(new_x, new_z, all_x, all_z, seen, n):
    """Commutate the frontier against the whole basis; return fresh directions.

    ``seen`` is a bool array of length 4**n indexed by key (x << n) | z and is
    updated in place. Returns (found_x, found_z) in first-discovery order.
    """
    out_x = np.empty(seen.size, dtype=np.int64)
    out_z = np.empty(seen.size, dtype=np.int64)
    count = 0
    for i in range(new_x.size):
        par = (np.bitwise_count(new_x[i] & all_z) + np.bitwise_count(new_z[i] & all_x)) & 1
        idx = np.nonzero(par)[0]
        if idx.size == 0:
            continue
        x3 = new_x[i] ^ all_x[idx]
        z3 = new_z[i] ^ all_z[idx]
        keys = (x3 << n) | z3
        fresh = ~seen[keys]
        if not fresh.any():
            continue
        kf = keys[fresh]
        # stable first-occurrence dedup within the batch
        _, first = np.unique(kf, return_index=True)
        order = np.sort(first)
        kf = kf[order]
        xf = (x3[fresh])[order]
        zf = (z3[fresh])[order]
        seen[kf] = True
        out_x[count:count + kf.size] = xf
        out_z[count:count + kf.size] = zf
        count += kf.size
    return out_x[:count].copy(), out_z[:count].copy()
