"""Hot numerical kernels: numpy arrays, and Python integers as bit sets.

Three kernels carry the package's inner loops: ``apply_gate`` on the
amplitude axis, ``transfer_apply`` for the second-moment propagator's block
steps and ``closure_round`` for the Lie closure.
``benchmarks/bench_kernels.py`` times each kernel, and a circuit of
rotations, on a representative workload.

``closure_round`` commutes a frontier of Pauli directions with the
generators: the algebra they generate is spanned by right-normed brackets
[g1, [g2, ... [g(k-1), gk]]], and a commutator of two directions is one
direction or zero, so a round needs no other direction. A set of directions
is one 4**n-bit integer, and a round costs a few passes over 4**n bits per
generator, in C, whatever the frontier's size; it loads no numpy.

Conventions shared with the rest of the package:

- amplitudes run along axis 0 of an array and further axes are a batch;
  qubit j (1-based, leftmost factor) is dense bit n - j (qubit 1 = MSB);
- a Pauli string acts by its masks on the (2,)*n view of axis 0, where mask
  bit k is axis k: a flip along the x axes and a sign from the z axes
  (``PauliString.apply``);
- a gate on k legs at dense bit positions (p_1, ..., p_k) is 2**k x 2**k with
  index sum_m b_m * 2**(k - m), b_m the bit at p_m (2*b_a + b_b for k = 2);
- second-moment tensors are 1-D float64 arrays in row-major axis order;
  ``transfer_apply`` reads one as (L, din, R) and writes (L, dout, R), so
  the axes around the contracted ones stay in place. It is one gemm when
  R = 1 and a stack of L gemms otherwise.
"""

from .errors import np

# Kept for tools that report the machine they ran on; no kernel is compiled.
HAS_NUMBA = False


# ---------------------------------------------------------------------------
# k-leg dense gate on axis 0

def apply_gate(psi, gate, positions):
    """Apply a 2**k x 2**k gate in place at the k distinct dense bit
    ``positions`` of axis 0 of the C-contiguous psi, holding one copy of psi
    at a time: the product goes into psi with the gate's legs in front and
    is then moved back. A repeated position raises ValueError."""
    if not psi.flags.c_contiguous:
        raise ValueError("apply_gate writes in place into a C-contiguous array")
    n = psi.shape[0].bit_length() - 1
    # axis a of the (2,)*n view corresponds to dense bit position n-1-a
    axes = [n - 1 - p for p in positions]
    legs = range(len(axes))
    shape = (2,) * n + psi.shape[1:]
    np.matmul(gate, np.moveaxis(psi.reshape(shape), axes, legs).reshape(len(gate), -1),
              out=psi.reshape(len(gate), -1))
    psi[...] = np.moveaxis(psi.reshape(shape), legs, axes).reshape(psi.shape)


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

class Directions(int):
    """A set of Pauli directions as one 4**n-bit integer: bit k stands for
    the direction with key k = (x << n) | z. ``size`` counts them."""
    size = property(int.bit_count)


def closure_round(new, n, basis, seen):
    """Commute each direction of the frontier ``new`` with each generator of
    the ``lie_closure.ClosureBasis``; return the fresh commutator directions,
    those not in ``seen``, as ``Directions``.

    The commutator of k and g is the direction k ^ g when they anticommute,
    so a generator's commutators are the translation T_g(new) = {k ^ g} of
    the frontier, restricted to the directions that anticommute with g (a set
    T_g maps to itself). Each translation is built from the one before, one
    swap of 2**b-bit blocks per key bit b that differs. ``n`` is not read."""
    out, moved = 0, new
    for anticommuting_g, swaps in basis:
        for shift, ones in swaps:
            high = moved & ones
            moved = (high >> shift) | ((moved ^ high) << shift)
        out |= moved & anticommuting_g
    # out & ~seen: ~ makes a negative integer, and & on one costs about 6x
    return Directions(out ^ (out & seen))
