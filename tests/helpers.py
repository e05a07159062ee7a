"""Shared sample generators for the test suite."""

import json

import numpy as np

from symext import DensityMatrix, OracleConfig, random_density, symmetric_projector


def state_to_obj(rho):
    """A state as a decoded state file holds it: {"dims": [...], "matrix": {"re": [[...]], "im": [[...]]}}."""
    return {
        "dims": list(rho.dims),
        "matrix": {"re": rho.mat.real.tolist(), "im": rho.mat.imag.tolist()},
    }


def dump_state(rho, path):
    """Write a state file that ``symext.cli.load_state`` reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_obj(rho), fh)
        fh.write("\n")


def random_separable(dims, rng, terms=6):
    """Convex mixture of random product states: separable by construction."""
    d_a, d_b = dims
    weights = rng.random(terms)
    weights /= weights.sum()
    mat = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for w in weights:
        mat += w * np.kron(random_density([d_a], rng).mat, random_density([d_b], rng).mat)
    return DensityMatrix(mat, dims)


def random_symmetric_supported(d, k, rng):
    """Random full-support state on the symmetric subspace of k factors."""
    proj = symmetric_projector(d, k)
    side = d**k
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    mat = proj @ (g @ g.conj().T) @ proj
    return DensityMatrix(mat / np.trace(mat).real, (d,) * k)


def random_bosonic_marginal(d_a, d_b, k, r, rng):
    """Marginal on A,B_1..B_r of a random state on A tensor Sym^k(B)."""
    from symext import partial_trace
    from symext.linalg import _occupation_isometry

    iso = _occupation_isometry(d_b, k)
    lift = np.kron(np.eye(d_a, dtype=complex), iso)
    m = lift.shape[1]
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    y = g @ g.conj().T
    y /= np.trace(y).real
    big = DensityMatrix(lift @ y @ lift.conj().T, (d_a,) + (d_b,) * k)
    return partial_trace(big, range(r + 1))


def brute_force_symmetric_projector(d, r):
    """(1/r!) times the sum of all r! permutation operators on r factors of dimension d."""
    import itertools
    import math

    from symext import permutation_operator

    acc = sum(permutation_operator(d, r, pi) for pi in itertools.permutations(range(r)))
    return acc / math.factorial(r)


def brute_force_permutation_average(x, dims):
    """Average of x over all k! permutations of the B factors, one conjugation per permutation."""
    import itertools
    import math

    d_a, d_b, k = dims[0], dims[1], len(dims) - 1
    words = np.array(list(itertools.product(range(d_b), repeat=k)), dtype=np.intp).reshape(-1, k)
    offsets = np.arange(d_a, dtype=np.intp)[:, None] * d_b**k
    acc = np.zeros_like(x, dtype=complex)
    for pi in itertools.permutations(range(k)):
        src = (offsets + np.ravel_multi_index(words[:, pi].T, (d_b,) * k)[None, :]).ravel()
        acc += x[np.ix_(src, src)]
    return acc / math.factorial(k)


def dense_face_affine_projection(x, dims, kernel, target):
    """Projection onto {X : permutation invariant, supported on the face, marginal = target}, on the full space.

    The face is the null space of the kernel vectors placed on every (A, B_i)
    pair; the marginal correction solves the normal equations of the marginal
    map restricted to invariant face operators, one unit matrix at a time.
    """
    from symext import project_permutation_invariant
    from symext.linalg import _ptrace_mat

    d_a, d_b, k = dims[0], dims[1], len(dims) - 1
    n_ab, rest = d_a * d_b, d_b ** (k - 1)
    base = np.kron(kernel.conj().T, np.eye(rest)).reshape((-1,) + tuple(dims))
    # axis 2 is B_1; swapping it with B_i places the kernel on (A, B_i)
    rows = np.vstack([np.swapaxes(base, 2, 1 + i).reshape(base.shape[0], -1) for i in range(1, k + 1)])
    face = np.eye(rows.shape[1]) - np.linalg.pinv(rows) @ rows
    phi = lambda m: face @ project_permutation_invariant(m, dims) @ face
    marg = lambda m: _ptrace_mat(m, dims, keep=[0, 1])
    marg_adj = lambda w: np.kron(w, np.eye(rest))
    gram = np.zeros((n_ab * n_ab, n_ab * n_ab), dtype=complex)
    unit = np.zeros((n_ab, n_ab), dtype=complex)
    for col in range(n_ab * n_ab):
        unit.flat[col] = 1.0
        gram[:, col] = marg(phi(marg_adj(unit))).ravel()
        unit.flat[col] = 0.0
    z = phi(x)
    w = (np.linalg.pinv(gram, rcond=1e-10, hermitian=True) @ (target - marg(z)).ravel()).reshape(n_ab, n_ab)
    return z + phi(marg_adj(w))


def plain_nullspace(rows):
    """Null space basis of kernel rows by a QR of tall rows and an SVD: the rank decision facial reduction had first."""
    from symext.oracle import RANK_RTOL

    if rows.shape[0] > rows.shape[1]:
        rows = np.linalg.qr(rows, mode="r")
    _, svals, vh = np.linalg.svd(rows)
    rank = int(np.sum(svals > RANK_RTOL * svals[0])) if svals.size else 0
    return vh[rank:].conj().T


def reference_jacobian_weights(lam):
    """Divided differences of max(., 0) at eigenvalues in any order, by two where passes over the n x n table."""
    pos = lam > 0
    same = pos[:, None] == pos[None, :]
    rise = np.maximum(lam, 0.0)
    # 1 or 0 for a pair on one side of zero; a pair across zero has lam_p != lam_q
    across = (rise[:, None] - rise[None, :]) / np.where(same, 1.0, lam[:, None] - lam[None, :])
    return np.where(same, pos[:, None] & pos[None, :], across)


def reference_min_eig(blocks, *flats):
    """Smallest eigenvalue of each flat iterate on the span of the blocks, folded in by np.minimum from np.full."""
    import math

    lows = np.full(len(flats), math.inf)
    for root, blk in zip(blocks.roots, blocks.split(blocks.hermitian(np.array(flats)))):
        np.minimum(lows, np.linalg.eigvalsh(blk)[:, 0] / root, out=lows)
    return lows


def reference_positive_part(parts):
    """P+ of every block from its eigendecomposition, raveled and concatenated into one flat iterate."""
    return np.concatenate([((v * np.maximum(lam, 0.0)) @ v.conj().T).ravel() for lam, v in parts])


def reference_placed_marginal(blocks, flat):
    """The AB marginal of a flat iterate from the stored placements, summed into zeros."""
    r = blocks.rank
    out = np.zeros((r, r), dtype=np.result_type(flat, blocks.amap))
    for v, scale, (a, b, s) in zip(blocks.rows, blocks.scales, blocks.runs):
        vn = (v.reshape(-1, s) @ flat[a:b].reshape(s, s)).reshape(r, -1)
        out += scale * (vn @ v.conj().T)
    return blocks.expand(out)


def lift_blocks(blocks, flat):
    """The full-space operator sum_b m_b Sym(V_b M_b V_b^dag) of a flat block iterate."""
    import math

    from symext import project_permutation_invariant

    n = math.prod(blocks.dims)
    out = np.zeros((n, n), dtype=complex)
    for v, m, blk in zip(block_isometries(blocks), blocks.weights, blocks.split(flat)):
        out += project_permutation_invariant((math.sqrt(m) * v) @ blk @ v.conj().T, blocks.dims)
    return out


def project_affine(blocks, flat, target):
    """Orthogonal projection of a flat block iterate onto those whose marginal is target."""
    return flat - blocks.correction(blocks.marginal(flat) - target)


def lifted_placements(blocks, placed):
    """A block's stored placements with their A B_i rows lifted back to AB: F p on a face of frame F, p off one."""
    return placed if blocks.frame is None else np.einsum("ar,irts->iats", blocks.frame, placed)


def block_isometries(blocks):
    """Each block's isometry V_b as (A B_1 ... B_k, column): its first placement, which moves no factor, lifted to AB."""
    return [lifted_placements(blocks, p)[0].reshape(-1, p.shape[-1]) for p in blocks.placed]


def compress_rows(blocks, amap):
    """A map onto flattened operators on AB, followed by F^dag (.) F on a face of frame F."""
    f = blocks.frame
    if f is None:
        return amap
    n_ab, r = f.shape
    return np.einsum("ar,abc,bs->rsc", f.conj(), amap.reshape(n_ab, n_ab, -1), f).reshape(r * r, -1)


def rebuilt_placements(iso, dims):
    """The k placements of an isometry on A B_1 ... B_k, each moving B_i next to A on the full tensor."""
    d_a, d_b, k = dims[0], dims[1], len(dims) - 1
    s = iso.shape[1]
    return [np.moveaxis(iso.reshape(tuple(dims) + (s,)), i, 1).reshape(d_a * d_b, -1, s) for i in range(1, k + 1)]


def placed_amap(blocks):
    """The marginal map from all k rebuilt placements of each block: sqrt(m_b)/k sum_i Tr_rest(P_i N P_i^dag).

    On a face its rows are compressed onto the frame like amap's, F^dag (.) F.
    """
    import math

    n_ab, k = blocks.dims[0] * blocks.dims[1], len(blocks.dims) - 1
    cols = [np.zeros((n_ab * n_ab, 0))]
    for v, m in zip(block_isometries(blocks), blocks.weights):
        ps = np.stack(rebuilt_placements(v, blocks.dims))
        cols.append((math.sqrt(m) / k * np.einsum("iart,ibru->abtu", ps, ps.conj())).reshape(n_ab * n_ab, -1))
    return compress_rows(blocks, np.hstack(cols))


def column_hessian(blocks, parts):
    """Newton's Hessian amap J amap^dag, one column at a time from the blocks' eigendecompositions.

    Column j is amap J(G_j), with G_j = amap^dag e_j the lift of the j-th
    unit matrix and J(G) = V (omega o V^dag G V) V^dag on each block.
    """
    from symext.oracle import _jacobian_weights

    m = blocks.amap.shape[0]
    hess = np.zeros((m, m), dtype=complex)
    for j in range(m):
        lifts = blocks.split(blocks.adjoint(np.eye(m, dtype=complex)[j]))
        jac = [v @ (_jacobian_weights(lam) * (v.conj().T @ g @ v)) @ v.conj().T for (lam, v), g in zip(parts, lifts)]
        hess[:, j] = blocks.marginal(np.concatenate([x.ravel() for x in jac]))
    return hess


# Extension sides up to which a dual witness is also checked on the full space.
DENSE_CHECK_SIDE = 64


def dense_dual_check(problem, witness):
    """(smallest eigenvalue, Tr(W' rho)) of a dual witness W', read on the full space without the oracle's blocks.

    The lift (1/k) sum_i W'_{AB_i} (x) I is built densely and compressed onto
    the space every extension lives in: A (x) B^(x)k for the symmetric flavor,
    A (x) Sym^k(B) for the bosonic one, and within it, for a singular
    marginal, the face annihilating its kernel vectors on every (A, B_i).
    The smallest eigenvalue over an empty face is infinite.
    """
    from symext import BOSONIC

    rho, k = problem.marginal, problem.k
    d_a, d_b = rho.dims
    dims = (d_a,) + (d_b,) * k
    n, rest = d_a * d_b**k, d_b ** (k - 1)
    t = np.kron(witness, np.eye(rest)).reshape(dims + dims)
    # axis 1 is B_1 on the row side and k + 2 on the column side; swapping places W' on (A, B_i)
    lift = sum(np.swapaxes(np.swapaxes(t, 1, i), k + 2, k + 1 + i) for i in range(1, k + 1)).reshape(n, n) / k
    space = np.eye(n)
    if problem.flavor == BOSONIC:
        evals, evecs = np.linalg.eigh(np.kron(np.eye(d_a), brute_force_symmetric_projector(d_b, k)))
        space = evecs[:, evals > 0.5]
    evals, evecs = np.linalg.eigh(rho.mat)
    kernel = evecs[:, evals <= 1e-12]
    if kernel.shape[1]:
        base = np.kron(kernel.conj().T, np.eye(rest)).reshape((-1,) + dims)
        rows = np.vstack([np.swapaxes(base, 2, 1 + i).reshape(base.shape[0], -1) for i in range(1, k + 1)])
        _, svals, vh = np.linalg.svd(rows @ space)
        rank = int(np.sum(svals > 1e-10 * svals[0]))
        space = space @ vh[rank:].conj().T
    low = float(np.linalg.eigvalsh(space.conj().T @ lift @ space)[0]) if space.shape[1] else np.inf
    return low, float(np.vdot(witness, rho.mat).real)


def certificate_holds(res, problem) -> bool:
    """An Infeasible result carries a certified dual witness, checked densely up to DENSE_CHECK_SIDE.

    The trace must also be negative with a margin, recomputed from W' and rho:
    -Tr(W' rho) >= tol_gap ||W'||_2 for the default tol_gap.
    """
    if not (res.certificate["certified"] is True and res.certificate["dual_trace"] < 0):
        return False
    witness = res.dual_witness
    if -float(np.vdot(witness, problem.marginal.mat).real) < OracleConfig().tol_gap * float(np.linalg.norm(witness, 2)):
        return False
    d_a, d_b = problem.marginal.dims
    if d_a * d_b**problem.k > DENSE_CHECK_SIDE:
        return True
    low, trace = dense_dual_check(problem, res.dual_witness)
    return low >= -1e-12 and trace < 0


def kron_derived_mats(mats, dims, k, flavor, tol):
    """Tilde or hat matrices of a stack by the Kronecker formula: the reference for the in-place lift."""
    from symext.criteria import SYMMETRIC
    from symext.linalg import _ptrace_mat, _validated_spectra, hermitize

    d_b = dims[1]
    # rho_A validated as partial_trace validates it, whatever rho's smallest eigenvalue proves
    lifted = np.kron(_validated_spectra(hermitize(_ptrace_mat(mats, dims, [0])), tol)[0], np.eye(d_b))
    if flavor == SYMMETRIC:
        return (d_b * lifted + k * mats) / (d_b**2 + k)
    return (lifted + k * mats) / (d_b + k)


def necessary_separability(sigma):
    """True when sigma_A x I - sigma is PSD; every separable state passes."""
    from symext.criteria import PPT_VIOLATION_TOL, _lift, _require_bipartite
    from symext.linalg import _reduced_of, hermitize

    _, d_b = _require_bipartite(sigma)
    m = _lift(-1, sigma.mat, 1, _reduced_of(sigma, [0])[0], d_b)
    return float(np.linalg.eigvalsh(hermitize(m))[0]) >= -PPT_VIOLATION_TOL


def kron_separability_mats(rho):
    """d_B rho - rho_A x I, (d_B + 1) rho - rho_A x I and rho_A x I - rho by the Kronecker formula.

    These are the matrices definetti_gap, sufficient_separability and
    necessary_separability read, in that order.
    """
    from symext import partial_trace

    d_b = rho.dims[1]
    lifted = np.kron(partial_trace(rho, [0]).mat, np.eye(d_b))
    return d_b * rho.mat - lifted, (d_b + 1) * rho.mat - lifted, lifted - rho.mat


def twirl_channel(rho_sym: DensityMatrix, d: int) -> np.ndarray:
    """Collapse a symmetric k-factor state to one factor via the permutation-sum average.

    Computes Tr over factors 2..k+1 of (I tensor rho) multiplied by the sum of
    all permutation operators on k+1 factors, normalized to trace one.  For
    inputs supported on the symmetric subspace this equals the normalization
    of tr(rho) I + k rho_B, where rho_B is the single-factor marginal.
    """
    from symext import LayoutError
    from symext.linalg import _checked_int, _occupation_isometry, _require_symmetric_support, hermitize

    d = _checked_int(d, "local dimension", 1)
    dims = rho_sym.dims
    k = len(dims)
    if any(dim != d for dim in dims):
        raise LayoutError(f"all factors must have dimension {d}, got layout {dims}")
    # the permutation sum is (k+1)! V V^dag; V as (first factor, the other k, column)
    t = _occupation_isometry(d, k + 1).reshape(d, d**k, -1)
    _require_symmetric_support(rho_sym.mat, _occupation_isometry(d, k), "state is")
    # Tr_{2..k+1}[(I x rho) V V^dag] = sum_j T_j rho^T T_j^T, T_j = t[:, :, j]; V is real
    out = np.tensordot(t, np.tensordot(rho_sym.mat.T, t, axes=(1, 1)), axes=([1, 2], [0, 2]))
    out = hermitize(out)
    return out / np.trace(out).real


def reference_bell_points(n):
    """The Bell simplex grid as a scalar triple loop makes it: ("p1,p2,p3" label, weights) per point, lexicographic."""
    ticks = [i / (n - 1) for i in range(n)]
    labels = [f"{t:.10g}" for t in ticks]
    points = []
    for i1, p1 in enumerate(ticks):
        for i2, p2 in enumerate(ticks):
            for i3, p3 in enumerate(ticks):
                p4 = 1.0 - p1 - p2 - p3
                if p4 < -1e-9:
                    continue
                points.append((f"{labels[i1]},{labels[i2]},{labels[i3]}", (p1, p2, p3, max(p4, 0.0))))
    return points


def dim_guard_reach_admits(d_a, d_b, k, flavor):
    """The oracle's admission before the dense-work rule, kept as a reference.

    DIM_LIMIT (256) on n_AB^2 and on the extension space side, and the old
    DIM_GUARD (4096) on the d_B^k rows of the block isometries, with k
    compared with log2 4096 = 12 before any power is formed.
    """
    import math

    from symext import SYMMETRIC

    if d_b < 2 or (d_a * d_b) ** 2 > 256 or k > 12:
        return False
    side = d_a * (d_b**k if flavor == SYMMETRIC else math.comb(d_b + k - 1, k))
    return side <= 256 and d_b**k <= 4096


class Admitted(Exception):
    """Raised by a stand-in for the first allocation after a guard: the guard admitted the call."""


def admitted(*args, **kwargs):
    raise Admitted
