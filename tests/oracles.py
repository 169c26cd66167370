"""Bitwise oracles: the per-sample bodies that the array kernels and the blocked
``verify`` suites replaced.  The tests compare the kernels against them bit
for bit.  One oracle is exact instead: ``exact_covariants`` computes the
covariants in rational arithmetic, for the rounding bound the tests check the
covariant kernel against."""

from fractions import Fraction

import numpy as np

from spinorlab import (
    METRIC_SIGNS,
    PSEUDOSCALAR,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    BilinearInconsistencyError,
    ConditionReport,
    DegenerateProbeError,
    FlagDipoleFrame,
    HopfPoint,
    Multivector,
    NullSpinorError,
    Quaternion,
    QuaternionPair,
    SpinorC4,
    aggregate_matrix_residual,
    bilinears,
    classify,
    fierz_residuals,
    gamma_rep,
    ideal_projector,
    mappability,
)
from spinorlab.algebra import (
    BLADE_GRADES,
    BLADE_INDEX,
    BLADES,
    DIM,
    GRADE_2_PAIRS,
    PRODUCT_INDEX,
    lcontract,
    wedge,
)
from spinorlab.bilinears import _INVERSES, _MATRICES
from spinorlab.gamma import REP_TAGS

_FAMILIES = (slice(0, 1), slice(1, 5), slice(5, 11), slice(11, 15), slice(15, 16))


# ---- algebra -----------------------------------------------------------------


def scatter_product(x, y, table):
    """Product of two coefficient vectors, its terms scattered into their slots by ``np.add.at``."""
    terms = np.outer(x, y) * table
    out = np.zeros(DIM, dtype=terms.dtype)
    np.add.at(out, PRODUCT_INDEX.ravel(), terms.ravel())
    return out


def quaternion_to_multivector(q):
    """The even element w + x e23 - y e13 + z e12 of a quaternion (j = e31 = -e13)."""
    c = np.zeros(DIM)
    c[0] = q.w
    c[BLADE_INDEX[(2, 3)]] = q.x
    c[BLADE_INDEX[(1, 3)]] = -q.y
    c[BLADE_INDEX[(1, 2)]] = q.z
    return Multivector(c)


# ---- structure tables --------------------------------------------------------


def bubble_multiply_basis(a, b):
    """Product of two basis blades, (sign, sorted index tuple), by bubble-sorting the indices of a + b."""
    seq = list(a + b)
    sign = 1
    # each transposition of distinct generators flips the sign
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                swapped = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign *= METRIC_SIGNS[seq[i]]
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
_I2 = np.eye(2, dtype=np.complex128)
_Z2 = np.zeros((2, 2), dtype=np.complex128)


def loop_gamma_upper(tag, negate=np.negative):
    """gamma^mu of ``tag``, one spatial matrix at a time, each -s_k block made by ``negate(s_k)``."""
    g = np.empty((4, 4, 4), dtype=np.complex128)
    if tag == "chiral":
        g[0] = np.block([[_Z2, _I2], [_I2, _Z2]])
        for k in range(3):
            g[k + 1] = np.block([[_Z2, negate(_PAULI[k])], [_PAULI[k], _Z2]])
    else:
        g[0] = np.diag([1, 1, -1, -1]).astype(np.complex128)
        for k in range(3):
            g[k + 1] = np.block([[_Z2, _PAULI[k]], [negate(_PAULI[k]), _Z2]])
    return g


def loop_structure_tables(negate=np.negative, blade_dtype=float):
    """Every Cl(1,3) structure table, by the explicit loops: product signs by bubble sort, one
    lower gamma and one blade matrix at a time, and the tables built on them by the library's
    expressions on these.  Keys name the library's tables; ``negate`` is ``loop_gamma_upper``'s,
    and ``blade_dtype`` that of the blades the bilinear operators start from."""
    index = np.zeros((DIM, DIM), dtype=np.intp)
    sign = np.zeros((DIM, DIM))
    for i, a in enumerate(BLADES):
        for j, b in enumerate(BLADES):
            s, idx = bubble_multiply_basis(a, b)
            index[i, j] = BLADE_INDEX[idx]
            sign[i, j] = s
    grade_out, ga, gb = BLADE_GRADES[index], BLADE_GRADES[:, None], BLADE_GRADES[None, :]
    source = np.argsort(index, axis=1)  # each row is a permutation; its inverse
    tables = {
        "PRODUCT_INDEX": index,
        "PRODUCT_SIGN": sign,
        "WEDGE_SIGN": np.where(grade_out == ga + gb, sign, 0.0),
        "LCONTRACT_SIGN": np.where(grade_out == gb - ga, sign, 0.0),
        "_PRODUCT_SOURCE": source,
        "SIMILARITY": np.block([[_I2, _I2], [_I2, -_I2]]) / np.sqrt(2.0),
    }

    def mul(x, y):  # a one-row product_array on these tables
        terms = x[:, None] * y[None, :]
        terms *= sign
        by_slot = terms[np.arange(DIM)[:, None], source]
        out = np.zeros(DIM, dtype=terms.dtype)
        for i in range(DIM):
            out += by_slot[i]
        return out

    def blade(n, coeff=1.0):  # Multivector.blade
        c = np.zeros(DIM, dtype=blade_dtype)
        c[n] = coeff
        return c

    # bilinears._OPERATORS, each Multivector expression evaluated left to right
    upper_e = [blade(1 + mu, float(METRIC_SIGNS[mu])) for mu in range(4)]
    ps = blade(DIM - 1)
    ops = ([blade(0)] + upper_e + [mul(upper_e[mu] * 0.5j, upper_e[nu]) for mu, nu in GRADE_2_PAIRS]
           + [mul(ps * 1j, e) for e in upper_e] + [-ps])
    tables["_OPERATORS"] = np.array(ops, dtype=np.complex128)
    tables["_INVERSES"] = np.array([g / mul(g, g)[0] for g in ops], dtype=np.complex128)
    factors = np.repeat([1.0, 1.0, 2.0, 1.0, -1.0], [1, 4, 6, 4, 1])  # bilinears._FACTORS
    for tag in ("chiral", "standard"):
        upper = loop_gamma_upper(tag, negate)
        lower = upper.copy()
        for k in range(4):
            lower[k] = METRIC_SIGNS[k] * upper[k]
        blades = np.empty((DIM, 4, 4), dtype=np.complex128)
        for n, idx in enumerate(BLADES):
            m = np.eye(4, dtype=np.complex128)
            for i in idx:
                m = m @ lower[i]
            blades[n] = m
        matrices = (tables["_OPERATORS"][:, None, :] @ blades.reshape(DIM, 16)).reshape(-1, 4, 4)
        tables |= {
            f"{tag}.upper": upper,
            f"{tag}.lower": lower,
            f"{tag}.gamma5": 1j * upper[0] @ upper[1] @ upper[2] @ upper[3],
            f"{tag}.blades": blades,
            f"{tag}.pseudoscalar": blades[-1],
            f"_MATRICES.{tag}.forms": lower[0] @ matrices,
            f"_MATRICES.{tag}.operators": factors[:, None, None] * matrices,
        }
    return tables


def tensordot_matrix(rep, mv):
    """The blade-dictionary matrix of ``mv`` in ``rep``, one tensordot over the sixteen blades."""
    return np.tensordot(mv.coeffs, rep.blades, axes=(0, 0))


def matrix_to_mv(rep, matrix):
    """The multivector whose blade-dictionary matrix in ``rep`` is ``matrix``."""
    basis = rep.blades.reshape(DIM, 16).T  # the vectorized blade matrices are independent
    return Multivector(np.linalg.solve(basis, np.asarray(matrix, dtype=np.complex128).reshape(16)))


def vector_aggregate(b):
    """Z from one covariant vector times the table of inverse operators."""
    return Multivector(b.as_array() @ _INVERSES)


def loop_generalized_fierz(z, b, rep="chiral"):
    """The five family maxima of |Z M Z - 4 c(M) Z|, one operator at a time."""
    zm = tensordot_matrix(gamma_rep(rep), z)
    coeffs = np.repeat([1.0, 1.0, 2.0, 1.0, -1.0], [1, 4, 6, 4, 1]) * b.as_array()
    ops = _MATRICES[rep][1]
    norms = [np.linalg.norm(zm @ m @ zm - 4.0 * c * zm) for m, c in zip(ops, coeffs)]
    return np.array([max(norms[s]) for s in _FAMILIES])


def scalar_reconstruct(z, probe, tol=1e-10):
    """Crawford's reconstruction of one spinor from Z and a probe."""
    rep = gamma_rep(probe.rep)
    zm = tensordot_matrix(rep, z)
    xi = probe.components
    w = zm @ xi
    n2 = complex(np.vdot(xi, rep.lower[0] @ w))
    scale = float(np.linalg.norm(zm)) * float(np.vdot(xi, xi).real)
    if n2.real <= tol * max(1.0, scale) or abs(n2.imag) > tol * max(1.0, scale):
        raise DegenerateProbeError(
            f"probe yields normalization {n2:g}; pick a probe not annihilated by Z"
        )
    psi = w / (2.0 * np.sqrt(n2.real))
    mags = np.abs(psi)
    lead = int(np.argmax(mags > tol * max(1.0, mags.max())))
    phase = psi[lead] / abs(psi[lead])
    return SpinorC4(psi * phase.conjugate(), probe.rep)


def _phase_aligned_distance(a, b):
    inner = np.vdot(a, b)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def per_sample_suite_fierz(rng, samples, tol):
    """``verify fierz`` one sample at a time, as it ran before the blocked suite."""
    worst_quad = worst_general = worst_matrix = worst_recon = 0.0
    for n in range(samples):
        rep = "chiral" if n % 2 == 0 else "standard"
        psi = SpinorC4(rng.standard_normal(4) + 1j * rng.standard_normal(4), rep)
        b = bilinears(psi)
        scale = max(1.0, float(b.J[0]) ** 2)
        worst_quad = max(worst_quad, float(np.max(fierz_residuals(b))) / scale)
        z = vector_aggregate(b)
        worst_matrix = max(worst_matrix, aggregate_matrix_residual(psi, b) / scale)
        gen = loop_generalized_fierz(z, b, rep)
        worst_general = max(worst_general, float(np.max(gen)) / max(1.0, scale ** 1.5))
        probe = SpinorC4(rng.standard_normal(4) + 1j * rng.standard_normal(4), rep)
        try:
            recovered = scalar_reconstruct(z, probe)
            worst_recon = max(
                worst_recon,
                _phase_aligned_distance(recovered.components, psi.components)
                / max(1.0, psi.norm()),
            )
        except ValueError:
            pass
    return [
        ("quadratic_identities", worst_quad, worst_quad < tol),
        ("aggregate_equals_4_psi_psibar", worst_matrix, worst_matrix < tol),
        ("generalized_identities", worst_general, worst_general < max(tol, 1e-9)),
        ("reconstruction_roundtrip", worst_recon, worst_recon < 1e-8),
    ]


# ---- hopf dictionary ----------------------------------------------------------

_EVEN_MASK = (BLADE_GRADES % 2) == 0
_IDX_12 = BLADE_INDEX[(1, 2)]
_IDX_13 = BLADE_INDEX[(1, 3)]
_IDX_23 = BLADE_INDEX[(2, 3)]
_IDX_01 = BLADE_INDEX[(0, 1)]
_IDX_02 = BLADE_INDEX[(0, 2)]
_IDX_03 = BLADE_INDEX[(0, 3)]
_IDX_PS = BLADE_INDEX[(0, 1, 2, 3)]


def _scalar_require_even(mv, tol):
    odd = np.linalg.norm(np.where(_EVEN_MASK, 0, mv.coeffs))
    if odd > tol * max(1.0, mv.norm()):
        raise ValueError(f"multivector has odd-grade support (norm {odd:g})")


def scalar_even_to_ideal(psi_even, tol=1e-10):
    """Right-multiply an even element by the idempotent f, with the ``Multivector`` product."""
    _scalar_require_even(psi_even, tol)
    return psi_even * ideal_projector()


def scalar_ideal_to_column(xi, tol=1e-10):
    """The column of an ideal element, read off its one standard-rep matrix."""
    m = tensordot_matrix(gamma_rep("standard"), xi)
    rest = np.linalg.norm(m[:, 1:])
    if rest > tol * max(1.0, np.linalg.norm(m)):
        raise ValueError("element is not in the minimal left ideal of f")
    return SpinorC4(m[:, 0], "standard")


def scalar_even_to_column(psi_even, tol=1e-10):
    """Column components of an even operator spinor, on numpy scalars."""
    _scalar_require_even(psi_even, tol)
    c = psi_even.coeffs
    comp = np.array(
        [
            c[0] - 1j * c[_IDX_12],
            -c[_IDX_13] - 1j * c[_IDX_23],
            -c[_IDX_03] + 1j * c[_IDX_PS],
            -c[_IDX_01] - 1j * c[_IDX_02],
        ]
    )
    return SpinorC4(comp, "standard")


def scalar_column_to_even(psi):
    """Even operator spinor of a standard column, one slot at a time."""
    if psi.rep != "standard":
        raise ValueError("the even dictionary is tied to the standard representation")
    p = psi.components
    c = np.zeros(DIM)
    c[0] = p[0].real
    c[_IDX_12] = -p[0].imag
    c[_IDX_13] = -p[1].real
    c[_IDX_23] = -p[1].imag
    c[_IDX_03] = -p[2].real
    c[_IDX_PS] = p[2].imag
    c[_IDX_01] = -p[3].real
    c[_IDX_02] = -p[3].imag
    return Multivector(c)


def scalar_column_to_quaternions(psi):
    """Quaternion pair of a standard column."""
    if psi.rep != "standard":
        raise ValueError("the quaternion dictionary is tied to the standard representation")
    p = psi.components
    q1 = Quaternion(p[0].real, -p[1].imag, p[1].real, -p[0].imag)
    q2 = Quaternion(p[2].imag, p[3].real, p[3].imag, p[2].real)
    return QuaternionPair(q1, q2)


def scalar_quaternions_to_column(pair):
    """Inverse of ``scalar_column_to_quaternions``, on Python complex numbers."""
    q1, q2 = pair
    comp = np.array(
        [
            q1.w - 1j * q1.z,
            q1.y - 1j * q1.x,
            q2.z + 1j * q2.w,
            q2.x + 1j * q2.y,
        ]
    )
    return SpinorC4(comp, "standard")


def scalar_hopf_map_unnormalized(pair):
    """Radius and image point of one pair, with ``Quaternion`` products."""
    q1, q2 = pair
    q1c = q1.conjugate()
    point = HopfPoint(
        J0=q1.norm_squared() - q2.norm_squared(),
        J1=2.0 * (q1c * QUAT_I * q2).w,
        J2=2.0 * (q1c * QUAT_J * q2).w,
        J3=2.0 * (q1c * QUAT_K * q2).w,
        omega=2.0 * (q1c * q2).w,
    )
    return q1.norm_squared() + q2.norm_squared(), point


def scalar_hopf_from_components(psi):
    """The component route of one standard column, with numpy scalar arithmetic."""
    p = psi.components
    sigma = float(np.vdot(p, p).real)
    j0 = float(abs(p[0]) ** 2 + abs(p[1]) ** 2 - abs(p[2]) ** 2 - abs(p[3]) ** 2)
    j1 = 2.0 * float((p[0] * np.conj(p[3])).imag) + 2.0 * float((p[1] * np.conj(p[2])).imag)
    j2 = 2.0 * float((p[1] * np.conj(p[2])).real) - 2.0 * float((p[0] * np.conj(p[3])).real)
    j3 = 2.0 * float((p[2] * np.conj(p[0])).imag) + 2.0 * float((p[1] * np.conj(p[3])).imag)
    omega = 2.0 * float((p[0] * np.conj(p[2])).real) + 2.0 * float((p[1] * np.conj(p[3])).real)
    return sigma, HopfPoint(j0, j1, j2, j3, omega)


def scalar_hopf_routes_report(psi):
    """The route report of one spinor, through the one-column dictionary."""
    psi_std = psi.in_rep("standard")
    sigma_q, point_q = scalar_hopf_map_unnormalized(scalar_column_to_quaternions(psi_std))
    sigma_c, point_c = scalar_hopf_from_components(psi_std)
    b = bilinears(psi_std)
    direct = {
        "sigma": b.sigma,
        "J": b.J.tolist(),
        "omega": b.omega,
    }
    norm_q = point_q.norm()
    norm_c = point_c.norm()
    return {
        "quaternion_route": {"sigma": sigma_q, "point": list(point_q)},
        "component_route": {"sigma": sigma_c, "point": list(point_c)},
        "direct_bilinears": direct,
        "norm_identity_residual_quaternion": abs(norm_q**2 - sigma_q**2),
        "norm_identity_residual_component": abs(norm_c**2 - sigma_c**2),
        "route_gap": float(
            np.max(np.abs(point_q.as_array() - point_c.as_array()))
        ),
        "sigma_swap_gap": {
            "quaternion_sigma_vs_direct_J0": abs(sigma_q - b.J[0]),
            "quaternion_J0_vs_direct_sigma": abs(point_q.J0 - b.sigma),
        },
    }


def scalar_instanton_obstruction(psi):
    """The obstruction report of one nonzero spinor."""
    if not np.any(psi.components):
        raise ValueError("the zero column has no image point")
    psi_std = psi.in_rep("standard")
    sigma_c, point_c = scalar_hopf_from_components(psi_std)
    b = bilinears(psi_std)
    first_four = float(np.linalg.norm(point_c.as_array()[:4]))
    return {
        "J_norm": first_four,
        "sigma_component_route": sigma_c,
        "sigma_bilinear": b.sigma,
        "omega_bilinear": b.omega,
        "on_unit_sphere": bool(abs(sigma_c - 1.0) <= 1e-9),
    }


def per_sample_suite_hopf(rng, samples, tol):
    """``verify hopf`` one sample at a time, as it ran before the blocked suite."""
    worst_norm = worst_fiber = worst_round = 0.0
    for _ in range(samples):
        comp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        comp /= np.linalg.norm(comp)
        psi = SpinorC4(comp, "standard")
        pair = scalar_column_to_quaternions(psi)
        sigma, point = scalar_hopf_map_unnormalized(pair)
        worst_norm = max(worst_norm, abs(point.norm() ** 2 - sigma**2))
        angles = rng.standard_normal(4)
        u = Quaternion(*(angles / np.linalg.norm(angles)))
        moved = pair.right_multiplied(u)
        sigma_m, point_m = scalar_hopf_map_unnormalized(moved)
        worst_fiber = max(
            worst_fiber,
            float(np.max(np.abs(point_m.as_array() - point.as_array()))),
            abs(sigma_m - sigma),
        )
        back = scalar_quaternions_to_column(pair)
        worst_round = max(worst_round, float(np.linalg.norm(back.components - psi.components)))
        even = scalar_column_to_even(psi)
        back2 = scalar_even_to_column(even)
        worst_round = max(worst_round, float(np.linalg.norm(back2.components - psi.components)))
        ideal = scalar_even_to_ideal(even)
        back3 = scalar_ideal_to_column(ideal)
        worst_round = max(worst_round, float(np.linalg.norm(back3.components - psi.components)))
    return [
        ("norm_identity", worst_norm, worst_norm < tol),
        ("fiber_invariance", worst_fiber, worst_fiber < tol),
        ("representation_roundtrips", worst_round, worst_round < 1e-13),
    ]


# ---- flag-dipole -------------------------------------------------------------

_IDX_VEC = [BLADE_INDEX[(i,)] for i in range(4)]


def scalar_direction_element(components3):
    """Spatial unit 1-vector from 3 components, normalized by ``np.linalg.norm``."""
    comp = np.asarray(components3, dtype=np.float64)
    if comp.shape != (3,):
        raise ValueError("a spatial direction needs 3 components")
    norm = float(np.linalg.norm(comp))
    if norm == 0.0:
        raise ValueError("the zero vector is not a direction")
    return Multivector.vector(np.concatenate(([0.0], comp / norm)))


def per_sample_random_admissible_direction(rng):
    """One ``verify projectors`` direction, drawn and built as a ``Multivector``."""
    while True:
        # one normal at a time, so every second one is the stream's spare
        raw = np.array([rng.standard_normal(1)[0] for _ in range(3)])
        norm = np.linalg.norm(raw)
        if norm < 1e-6:
            continue
        raw /= norm
        if 0.05 < abs(raw[2]) < 0.95:
            return scalar_direction_element(raw)


def scalar_validate_direction(u, tol=1e-10):
    """Check u is a real grade-1 spatial unit vector (u^2 = -1)."""
    if np.iscomplexobj(u.coeffs):
        raise ValueError("direction elements are real multivectors")
    off_grade = np.linalg.norm(np.where(BLADE_GRADES == 1, 0, u.coeffs))
    if off_grade > tol:
        raise ValueError("direction element must be a pure 1-vector")
    if abs(u.coeffs[_IDX_VEC[0]]) > tol:
        raise ValueError("direction element must have no time component")
    square = float((u * u).scalar_part().real)
    if abs(square + 1.0) > tol:
        raise ValueError(f"direction element must square to -1, got {square:g}")


def scalar_projection_spinor(psi_even, u, tol=1e-10):
    """Column spinor of Psi (1 + gamma_0 u)/2, with Multivector products."""
    scalar_validate_direction(u, tol)
    e0 = Multivector.blade(0)
    projected = psi_even * ((Multivector.scalar(1.0) + e0 * u) * 0.5)
    return scalar_even_to_column(projected, tol)


def _minkowski_square(v):
    return float((v * v).scalar_part().real)


def scalar_hs_residual(frame):
    return abs(frame.h**2 - 1.0 - _minkowski_square(frame.s))


def scalar_synthetic_frame(J, s, h, tol=1e-9):
    jsq = abs(_minkowski_square(J))
    if jsq > tol * max(1.0, J.norm() ** 2):
        raise ValueError(f"J must be null, got J^2 = {jsq:g}")
    ortho = abs(float(lcontract(J, s).scalar_part().real))
    if ortho > tol * max(1.0, J.norm() * s.norm()):
        raise ValueError(f"s must be orthogonal to J, got J.s = {ortho:g}")
    consistent = scalar_hs_residual(FlagDipoleFrame(J=J, s=s, h=float(h))) <= tol * max(1.0, h**2)
    return FlagDipoleFrame(J=J, s=s, h=float(h), consistent=consistent)


def scalar_frame_from_bilinears(b, tol=1e-9):
    """(J, s, h) of one class-4 bilinear set: s from e0 _| S_bold over J^0, less its projection on J."""
    jmv = b.current_vector()
    if abs(b.J[0]) <= tol:
        raise ValueError("current J vanishes; not a flag-dipole bilinear set")
    lead = int(np.argmax(np.abs(b.J)))
    h = float(b.K[lead] / b.J[lead])
    member = lcontract(Multivector.blade(0), b.spin_bivector()) / float(b.J[0])
    smv = member - jmv * (np.dot(member.coeffs, jmv.coeffs) / np.dot(jmv.coeffs, jmv.coeffs))
    hs = abs(h**2 - 1.0 - _minkowski_square(smv))
    return FlagDipoleFrame(J=jmv, s=smv, h=h, consistent=hs <= tol * max(1.0, h**2))


def least_squares_flag_direction(covariants):
    """The (N, 4) s of a block of class-4 covariants as the minimum-norm ``np.linalg.lstsq``
    solution of S_bold = J wedge s with J . s = 0: one 7 x 4 system per row, its rows the six
    bivector coefficients of J wedge e_c and the contraction J . e_c."""
    cov = np.asarray(covariants, dtype=float)
    solutions = []
    for row in cov:
        jmv = Multivector.vector(row[1:5])
        basis = [Multivector.blade(c) for c in range(4)]
        system = np.zeros((7, 4))
        system[:6] = np.array([wedge(jmv, e).coeffs[5:11] for e in basis]).T
        system[6] = [float(lcontract(jmv, e).scalar_part()) for e in basis]
        target = np.concatenate([2.0 * row[5:11], [0.0]])
        solutions.append(np.linalg.lstsq(system, target, rcond=None)[0])
    return np.array(solutions)


def scalar_type4_boomerang(frame, tol=1e-9):
    if abs(_minkowski_square(frame.J)) > tol * max(1.0, frame.J.norm() ** 2):
        raise ValueError("frame violates the null-current invariant")
    ortho = abs(float(lcontract(frame.J, frame.s).scalar_part().real))
    if ortho > tol * max(1.0, frame.J.norm() * frame.s.norm()):
        raise ValueError("frame violates J . s = 0")
    one = Multivector.scalar(1.0 + 0.0j)
    tail = one + frame.s * 1j + PSEUDOSCALAR * (1j * frame.h)
    return frame.J * tail


def scalar_annihilator_residuals(frame, z=None):
    if z is None:
        z = scalar_type4_boomerang(frame)
    znorm = max(1e-300, z.norm())
    one = Multivector.scalar(1.0 + 0.0j)
    plus = one + frame.s * 1j + PSEUDOSCALAR * (1j * frame.h)
    minus = one - frame.s * 1j - PSEUDOSCALAR * (1j * frame.h)
    flipped = one + frame.s * 1j - PSEUDOSCALAR * (1j * frame.h)
    return {
        "z_squared": (z * z).norm() / znorm**2,
        "left": (plus * z).norm() / znorm,
        "right": (z * minus).norm() / znorm,
        "opposite_sign_left": (flipped * z).norm() / znorm,
    }


def scalar_sigma_projector_matrix(s, h, sign):
    rep = gamma_rep("standard")
    op = tensordot_matrix(rep, s) + h * rep.pseudoscalar
    return 0.5 * (np.eye(4, dtype=np.complex128) - sign * 1j * op)


def scalar_class_limit(u, which, ts=(1.0, 0.1, 0.01, 0.0), psi_even=None):
    scalar_validate_direction(u)
    if psi_even is None:
        psi_even = Multivector.scalar(1.0)
    u1, u2, u3 = (float(u.coeffs[_IDX_VEC[k]]) for k in (1, 2, 3))
    plane = float(np.hypot(u1, u2))
    if which == "h->0":
        if plane == 0.0:
            raise ValueError("direction is purely axial; no h->0 path from it")
    elif which == "s->0":
        if u3 == 0.0:
            raise ValueError("direction is purely in-plane; no s->0 path from it")
    else:
        raise ValueError("which must be 'h->0' or 's->0'")
    out = []
    for t in ts:
        if which == "h->0":
            axial = t * u3
            scale = np.sqrt(max(0.0, 1.0 - axial**2)) / plane
            comp = np.array([u1 * scale, u2 * scale, axial])
        else:
            in_plane = t * plane
            axial = np.sign(u3) * np.sqrt(max(0.0, 1.0 - in_plane**2))
            if plane == 0.0:
                comp = np.array([0.0, 0.0, axial])
            else:
                comp = np.array([u1 * t, u2 * t, axial])
        direction = scalar_direction_element(comp)
        out.append((float(t), direction, scalar_projection_spinor(psi_even, direction)))
    return out


def per_sample_suite_projectors(rng, samples, tol):
    """``verify projectors`` one sample at a time, as it ran before the blocked suite."""
    worst_class = 0.0
    worst_ratio = worst_ann = worst_idem = 0.0
    matrix_sum_exact = True
    worst_apply = 0.0
    limit_fail = 0.0
    eye = np.eye(4, dtype=np.complex128)
    for n in range(max(10, samples // 10)):
        u = per_sample_random_admissible_direction(rng)
        psi = scalar_projection_spinor(Multivector.scalar(1.0), u)
        b = bilinears(psi)
        if classify(b).label != 4:
            worst_class = 1.0
        frame = scalar_frame_from_bilinears(b)
        ratio = float(np.max(np.abs(frame.h * b.J - b.K))) / max(1.0, float(np.max(np.abs(b.K))))
        worst_ratio = max(worst_ratio, ratio)
        res = scalar_annihilator_residuals(frame)
        worst_ann = max(worst_ann, res["z_squared"], res["left"], res["right"])
        half = scalar_sigma_projector_matrix(frame.s, frame.h, +1)
        worst_idem = max(worst_idem, float(np.linalg.norm(half @ half - half)))
        other = scalar_sigma_projector_matrix(frame.s, frame.h, -1)
        if not np.array_equal(half + other, eye):
            matrix_sum_exact = False
        total = half @ psi.components + other @ psi.components
        worst_apply = max(
            worst_apply,
            float(np.linalg.norm(total - psi.components)) / max(1.0, psi.norm()),
        )
        for which, terminal in (("h->0", 5), ("s->0", 6)):
            path = scalar_class_limit(u, which)
            if classify(bilinears(path[-1][2])).label != terminal:
                limit_fail = 1.0
    machine_floor = 64 * np.finfo(np.float64).eps
    return [
        ("projection_class_is_4", worst_class, worst_class == 0.0),
        ("axial_ratio_K_equals_hJ", worst_ratio, worst_ratio < max(tol, 1e-9)),
        ("boomerang_annihilators", worst_ann, worst_ann < max(tol, 1e-11)),
        ("projector_idempotency", worst_idem, worst_idem < max(tol, 1e-10)),
        ("projector_matrix_sum_is_identity", 0.0 if matrix_sum_exact else 1.0, matrix_sum_exact),
        ("projector_apply_sum_at_machine_floor", worst_apply, worst_apply < machine_floor),
        ("class_limits_reach_5_and_6", limit_fail, limit_fail == 0.0),
    ]


# ---- mapping -----------------------------------------------------------------


def _re(u, v):
    return float((np.conj(u) * v).real)


def _im(u, v):
    return float((np.conj(u) * v).imag)


def scalar_elko_map_conditions(psi):
    """The mapping conditions of one spinor, on numpy complex scalars and arrays."""
    c = psi.components
    a = c.real
    b = c.imag
    shared = np.array(
        [
            _re(c[0], c[2]),
            _re(c[1], c[3]),
            _re(c[1], c[2]) + _re(c[0], c[3]),
            _im(c[0], c[3]) - _im(c[1], c[2]) - 2.0 * _im(c[2], c[3]) - 2.0 * _im(c[0], c[1]),
        ]
    )
    extra2 = _re(c[0], c[3]) + _im(c[1], c[2])
    extra3 = _im(c[0], c[3]) - _im(c[1], c[2]) - 2.0 * _im(c[0], c[1])
    re = lambda i, j: a[i] * a[j] + b[i] * b[j]
    im = lambda i, j: a[i] * b[j] - b[i] * a[j]
    shared_comp = np.array(
        [
            re(0, 2),
            re(1, 3),
            re(1, 2) + re(0, 3),
            im(0, 3) - im(1, 2) - 2.0 * im(2, 3) - 2.0 * im(0, 1),
        ]
    )
    return ConditionReport(
        shared=np.abs(shared),
        extra_class2=abs(extra2),
        extra_class3=abs(extra3),
        shared_components=np.abs(shared_comp),
        extra_class2_components=abs(re(0, 3) + im(1, 2)),
        extra_class3_components=abs(im(0, 3) - im(1, 2) - 2.0 * im(0, 1)),
        line3_vs_class3_gap=abs(2.0 * _im(c[2], c[3])),
        scale=float(np.vdot(c, c).real),
    )


def scalar_map_check_record(psi, tol=1e-10):
    """One ``map-check`` record without its index and label, built per spinor as it was.

    The conditions come from ``scalar_elko_map_conditions``, the route gap and
    the verdicts from the ``np.max`` and ``np.all`` forms of
    ``route_disagreement`` and ``satisfied``, and the class from
    ``classify(bilinears(psi))``, as ``mappability`` takes it.
    """
    report = scalar_elko_map_conditions(psi)
    record = {
        "shared_residuals": [float(x) for x in report.shared],
        "extra_class2": float(report.extra_class2),
        "extra_class3": float(report.extra_class3),
        "route_disagreement": max(
            float(np.max(np.abs(report.shared - report.shared_components))),
            abs(report.extra_class2 - report.extra_class2_components),
            abs(report.extra_class3 - report.extra_class3_components),
        ),
        "line3_vs_class3_gap": float(report.line3_vs_class3_gap),
    }
    try:
        label = classify(bilinears(psi), tol).label
    except (NullSpinorError, BilinearInconsistencyError) as exc:
        return {**record, "mappability": None, "note": str(exc)}
    if label not in (1, 2, 3):
        note = f"spinor is class {label}; mapping conditions apply to classes 1-3"
        return {**record, "mappability": None, "note": note}
    threshold = tol * report.scale
    shared_ok = bool(np.all(report.shared <= threshold))
    ok2 = shared_ok and report.extra_class2 <= threshold
    ok3 = shared_ok and report.extra_class3 <= threshold
    record["mappability"] = {"class": label, "1": ok2 and report.extra_class3 <= threshold,
                             "2": ok2, "3": ok3}
    return record


def per_sample_suite_mapping(rng, samples, tol):
    """``verify mapping`` one sample at a time, as it ran before the blocked suite."""
    worst_route = 0.0
    passes = 0
    total = 0
    witness_fail = 0.0
    witnesses = {
        1: np.array([2, 0, 1j, 0]),
        2: np.array([1, 0, 0, 0], dtype=complex),
        3: np.array([1j, 1j, 1, 1]),
    }
    for label, comp in witnesses.items():
        scale = float(rng.uniform(0.5, 2.0))
        phase = np.exp(1j * float(rng.uniform(0, 2 * np.pi)))
        psi = SpinorC4(comp * scale * phase, "standard")
        if not scalar_elko_map_conditions(psi).satisfied(label, tol):
            witness_fail = 1.0
        verdict = mappability(psi, tol)
        if verdict["class"] != label or not verdict[label]:
            witness_fail = 1.0
    for _ in range(samples):
        psi = SpinorC4(rng.standard_normal(4) + 1j * rng.standard_normal(4), "standard")
        report = scalar_elko_map_conditions(psi)
        worst_route = max(worst_route, report.route_disagreement())
        total += 1
        if bool(np.all(report.shared <= tol * report.scale)):
            passes += 1
    rate = passes / max(1, total)
    return [
        ("route_agreement", worst_route, worst_route < 1e-12),
        ("constructed_families_pass", witness_fail, witness_fail == 0.0),
        ("random_pass_rate_below_1pc", rate, rate < 0.01),
    ]


# ---- covariants in exact arithmetic -------------------------------------------


def _exact_form_entries(rep):
    """The sixteen Hermitian forms of ``rep`` as (form, row, column, re, im) entries, exactly.

    Every form gamma0 G_n has one nonzero entry per row, each part 0, +-1/2 or
    +-1, in both representations; the rounding bound that the tests check rests
    on both facts, so they are asserted here.  Taken once, at import, so a test
    that moves the kernel's forms leaves the oracle's alone.
    """
    halves = {Fraction(k, 2) for k in range(-2, 3)}
    entries = []
    for n, form in enumerate(_MATRICES[rep][0]):
        for i, row in enumerate(form):
            (j,) = np.flatnonzero(row)
            re, im = Fraction(row[j].real), Fraction(row[j].imag)
            assert {re, im} <= halves, (rep, n, i, j)
            entries.append((n, i, j, re, im))
    return entries


_EXACT_FORMS = {rep: _exact_form_entries(rep) for rep in REP_TAGS}


def _products(components, rep):
    """Per covariant, the real products a_i w_i whose sum is psi^dagger F_n psi, w = F_n psi."""
    parts = [(Fraction(z.real), Fraction(z.imag)) for z in map(complex, components)]
    products = [[] for _ in range(16)]
    for n, i, j, fr, fi in _EXACT_FORMS[rep]:
        (ar, ai), (br, bi) = parts[i], parts[j]
        # Re(conj(a) w) with w = f b: two products per nonzero entry, eight per covariant
        products[n] += (ar * (fr * br - fi * bi), ai * (fr * bi + fi * br))
    return products


def exact_covariants(components, rep):
    """The sixteen covariants psi^dagger F_n psi of one spinor, as exact ``Fraction``s.

    A double is a dyadic rational, so each covariant of a float spinor has an
    exact value, in ``BilinearSet.as_array`` order.
    """
    return [sum(terms, Fraction(0)) for terms in _products(components, rep)]


def covariant_product_sums(components, rep):
    """Per covariant, the sum of |a_i w_i| over its eight real products, exactly.

    This is the componentwise size of the dot product (Higham 2002, section
    3.1); by Cauchy-Schwarz it is at most B = |psi|^T |F_n| |psi|.
    """
    return [sum(map(abs, terms), Fraction(0)) for terms in _products(components, rep)]
