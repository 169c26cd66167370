"""Bitwise oracles: the per-sample bodies that the array kernels and the blocked
``verify fierz`` and ``verify hopf`` replaced.  The tests compare the kernels
against them bit for bit."""

import numpy as np

from spinorlab import (
    DegenerateProbeError,
    HopfPoint,
    Multivector,
    Quaternion,
    SpinorC4,
    aggregate_matrix_residual,
    bilinears,
    column_to_even,
    column_to_quaternions,
    even_to_column,
    even_to_ideal,
    fierz_residuals,
    gamma_rep,
    hopf_map_unnormalized,
    ideal_to_column,
    quaternions_to_column,
)
from spinorlab.bilinears import _INVERSES, _MATRICES

_FAMILIES = (slice(0, 1), slice(1, 5), slice(5, 11), slice(11, 15), slice(15, 16))


def vector_aggregate(b):
    """Z from one covariant vector times the table of inverse operators."""
    return Multivector(b.as_array() @ _INVERSES)


def loop_generalized_fierz(z, b, rep="chiral"):
    """The five family maxima of |Z M Z - 4 c(M) Z|, one operator at a time."""
    zm = gamma_rep(rep).mv_to_matrix(z)
    coeffs = np.repeat([1.0, 1.0, 2.0, 1.0, -1.0], [1, 4, 6, 4, 1]) * b.as_array()
    ops = _MATRICES[rep][1]
    norms = [np.linalg.norm(zm @ m @ zm - 4.0 * c * zm) for m, c in zip(ops, coeffs)]
    return np.array([max(norms[s]) for s in _FAMILIES])


def scalar_reconstruct(z, probe, tol=1e-10):
    """Crawford's reconstruction of one spinor from Z and a probe."""
    rep = gamma_rep(probe.rep)
    zm = rep.mv_to_matrix(z)
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
    sigma_q, point_q = hopf_map_unnormalized(column_to_quaternions(psi_std))
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
        pair = column_to_quaternions(psi)
        sigma, point = hopf_map_unnormalized(pair)
        worst_norm = max(worst_norm, abs(point.norm() ** 2 - sigma**2))
        angles = rng.standard_normal(4)
        u = Quaternion(*(angles / np.linalg.norm(angles)))
        moved = pair.right_multiplied(u)
        sigma_m, point_m = hopf_map_unnormalized(moved)
        worst_fiber = max(
            worst_fiber,
            float(np.max(np.abs(point_m.as_array() - point.as_array()))),
            abs(sigma_m - sigma),
        )
        back = quaternions_to_column(pair)
        worst_round = max(worst_round, float(np.linalg.norm(back.components - psi.components)))
        even = column_to_even(psi)
        back2 = even_to_column(even)
        worst_round = max(worst_round, float(np.linalg.norm(back2.components - psi.components)))
        ideal = even_to_ideal(even)
        back3 = ideal_to_column(ideal)
        worst_round = max(worst_round, float(np.linalg.norm(back3.components - psi.components)))
    return [
        ("norm_identity", worst_norm, worst_norm < tol),
        ("fiber_invariance", worst_fiber, worst_fiber < tol),
        ("representation_roundtrips", worst_round, worst_round < 1e-13),
    ]
