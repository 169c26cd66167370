"""Bitwise oracles: the per-sample bodies that the array kernels and the blocked
``verify fierz`` replaced.  The tests compare the kernels against them bit for bit."""

import numpy as np

from spinorlab import (
    DegenerateProbeError,
    Multivector,
    SpinorC4,
    aggregate_matrix_residual,
    bilinears,
    fierz_residuals,
    gamma_rep,
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
