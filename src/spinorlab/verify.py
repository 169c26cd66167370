"""Randomized identity suites of ``spinorlab verify``: fierz, hopf, projectors, mapping.

Each suite draws its samples from a ``_SampleStream`` of the seed it is
given, runs them in blocks of ``_VERIFY_BLOCK`` through the array kernels, and
returns one ``(check, worst, passed)`` triple per check, in a fixed order.  A
NaN sample is a check's worst value, so it fails the check.  The
CLI imports this module only for ``verify``, and each suite imports the
``hopf`` or ``flagdipole`` kernels it runs when it runs, so ``verify fierz``
and ``verify mapping`` load neither module, nor the ``spinorlab.algebra`` they
load, and ``verify hopf`` does not load ``flagdipole``.  No suite loads ``numpy.random``.  This module imports nothing
from the CLI.
"""

from __future__ import annotations

import random

import numpy as np

from .bilinears import (
    SpinorC4,
    _moduli,
    _norms,
    _square,
    aggregate_array,
    aggregate_residual_array,
    covariant_array,
    fierz_array,
    generalized_fierz_array,
    reconstruct_array,
)
from .classify import BilinearInconsistencyError, NullSpinorError, lounesto_rule, magnitude_array
from .mapping import SingularSpinorError, condition_routes, mappability


class _SampleStream:
    """The seeded draws of a verify suite: 53-bit uniforms and Box-Muller normals.

    The bits come from ``random.Random(seed).randbytes``, eight little-endian
    bytes per uniform, whose top 53 bits are its numerator over 2^53.  Normals
    are made in pairs from two consecutive uniforms, and a draw that uses only
    the first normal of its last pair keeps the second for the next draw, so a
    block draw is the same values as its samples drawn one at a time.
    """

    __slots__ = ("_randbytes", "_spare")

    def __init__(self, seed: int) -> None:
        self._randbytes = random.Random(seed).randbytes
        self._spare: float | None = None

    def uniform(self, low: float, high: float) -> float:
        """One float in [low, high)."""
        return low + (high - low) * ((int.from_bytes(self._randbytes(8), "little") >> 11) * 2.0**-53)

    def standard_normal(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normal floats of the given shape, in C order."""
        out = np.empty(shape)
        flat = out.reshape(-1)
        start = 0
        if self._spare is not None and flat.size:
            flat[0], self._spare, start = self._spare, None, 1
        pairs = (flat.size - start + 1) // 2
        if pairs:
            words = np.frombuffer(self._randbytes(16 * pairs), dtype="<u8") >> 11
            # 1 - u in (0, 1], so the logarithm is finite
            radius = np.sqrt(-2.0 * np.log((2**53 - words[0::2]) * 2.0**-53))
            angle = words[1::2] * (2.0**-53 * 2.0 * np.pi)
            normals = np.empty((pairs, 2))
            np.multiply(radius, np.cos(angle), out=normals[:, 0])
            np.multiply(radius, np.sin(angle), out=normals[:, 1])
            flat[start:] = normals.ravel()[:flat.size - start]
            if (flat.size - start) % 2:
                self._spare = float(normals[-1, 1])
        return out


def _phase_aligned_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise |a e^(i phi) - b| with the phase phi that aligns a with b."""
    inner = np.vecdot(a, b)
    modulus = _moduli(inner)
    with np.errstate(invalid="ignore", divide="ignore"):
        phase = np.where(modulus > 0, inner / modulus, 1.0)
    return _norms(a * phase[:, None] - b)


def _worse(worst: list[float], values) -> list[float]:
    """Each worst value raised to the largest of its new samples; a NaN sample is worst of all."""
    return [float(np.maximum.reduce(x, axis=None, initial=w)) for w, x in zip(worst, values)]


# samples per verify block, in every suite: the peak memory of 1,000 fierz
# samples at once would exceed the other suites'
_VERIFY_BLOCK = 64


def _suite_fierz(seed: int, samples: int, tol: float) -> list[tuple[str, float, bool]]:
    rng = _SampleStream(seed)
    # worst quadratic, aggregate, generalized and reconstruction residuals
    worst = [0.0] * 4
    recovered = 0
    for start in range(0, samples, _VERIFY_BLOCK):
        # per sample: psi re, psi im, probe re, probe im, the order of one draw at a time
        draw = rng.standard_normal((min(_VERIFY_BLOCK, samples - start), 4, 4))
        psi, probe = draw[:, 0] + 1j * draw[:, 1], draw[:, 2] + 1j * draw[:, 3]
        # even sample numbers are chiral, odd ones standard (the block starts even)
        for parity, rep in enumerate(("chiral", "standard")):
            v, xi = psi[parity::2], probe[parity::2]
            cov = covariant_array(v, rep)
            scale = np.maximum(1.0, _square(cov[:, 1]))
            z = aggregate_array(cov)
            back, ok = reconstruct_array(z, xi, rep)
            recovered += int(ok.sum())
            values = (
                np.max(fierz_array(cov), axis=1) / scale,
                aggregate_residual_array(v, cov, rep) / scale,
                np.max(generalized_fierz_array(z, cov, rep), axis=1)
                / np.maximum(1.0, np.float_power(scale, 1.5)),
                _phase_aligned_distances(back[ok], v[ok]) / np.maximum(1.0, _norms(v[ok])),
            )
            worst = _worse(worst, values)
    worst_quad, worst_matrix, worst_general, worst_recon = worst
    return [
        ("quadratic_identities", worst_quad, worst_quad < tol),
        ("aggregate_equals_4_psi_psibar", worst_matrix, worst_matrix < tol),
        ("generalized_identities", worst_general, worst_general < max(tol, 1e-9)),
        # a suite whose probes were all degenerate reconstructed nothing
        ("reconstruction_roundtrip", worst_recon, recovered > 0 and worst_recon < 1e-8),
    ]


def _suite_hopf(seed: int, samples: int, tol: float) -> list[tuple[str, float, bool]]:
    from .hopf import (
        column_to_even_array,
        column_to_quaternions_array,
        even_to_column_array,
        even_to_ideal_array,
        fiber_action_array,
        hopf_map_array,
        ideal_to_column_array,
        norm_identity_residual_array,
        quaternions_to_column_array,
    )

    rng = _SampleStream(seed)
    # worst norm-identity, fiber and round-trip residuals
    worst = [0.0] * 3
    for start in range(0, samples, _VERIFY_BLOCK):
        # per sample: column re, column im, fiber angles, the order of one draw at a time
        draw = rng.standard_normal((min(_VERIFY_BLOCK, samples - start), 3, 4))
        comp = draw[:, 0] + 1j * draw[:, 1]
        psi = comp / _norms(comp)[:, None]
        q1, q2 = column_to_quaternions_array(psi)
        sigma, point = hopf_map_array(q1, q2)
        angles = draw[:, 2]
        u = tuple((angles / _norms(angles)[:, None]).T)
        sigma_m, point_m = hopf_map_array(*fiber_action_array(q1, q2, u))
        even = column_to_even_array(psi)
        backs = (
            quaternions_to_column_array(q1, q2),
            even_to_column_array(even),
            ideal_to_column_array(even_to_ideal_array(even)),
        )
        values = (
            norm_identity_residual_array(sigma, point),
            np.concatenate([np.max(np.abs(point_m - point), axis=1), np.abs(sigma_m - sigma)]),
            np.concatenate([_norms(back - psi) for back in backs]),
        )
        worst = _worse(worst, values)
    worst_norm, worst_fiber, worst_round = worst
    return [
        ("norm_identity", worst_norm, worst_norm < tol),
        ("fiber_invariance", worst_fiber, worst_fiber < tol),
        ("representation_roundtrips", worst_round, worst_round < 1e-13),
    ]


def _random_admissible_direction(rng: _SampleStream) -> np.ndarray:
    """A random unit 3-vector clear of the class-5 plane and the class-6 axis."""
    while True:
        raw = rng.standard_normal(3)
        norm = np.linalg.norm(raw)
        if norm < 1e-6:
            continue
        raw /= norm
        if 0.05 < abs(raw[2]) < 0.95:
            return raw


_SCALAR_ONE = np.eye(1, 16)  # the even element 1, as a block of one coefficient row


def _suite_projectors(seed: int, samples: int, tol: float) -> list[tuple[str, float, bool]]:
    from .flagdipole import (
        annihilator_residual_array,
        class_limit_array,
        direction_array,
        frame_array,
        projection_spinor_array,
        sigma_projector_matrix_array,
    )

    rng = _SampleStream(seed)
    # worst class, ratio, annihilator, idempotency, apply-sum and limit residuals
    worst = [0.0] * 6
    matrix_sum_exact = True
    eye = np.eye(4, dtype=np.complex128)
    count = max(10, samples // 10)
    for start in range(0, count, _VERIFY_BLOCK):
        u = direction_array([_random_admissible_direction(rng)
                             for _ in range(min(_VERIFY_BLOCK, count - start))])
        psi = projection_spinor_array(_SCALAR_ONE, u)
        cov = covariant_array(psi, "standard")
        J, s, h, _ = frame_array(cov)
        K = cov[:, 11:15]
        plus, minus = (sigma_projector_matrix_array(s, h, sign) for sign in (1, -1))
        # kept as the check that the halving stays exact: the operator's diagonal is real,
        # so the halves sum to the identity bit for bit unless one half is off by rounding
        matrix_sum_exact &= bool(np.all(plus + minus == eye))
        applied = (plus @ psi[:, :, None] + minus @ psi[:, :, None])[..., 0]
        # the suite classifies each path's t = 0 end; every t is built on its own, so the end alone
        # is the same bytes as the whole path's last slab
        limits_missed = [_any_class_but(class_limit_array(u, which, ts=(0.0,))[1][0], terminal)
                         for which, terminal in (("h->0", 5), ("s->0", 6))]
        values = (
            np.array([1.0 if _any_class_but(psi, 4) else 0.0]),
            np.max(np.abs(h[:, None] * cov[:, 1:5] - K), axis=1)
            / np.maximum(1.0, np.max(np.abs(K), axis=1)),
            annihilator_residual_array(J, s, h)[:, :3].ravel(),
            _norms((plus @ plus - plus).reshape(-1, 16)),
            _norms(applied - psi) / np.maximum(1.0, _norms(psi)),
            np.array([1.0 if any(limits_missed) else 0.0]),
        )
        worst = _worse(worst, values)
    worst_class, worst_ratio, worst_ann, worst_idem, worst_apply, limit_fail = worst
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


def _any_class_but(columns: np.ndarray, label: int) -> bool:
    """Whether a standard column of the block is not of class ``label``; one of no class is not."""
    labels = lounesto_rule(magnitude_array(covariant_array(columns, "standard")).T)[0]
    return bool(np.any(labels != label))


def _suite_mapping(seed: int, samples: int, tol: float) -> list[tuple[str, float, bool]]:
    rng = _SampleStream(seed)
    worst = [0.0]  # worst gap between the two routes
    passes = 0
    witness_fail = 0.0
    # no witness can see the sign inside extra_class2 = Re x + Im y (x = psi1* psi4, y = psi2* psi3):
    # where it and the shared block hold, xy = (psi1* psi3)(psi2* psi4) is real, and that forces
    # Re x = Im y = 0; the same holds for Re x - Im y
    witnesses = {
        1: np.array([2, 0, 1j, 0]),
        2: np.array([1, 0, 0, 0], dtype=complex),
        3: np.array([1j, 1j, 1, 1]),
    }
    for label, comp in witnesses.items():
        scale = float(rng.uniform(0.5, 2.0))
        phase = np.exp(1j * float(rng.uniform(0, 2 * np.pi)))
        try:
            verdict = mappability(SpinorC4(comp * scale * phase, "standard"), tol)
        except (SingularSpinorError, NullSpinorError, BilinearInconsistencyError):
            verdict = None  # a --tol near 1 or above reads a witness as singular, or refuses it
        if verdict is None or verdict["class"] != label or not verdict[label]:
            witness_fail = 1.0
    for start in range(0, samples, _VERIFY_BLOCK):
        # per sample: psi re, psi im, the order of one draw at a time
        draw = rng.standard_normal((min(_VERIFY_BLOCK, samples - start), 2, 4))
        complex_route, component_route = condition_routes(draw[:, 0].T, draw[:, 1].T)
        routes = np.abs([complex_route[:6], component_route])
        worst = _worse(worst, [np.abs(routes[0] - routes[1])])
        psi = draw[:, 0] + 1j * draw[:, 1]
        passes += int(np.sum(np.all(routes[0, :4] <= tol * np.vecdot(psi, psi).real, axis=0)))
    rate = passes / max(1, samples)
    (worst_route,) = worst
    return [
        # the routes run the same IEEE operations: this guards their formulas, not the rounding
        ("route_agreement", worst_route, worst_route < 1e-12),
        ("constructed_families_pass", witness_fail, witness_fail == 0.0),
        ("random_pass_rate_below_1pc", rate, rate < 0.01),
    ]
