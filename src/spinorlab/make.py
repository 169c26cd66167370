"""The spinor families of ``spinorlab make``, built from the command's parameters.

``make_records(args)`` reads a family's options (``--alpha``, ``--phi``,
``--p`` and the rest), builds its spinors with ``spinorlab.elko``, or with
``spinorlab.flagdipole`` for ``flagdipole``, and returns one record dict per
spinor, in output order: ``components`` as [re, im] pairs, ``rep``,
``label``, and ``momentum`` and ``mass`` where the family has them.
It checks every parameter, ``--m`` and ``--delta`` included: one it cannot
use raises ``ValueError`` with the message the command prints.  It does not
check the records: the CLI checks each one with the rule its input lines
pass (finite components, norm in range) and refuses a zero record.

The CLI imports this module only for ``make``, so no other subcommand
compiles it or loads ``cmath``.  It imports nothing from the CLI, which may
be running as ``__main__``: a second copy of that module would be imported
under its own name.
"""

from __future__ import annotations

import cmath
import warnings

import numpy as np

from .bilinears import SpinorC4
from .elko import (
    WeylC2,
    dirac_from_left,
    dirac_with_phase,
    elko_boost,
    elko_rest,
    helicity_eigenspinor,
    majorana_from_weyl,
    weyl_spinor,
)


def _parse_complex(text: str, what: str) -> complex:
    try:
        value = complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number from {text!r}") from exc
    if not cmath.isfinite(value):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return value


def _parse_complex_list(text: str, count: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated values, got {len(parts)}")
    return np.array([_parse_complex(p, what) for p in parts])


def _parse_floats(text: str, count: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated values, got {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} from {text!r}") from exc
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return values


def make_records(args) -> list[dict]:
    """The records of the family ``args.family``, one per spinor it builds."""
    for name in ("m", "delta"):  # argparse reads them as floats, "inf" and "nan" included
        value = getattr(args, name)
        if value is not None and not cmath.isfinite(value):
            raise ValueError(f"--{name} must be finite, got {value}")
    records: list[dict] = []

    def add(spinor: SpinorC4, label: str, momentum=None, mass=None) -> None:
        comp = [[float(c.real), float(c.imag)] for c in spinor.components]
        record: dict = {"components": comp, "rep": spinor.rep, "label": label}
        if momentum is not None:
            record["momentum"] = [float(x) for x in momentum]
        if mass is not None:
            record["mass"] = float(mass)
        records.append(record)

    if args.family == "elko":
        momentum = _parse_floats(args.p, 3, "--p") if args.p else np.zeros(3)
        moving = float(np.linalg.norm(momentum)) > 0.0
        if moving:
            if args.alpha is not None or args.beta is not None:
                raise ValueError(
                    "boosted ELKOs are built from helicity eigenspinors; "
                    "drop --alpha/--beta when --p is nonzero"
                )
            if args.m is None:
                raise ValueError("--m is required when --p is nonzero")
            phi = helicity_eigenspinor(momentum, 1 if args.helicity == "+" else -1)
            lam = elko_boost(elko_rest(phi, args.conjugacy), momentum, args.m)
            add(
                lam.spinor,
                f"elko:{args.conjugacy}:{lam.pair}",
                momentum=momentum.tolist(),
                mass=args.m,
            )
        else:
            alpha = _parse_complex(args.alpha, "--alpha") if args.alpha is not None else 1 + 0j
            beta = _parse_complex(args.beta, "--beta") if args.beta is not None else 0j
            phi = WeylC2(np.array([alpha, beta]))
            lam = elko_rest(phi, args.conjugacy)
            add(lam.spinor, f"elko:{args.conjugacy}:rest")
    elif args.family == "majorana":
        comp = (
            _parse_complex_list(args.xi, 4, "--xi")
            if args.xi
            else np.array([1, 0, 0, 0], dtype=complex)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plus, minus = majorana_from_weyl(SpinorC4(comp, "chiral"))
        if args.part in ("plus", "both"):
            add(plus, "majorana:+")
        if args.part in ("minus", "both"):
            add(minus, "majorana:-")
    elif args.family == "weyl":
        phi = WeylC2(_parse_complex_list(args.phi, 2, "--phi"))
        add(weyl_spinor(phi, args.chirality), f"weyl:{args.chirality}")
    elif args.family == "dirac":
        phi = WeylC2(_parse_complex_list(args.phi, 2, "--phi"))
        momentum = _parse_floats(args.p, 3, "--p") if args.p else np.zeros(3)
        mass = args.m if args.m is not None else 1.0
        if args.delta != 0.0:
            psi = dirac_with_phase(phi, momentum, mass, args.delta)
            label = f"dirac:delta={args.delta:g}"
        else:
            psi = dirac_from_left(phi, momentum, mass, epsilon=args.epsilon)
            label = f"dirac:eps={args.epsilon:+d}"
        add(psi, label, momentum=momentum.tolist(), mass=mass)
    else:  # flagdipole
        from .algebra import Multivector
        from .flagdipole import direction_element, projection_spinor
        if args.u is None:
            raise ValueError("make flagdipole requires --u ux,uy,uz")
        u = direction_element(_parse_floats(args.u, 3, "--u"))
        psi = projection_spinor(Multivector.scalar(1.0), u)
        add(psi, "flagdipole")
    return records
