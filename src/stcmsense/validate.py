"""Fast self-contained invariant suite behind the ``validate`` CLI verb.

Each check prints one PASS/FAIL line; the suite returns the number of
failures.  These are the structural identities the whole laboratory rests
on: geometry round trips, coefficient energy, derivative consistency and
closed-form/numeric agreement of the information matrices.
"""

from __future__ import annotations

import numpy as np

from .bounds import crb_alpha_closed, crb_xi_closed, fim_db_single, fim_sb_single
from .channel import steering_derivative, steering_vector
from .config import build_model, merge_config
from .constants import CONDITION_LIMIT
from .detection import marcum_q1
from .errors import SingularInformation
from .geometry import (AnglePair, angles_from_position, jacobian_angles_to_position,
                       position_from_angles, triangle_distances)
from .metasurface import fourier_coefficients, harmonic_pattern_batch
from .rng import stream_rng


def run_validate(cfg: dict | None = None, printer=print) -> int:
    cfg = merge_config(cfg or {})
    model = build_model(cfg)
    rng = stream_rng(cfg["seed"], 999)
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        if not ok:
            failures += 1
        printer(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))

    geom = model.geom

    # geometry round trip
    a, x = rng.uniform(-1.2, 1.2, (2, 2000))
    keep = (np.abs(a + x) >= 2e-3) & (a * x >= 0)
    q = position_from_angles(AnglePair(a[keep], x[keep]), geom)
    q2 = position_from_angles(angles_from_position(q, geom), geom)
    worst = float(np.max(np.linalg.norm(q - q2, axis=-1)))
    check("geometry position<->angle round trip < 1e-9 m", worst < 1e-9, f"worst {worst:.2e}")

    # law of sines
    a, x = rng.uniform(0.05, 1.2, (2, 500))
    q = position_from_angles(AnglePair(a, x), geom)
    d_r, d_s, d_rp = triangle_distances(q, geom)
    ratios = np.array([d_s / np.sin(np.pi - a - x), d_r / np.sin(x), d_rp / np.sin(a)])
    worst = float(np.max(np.ptp(ratios, axis=0) / ratios.mean(axis=0)))
    check("law of sines residual < 1e-12", worst < 1e-12, f"worst {worst:.2e}")

    # jacobian against finite differences, columns d/dx and d/dz
    q = np.column_stack([rng.uniform(-79, 79, 200), np.zeros(200), rng.uniform(1, 99, 200)])
    t = jacobian_angles_to_position(q, geom)
    h = 1e-5
    fd = np.zeros_like(t)
    for col, axis in enumerate((0, 2)):
        hi = angles_from_position(q + h * np.eye(3)[axis], geom)
        lo = angles_from_position(q - h * np.eye(3)[axis], geom)
        fd[:, :, col] = np.column_stack([hi.alpha - lo.alpha, hi.xi - lo.xi]) / (2 * h)
    worst = float(np.max(np.abs(t - fd) / np.maximum(np.abs(fd), 1e-12)))
    check("angle Jacobian matches finite differences < 1e-6", worst < 1e-6, f"worst {worst:.2e}")

    # coefficient energy per element
    ms = np.arange(-64, 65)
    table = np.stack([fourier_coefficients(model.code, int(m)) for m in ms])
    energy = np.sum(np.abs(table) ** 2, axis=0)
    check("per-element coefficient energy in [0.99, 1]",
          bool(np.all(energy >= 0.99) and np.all(energy <= 1.0 + 1e-12)),
          f"min {energy.min():.5f}")

    def worst_fd(an, hi, lo, h):
        """Largest per-column relative error of the analytic columns ``an``
        against central differences; a column zero on both sides gives 0."""
        fd = (hi - lo) / (2 * h)
        err, scale = np.max(np.abs(an - fd), axis=0), np.max(np.abs(fd), axis=0)
        return float(np.max(np.divide(err, scale, out=np.where(err > 0, np.inf, 0.0), where=scale > 0)))

    # steering derivative
    a, h = rng.uniform(-1.4, 1.4, 100), 1e-7
    worst = worst_fd(steering_derivative(model.ula, a), steering_vector(model.ula, a + h),
                     steering_vector(model.ula, a - h), h)
    check("steering derivative matches finite differences < 1e-6", worst < 1e-6, f"worst {worst:.2e}")

    # pattern derivative: analytic at xi, central difference from xi +- h
    xi = rng.uniform(-1.3, 1.3, 50)
    eta, deta = harmonic_pattern_batch(model.panel, model.code, model.harmonics,
                                       np.concatenate([xi, xi + h, xi - h]), 0.0, model.mode)
    worst = worst_fd(deta[:, :50], eta[:, 50:100], eta[:, 100:], h)
    check("pattern derivative matches finite differences < 1e-6", worst < 1e-6, f"worst {worst:.2e}")

    def gap(f, closed, *args) -> float:
        """Relative gap of ``closed(*args)`` to inv(f); 0 where both mask."""
        try:
            c = closed(*args)
        except SingularInformation:
            return 0.0 if f.condition_number() > CONDITION_LIMIT else np.inf
        return abs(c - np.linalg.inv(f.entries)[0, 0]) / c

    # closed forms against explicit inversion
    worst_a, worst_x = 0.0, 0.0
    for _ in range(25):
        alpha, xi = rng.uniform(-1.2, 1.2, 2)
        gain = (rng.standard_normal() + 1j * rng.standard_normal()) * 1e-7
        sb = (alpha, gain, model.ula, model.pilots, model.noise_power)
        worst_a = max(worst_a, gap(fim_sb_single(*sb), crb_alpha_closed, *sb))
        db = (xi, alpha, gain, model.ula, model.panel, model.code, model.harmonics, *sb[3:], model.mode)
        worst_x = max(worst_x, gap(fim_db_single(*db), crb_xi_closed, *db))
    check("closed-form CRB(alpha) matches inversion < 1e-9", worst_a < 1e-9, f"worst {worst_a:.2e}")
    check("closed-form CRB(xi) matches inversion < 1e-9", worst_x < 1e-9, f"worst {worst_x:.2e}")

    # Marcum identities
    ok = abs(marcum_q1(0.0, 1.7) - np.exp(-1.7**2 / 2)) < 1e-12 and marcum_q1(2.3, 0.0) == 1.0
    qs = marcum_q1(np.linspace(0, 6, 25), 1.0)
    ok = ok and bool(np.all(np.diff(qs) >= -1e-12))
    check("Marcum Q identities and monotonicity", ok)

    printer(f"validate: {failures} failure(s)")
    return failures
