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
from .detection import marcum_q1
from .geometry import AnglePair, angles_from_position, jacobian_angles_to_position, position_from_angles
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

    # geometry round trip
    worst = 0.0
    for _ in range(2000):
        a = rng.uniform(-1.2, 1.2)
        x = rng.uniform(-1.2, 1.2)
        if abs(a + x) < 2e-3 or a * x < 0:
            continue
        q = position_from_angles(AnglePair(a, x), model.geom)
        ang = angles_from_position(q, model.geom)
        q2 = position_from_angles(ang, model.geom)
        worst = max(worst, float(np.linalg.norm(q - q2)))
    check("geometry position<->angle round trip < 1e-9 m", worst < 1e-9, f"worst {worst:.2e}")

    # law of sines
    worst = 0.0
    for _ in range(500):
        a = rng.uniform(0.05, 1.2)
        x = rng.uniform(0.05, 1.2)
        q = position_from_angles(AnglePair(a, x), model.geom)
        d_r = np.linalg.norm(q - model.geom.bs_center)
        d_rp = np.linalg.norm(q - model.geom.stcm_center)
        zeta = np.pi - a - x
        ratios = np.array([model.geom.d_s / np.sin(zeta), d_r / np.sin(x), d_rp / np.sin(a)])
        worst = max(worst, float(np.ptp(ratios) / ratios.mean()))
    check("law of sines residual < 1e-12", worst < 1e-12, f"worst {worst:.2e}")

    # jacobian against finite differences
    worst = 0.0
    for _ in range(200):
        q = np.array([rng.uniform(-79, 79), 0.0, rng.uniform(1, 99)])
        t = jacobian_angles_to_position(q, model.geom)
        fd = np.zeros((2, 2))
        h = 1e-5
        for col, axis in enumerate((0, 2)):
            dq = np.zeros(3)
            dq[axis] = h
            hi = angles_from_position(q + dq, model.geom)
            lo = angles_from_position(q - dq, model.geom)
            fd[:, col] = [(hi.alpha - lo.alpha) / (2 * h), (hi.xi - lo.xi) / (2 * h)]
        worst = max(worst, float(np.max(np.abs(t - fd) / np.maximum(np.abs(fd), 1e-12))))
    check("angle Jacobian matches finite differences < 1e-6", worst < 1e-6, f"worst {worst:.2e}")

    # coefficient energy per element
    ms = np.arange(-64, 65)
    table = np.stack([fourier_coefficients(model.code, int(m)) for m in ms])
    energy = np.sum(np.abs(table) ** 2, axis=0)
    check("per-element coefficient energy in [0.99, 1]",
          bool(np.all(energy >= 0.99) and np.all(energy <= 1.0 + 1e-12)),
          f"min {energy.min():.5f}")

    # steering derivative
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-1.4, 1.4)
        h = 1e-7
        fd = (steering_vector(model.ula, a + h) - steering_vector(model.ula, a - h)) / (2 * h)
        an = steering_derivative(model.ula, a)
        worst = max(worst, float(np.max(np.abs(an - fd)) / np.max(np.abs(fd))))
    check("steering derivative matches finite differences < 1e-6", worst < 1e-6, f"worst {worst:.2e}")

    # pattern derivative: analytic at xi, central difference from xi +- h
    worst = 0.0
    for _ in range(50):
        xi = rng.uniform(-1.3, 1.3)
        h = 1e-7
        eta, deta = harmonic_pattern_batch(model.panel, model.code, model.harmonics,
                                           [xi, xi + h, xi - h], 0.0, model.mode)
        an = deta[:, 0]
        fd = (eta[:, 1] - eta[:, 2]) / (2 * h)
        worst = max(worst, float(np.max(np.abs(an - fd)) / np.max(np.abs(fd))))
    check("pattern derivative matches finite differences < 1e-6", worst < 1e-6, f"worst {worst:.2e}")

    # closed forms against explicit inversion
    worst_a, worst_x = 0.0, 0.0
    for _ in range(25):
        alpha = rng.uniform(-1.2, 1.2)
        xi = rng.uniform(-1.2, 1.2)
        gain = (rng.standard_normal() + 1j * rng.standard_normal()) * 1e-7
        f = fim_sb_single(alpha, gain, model.ula, model.pilots, model.noise_power)
        ca = crb_alpha_closed(alpha, gain, model.ula, model.pilots, model.noise_power)
        worst_a = max(worst_a, abs(ca - np.linalg.inv(f.entries)[0, 0]) / ca)
        f = fim_db_single(xi, alpha, gain, model.ula, model.panel, model.code,
                          model.harmonics, model.pilots, model.noise_power, model.mode)
        cx = crb_xi_closed(xi, alpha, gain, model.ula, model.panel, model.code,
                           model.harmonics, model.pilots, model.noise_power, model.mode)
        worst_x = max(worst_x, abs(cx - np.linalg.inv(f.entries)[0, 0]) / cx)
    check("closed-form CRB(alpha) matches inversion < 1e-9", worst_a < 1e-9, f"worst {worst_a:.2e}")
    check("closed-form CRB(xi) matches inversion < 1e-9", worst_x < 1e-9, f"worst {worst_x:.2e}")

    # Marcum identities
    ok = abs(marcum_q1(0.0, 1.7) - np.exp(-1.7**2 / 2)) < 1e-12 and marcum_q1(2.3, 0.0) == 1.0
    qs = marcum_q1(np.linspace(0, 6, 25), 1.0)
    ok = ok and bool(np.all(np.diff(qs) >= -1e-12))
    check("Marcum Q identities and monotonicity", ok)

    printer(f"validate: {failures} failure(s)")
    return failures
