"""Independent reference for the benchmark's output check.

Every bound is recomputed here from first principles -- steering vectors,
harmonic patterns and the stacked signal derivatives -- and inverted
numerically, without calling the package's bounds, metasurface, channel or
geometry functions.  Only raw data is taken from the package's resolved
model: the coding matrix entries, the pilot block, the hypothesis priors
and the fixed scatterers' positions.  The masking rule is
the package's documented one: an information matrix whose
diagonally-normalized condition number exceeds 1e12 (or is not finite) is
masked instead of inverted, and so is a cell on a terminal.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0
COND_LIMIT = 1e12
TERMINAL_EPS = 1e-9
EPS = float(np.finfo(float).eps)
# forward-error constant of a backward-stable inversion, in units of kappa * eps
ROUNDING_SLACK = 64.0


class Masked(Exception):
    """The reference decides this cell is masked."""


def _vec(a):
    return np.ravel(a, order="F")


def scaled_cond(f):
    """Condition number of f after scaling it to unit diagonal."""
    d = np.diag(f)
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        return math.inf
    s = np.sqrt(d)
    return float(np.linalg.cond(f / np.outer(s, s)))


class Conditioning:
    """Tracks the matrices one reference value depended on.

    ``kappa`` is the largest scaled condition number met, which bounds the
    relative error any double-precision evaluation of the value can claim
    (about kappa * eps).  ``borderline`` is set when a masking decision sat
    so close to the limit that rounding alone could flip it.
    """

    def __init__(self):
        self.kappa = 1.0
        self.borderline = False

    def require(self, f):
        """Raise Masked when f is too ill-conditioned to invert."""
        k = scaled_cond(f)
        if math.isfinite(k):
            self.kappa = max(self.kappa, k)
            if abs(k / COND_LIMIT - 1.0) <= ROUNDING_SLACK * COND_LIMIT * EPS:
                self.borderline = True
        if not k <= COND_LIMIT:
            raise Masked

    def inverse(self, f):
        self.require(f)
        s = np.sqrt(np.diag(f))
        return np.linalg.inv(f / np.outer(s, s)) / np.outer(s, s)


class Reference:
    """Signal model of one resolved config, rebuilt from its raw numbers."""

    def __init__(self, cfg: dict, code_entries, pilot_symbols):
        self.cfg = cfg
        carrier = float(cfg["carrier_hz"])
        self.carrier = carrier
        self.lam = SPEED_OF_LIGHT / carrier
        m = int(cfg["bs"]["antennas"])
        self.ula_x = (np.arange(m) - (m - 1) / 2.0) * self.lam / 2.0
        nx, ny = int(cfg["panel"]["n_x"]), int(cfg["panel"]["n_y"])
        self.panel_x = np.repeat((np.arange(nx) - (nx - 1) / 2.0) * self.lam / 2.0, ny)
        self.code = np.asarray(code_entries, dtype=float)
        self.f0 = 1.0 / float(cfg["code"]["period_s"])
        mf = int(cfg["harmonics"])
        self.members = list(range(-mf, mf + 1))
        self.exact_wavelength = cfg["wavelength_mode"] == "exact"
        self.x = np.asarray(pilot_symbols, dtype=complex)
        self.noise = 10.0 ** ((float(cfg["noise_power_dbm"]) - 30.0) / 10.0)
        self.iota = float(cfg["path_loss_exponent"])
        g = cfg["geometry"]
        self.bs = np.asarray(g["bs_center"], dtype=float)
        self.stcm = np.asarray(g["stcm_center"], dtype=float)
        length = self.code.shape[1]
        ell = np.arange(1, length + 1)
        self.coeffs = {}
        for mm in self.members:
            sinc = 1.0 if mm == 0 else math.sin(math.pi * mm / length) / (math.pi * mm / length)
            self.coeffs[mm] = (self.code @ np.exp(-1j * np.pi * mm * (2 * ell - 1) / length)) * sinc / length

    # --- geometry ---------------------------------------------------------
    def angles(self, q):
        q = np.asarray(q, dtype=float)
        if (np.linalg.norm(q - self.bs) < TERMINAL_EPS
                or np.linalg.norm(q - self.stcm) < TERMINAL_EPS):
            raise Masked
        alpha = math.atan2(q[0] - self.bs[0], q[2] - self.bs[2])
        xi = math.atan2(q[0] - self.stcm[0], abs(q[2] - self.stcm[2]))
        return alpha, xi

    def jacobian(self, q):
        """d(alpha, xi)/d(x, z) for a point on the scene side of the panel."""
        sgn = 1.0 if self.stcm[2] >= self.bs[2] else -1.0
        dxb, dzb = q[0] - self.bs[0], q[2] - self.bs[2]
        dxs, w = q[0] - self.stcm[0], sgn * (self.stcm[2] - q[2])
        rb, rs = dxb * dxb + dzb * dzb, dxs * dxs + w * w
        return np.array([[dzb / rb, -dxb / rb], [w / rs, sgn * dxs / rs]])

    def gain(self, distance, rcs_sqrt=1.0):
        g = self.lam / (4.0 * math.pi * distance ** self.iota)
        return g * np.exp(-2j * math.pi * distance / self.lam) * rcs_sqrt

    def gains(self, q):
        d_r = float(np.linalg.norm(q - self.bs))
        d_rp = float(np.linalg.norm(q - self.stcm))
        d_s = float(np.linalg.norm(self.stcm - self.bs))
        return self.gain(2.0 * d_r), self.gain(d_s + d_r + d_rp), d_r

    # --- array and panel responses ----------------------------------------
    def steer(self, angle):
        return np.exp(1j * (2 * math.pi / self.lam) * self.ula_x * math.sin(angle))

    def dsteer(self, angle):
        return 1j * (2 * math.pi / self.lam) * self.ula_x * math.cos(angle) * self.steer(angle)

    def patterns(self, xi, phi=0.0):
        """Harmonic patterns and their xi-derivatives over the member orders."""
        eta, deta = [], []
        for mm in self.members:
            lam = SPEED_OF_LIGHT / (self.carrier + mm * self.f0) if self.exact_wavelength else self.lam
            k = 2 * math.pi / lam
            core = self.coeffs[mm] * np.exp(1j * k * (math.sin(xi) + math.sin(phi)) * self.panel_x)
            eta.append(core.sum())
            deta.append((1j * k * math.cos(xi) * self.panel_x * core).sum())
        return np.array(eta), np.array(deta)

    def ris_response(self, xi):
        k = 2 * math.pi / self.lam
        core = np.exp(1j * k * math.sin(xi) * self.panel_x)
        return core.sum(), (1j * k * math.cos(xi) * self.panel_x * core).sum()

    # --- stacked derivative columns ---------------------------------------
    def sb_columns(self, alpha, gain):
        a, da = self.steer(alpha), self.dsteer(alpha)
        h = _vec(np.outer(a, a) @ self.x)
        dh = _vec((np.outer(da, a) + np.outer(a, da)) @ self.x)
        return gain * dh, h

    def _db_spatial(self, alpha):
        a_r, a_s = self.steer(alpha), self.steer(0.0)
        return _vec((np.outer(a_r, a_s) + np.outer(a_s, a_r)) @ self.x)

    def db_columns(self, alpha, xi, gain):
        v = self._db_spatial(alpha)
        eta, deta = self.patterns(xi)
        return gain * np.kron(deta, v), np.kron(eta, v)

    def fim(self, angle_cols, regressors):
        cols = list(angle_cols)
        for h in regressors:
            cols.extend([h, 1j * h])
        d = np.column_stack(cols)
        f = (2.0 / self.noise) * np.real(d.conj().T @ d)
        return 0.5 * (f + f.T)

    # --- per-cell reference bounds ----------------------------------------
    def target(self, q):
        alpha, xi = self.angles(q)
        sb, db, _ = self.gains(np.asarray(q, dtype=float))
        return alpha, xi, sb, db

    def path_fims(self, q, fixed):
        """(F_sb, F_db) with the moving target at q as parameter 0."""
        states = [self.target(q)] + [self.target(p) for p in fixed]
        sb = [self.sb_columns(a, g) for a, _, g, _ in states]
        db = [self.db_columns(a, x, g) for a, x, _, g in states]
        return (self.fim([c for c, _ in sb], [h for _, h in sb]),
                self.fim([c for c, _ in db], [h for _, h in db]))

    def crbs(self, q, fixed):
        """[(CRB alpha, cond), (CRB xi, cond)] of the moving target.

        A value of None marks a masked cell.
        """
        try:
            fims = self.path_fims(q, fixed)
        except Masked:
            return [(None, Conditioning())] * 2
        out = []
        for f in fims:
            c = Conditioning()
            try:
                val = float(c.inverse(f)[0, 0])
                out.append((val if val > 0 else None, c))
            except Masked:
                out.append((None, c))
        return out

    def peb(self, q, fixed):
        """(position error bound, cond) of the moving target; None = masked."""
        q = np.asarray(q, dtype=float)
        r = 1 + len(fixed)
        c = Conditioning()
        try:
            efims = []
            for f in self.path_fims(q, fixed):
                # the gain block must be invertible; the angle block's
                # equivalent information is its Schur complement
                c.require(f[r:, r:])
                c.kappa = max(c.kappa, scaled_cond(f))
                s = np.sqrt(np.diag(f))
                n = f / np.outer(s, s)
                e = n[:r, :r] - n[:r, r:] @ np.linalg.solve(n[r:, r:], n[r:, :r])
                efims.append(e * np.outer(s[:r], s[:r]))
            f_ang = np.zeros((2 * r, 2 * r))
            f_ang[:r, :r], f_ang[r:, r:] = efims
            cov = c.inverse(f_ang)
            pair = np.linalg.inv(cov[np.ix_([0, r], [0, r])])
            t = self.jacobian(q)
            return float(np.sqrt(np.trace(c.inverse(t.T @ pair @ t)))), c
        except Masked:
            return None, c

    def ris_crb(self, q):
        """(CRB xi of the fixed-profile linear panel, cond); None = masked."""
        c = Conditioning()
        try:
            alpha, xi, _, db = self.target(q)
            g, dg = self.ris_response(xi)
            v = self._db_spatial(alpha)
            return float(c.inverse(self.fim([db * dg * v], [g * v]))[0, 0]), c
        except Masked:
            return None, c

    # --- detection and classification -------------------------------------
    def effective_energy(self, alpha: float, combiner: str) -> float:
        """Noise-referred regressor energy ||H||^4 / H^H (I kron Z Z^H) H."""
        m = self.x.shape[0]
        z = np.ones((m, m)) if combiner == "all_ones" else self.x.conj().T
        a = self.steer(alpha)
        hmat = z @ np.outer(a, a) @ self.x
        norm_sq = float(np.sum(np.abs(hmat) ** 2))
        colored = float(np.real(np.trace(hmat.conj().T @ (z @ z.conj().T) @ hmat)))
        return norm_sq ** 2 / colored

    def rcs_sqrt(self, label: str) -> float:
        return 10.0 ** (float(self.cfg["rcs_dbsm"][label]) / 20.0)

    def pd(self, q, label: str, combiner: str):
        """(Rayleigh-marginal detection probability at q, cond); None = masked.

        The all-ones combiner sums the steering vector, which cancels near
        the nulls of the array factor; the relative error of the result
        then scales with the sum's condition number sum|a| / |sum a| times
        the exponent's magnitude, which is what ``cond.kappa`` carries.
        """
        c = Conditioning()
        try:
            alpha, _ = self.angles(q)
        except Masked:
            return None, c
        d_sb = 2.0 * float(np.linalg.norm(np.asarray(q, dtype=float) - self.bs))
        g = self.lam / (4.0 * math.pi * d_sb ** self.iota)
        s = g * self.rcs_sqrt(label) * float(self.cfg["sigma_nu"]) * math.sqrt(2.0 / math.pi)
        gamma = -2.0 * math.log(float(self.cfg["p_fa"]))
        h2 = self.effective_energy(alpha, combiner)
        exponent = -gamma * self.noise / (4.0 * h2 * s * s + 2.0 * self.noise)
        if combiner == "all_ones":
            a = self.steer(alpha)
            c.kappa = abs(exponent) * len(a) / abs(a.sum())
        return math.exp(exponent), c

    def confusion_row(self, snr_db: float, true_index: int, priors):
        """Exact decision-rate row of the MAP classifier at one mean SNR.

        The truth |beta_hat| is Rayleigh with squared scale tau^2 + v/2; the
        decisions are the intervals cut by the pairwise crossings of the
        prior-weighted analysis densities.
        """
        labels = ("human_like", "object_like")
        sig = np.array([0.0] + [self.rcs_sqrt(lb) for lb in labels])
        est_var = self.noise / self.effective_energy(0.0, "matched")
        gain_scale = math.sqrt(10.0 ** (snr_db / 10.0) * est_var) / sig[true_index]
        v = 2.0 * (gain_scale * sig * math.sqrt(2.0 / math.pi)) ** 2 + est_var
        edges = [0.0]
        for i, j in ((0, 1), (1, 2)):
            t2 = math.log(priors[i] * v[j] / (priors[j] * v[i])) * v[i] * v[j] / (v[j] - v[i])
            edges.append(math.sqrt(max(t2, 0.0)))
        if edges[1] > edges[2]:
            raise ValueError("decision regions are not intervals")
        s2 = (gain_scale * sig[true_index]) ** 2 / 2.0 + est_var / 2.0
        cdf = [1.0 - math.exp(-e * e / (2.0 * s2)) for e in edges] + [1.0]
        return [cdf[k + 1] - cdf[k] for k in range(3)]
