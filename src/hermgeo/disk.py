"""Case studies on the unit disk.

The rank-2 singular metric [[1+|z|^2, z], [zbar, |z|^2]] (degenerate at
the origin, determinant |z|^4), a ``MetricSection`` on the polar mesh,
which leaves out the origin; its integrability against the identity
reference, the rank-1 conformal analogue with exponent log|z|^2, dual
metrics, boundedness bounds, and a discrete sub-mean-value test for
subharmonicity on the polar grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .completion import CauchyReport, cauchy_experiment, l2_report
from .errors import DimensionError, NonFiniteError, ParameterError, check_count, check_floats
from .fiber import check_alpha
from .sections import (MetricSection, QuadratureMesh, ScalarField, _relative_spectra,
                       _weighted_sum)

__all__ = [
    "DiskMesh",
    "GridFunction",
    "raufi_matrix",
    "raufi_section",
    "identity_reference",
    "raufi_integrability",
    "line_bundle_norms",
    "log_truncation_experiment",
    "psh_check",
    "PshReport",
    "dual_section",
    "boundedness_bound",
]


@dataclass(frozen=True)
class DiskMesh:
    """Polar midpoint grid on the unit disk (Lebesgue area weights).

    Cell centers (r_i, theta_j) with r_i = (i + 1/2)/n_r excluding the
    origin; weights r_i * dr * dtheta sum to pi exactly.
    """

    n_r: int
    n_theta: int
    # derived from the cell counts, so equality and the hash use those alone
    radii: np.ndarray = field(init=False, compare=False)
    thetas: np.ndarray = field(init=False, compare=False)
    _points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n_r", "n_theta"):
            check_count(getattr(self, name), name, 1)
        object.__setattr__(self, "radii", (np.arange(self.n_r) + 0.5) * self.dr)
        object.__setattr__(self, "thetas", (np.arange(self.n_theta) + 0.5) * self.dtheta)
        z = np.repeat(self.radii, self.n_theta) * np.exp(1j * np.tile(self.thetas, self.n_r))
        z.flags.writeable = False
        object.__setattr__(self, "_points", z)

    @property
    def dr(self) -> float:
        return 1.0 / self.n_r

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_theta

    @property
    def n_points(self) -> int:
        return self.n_r * self.n_theta

    def points(self) -> np.ndarray:
        """Complex coordinates of all cell centers, radial-major order
        (read-only, computed once)."""
        return self._points

    def cell_weights(self) -> np.ndarray:
        return np.repeat(self.radii * self.dr * self.dtheta, self.n_theta)

    def quadrature(self, rank: int, alpha: float) -> QuadratureMesh:
        """QuadratureMesh view with constant alpha, ids in grid order."""
        n = self.n_points
        return QuadratureMesh(rank=rank, ids=np.arange(n),
                              weights=self.cell_weights(),
                              alphas=np.full(n, check_alpha(alpha, rank, (n,))))


@dataclass(frozen=True)
class GridFunction:
    """Real values at disk cell centers, shaped (n_r, n_theta)."""

    mesh: DiskMesh
    values: np.ndarray

    def __post_init__(self):
        values = check_floats(self.values, "values").copy()  # frozen below
        if values.shape != (self.mesh.n_r, self.mesh.n_theta):
            raise DimensionError(
                f"values shape {values.shape} != "
                f"({self.mesh.n_r}, {self.mesh.n_theta})")
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("grid function has non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, mesh: DiskMesh, fn) -> "GridFunction":
        z = mesh.points().reshape(mesh.n_r, mesh.n_theta)
        return cls(mesh, fn(z))

    def integral_sq(self) -> float:
        """Quadrature value of the area integral of the squared function."""
        w = self.mesh.cell_weights().reshape(self.mesh.n_r, self.mesh.n_theta)
        with np.errstate(over="ignore"):  # an overflow makes the sum raise
            sq = self.values**2
        return float(_weighted_sum(w, sq))

    def interpolate(self, z: np.ndarray) -> np.ndarray:
        """Bilinear interpolation in (r, theta) with angular wraparound."""
        r = np.abs(z)
        th = np.mod(np.angle(z), 2 * np.pi)
        mesh = self.mesh
        fi = r / mesh.dr - 0.5
        i0 = np.clip(np.floor(fi).astype(int), 0, mesh.n_r - 2)
        ti = fi - i0
        fj = th / mesh.dtheta - 0.5
        j0 = np.floor(fj).astype(int)
        tj = fj - j0
        j0 = np.mod(j0, mesh.n_theta)
        j1 = np.mod(j0 + 1, mesh.n_theta)
        v = self.values
        return ((1 - ti) * (1 - tj) * v[i0, j0] + (1 - ti) * tj * v[i0, j1]
                + ti * (1 - tj) * v[i0 + 1, j0] + ti * tj * v[i0 + 1, j1])


def raufi_matrix(z) -> np.ndarray:
    """The rank-2 disk example matrix [[1+|z|^2, z], [zbar, |z|^2]] per point z."""
    z = check_floats(z, "z", complex)
    t = np.abs(z) ** 2
    return np.stack([np.stack([1.0 + t, z], axis=-1),
                     np.stack([np.conj(z), t], axis=-1)], axis=-2)


def raufi_eigenvalues(t: np.ndarray):
    """Exact eigenvalues (1 + 2t ± sqrt(1 + 4t)) / 2 at t = |z|^2.

    Read off the characteristic polynomial: trace 1 + 2t, determinant
    t^2; the small root is t^2 over the large one (Vieta), as the "-"
    root cancels for small t.  (A double eigenvalue t would contradict
    that trace, so the spectrum is computed here rather than assumed.)
    """
    lam_hi = (1.0 + 2.0 * t + np.sqrt(1.0 + 4.0 * t)) / 2.0
    return t**2 / lam_hi, lam_hi


def raufi_section(mesh: DiskMesh, alpha: float = 0.0) -> MetricSection:
    """The disk example as a section (no point sits at z = 0)."""
    return MetricSection(mesh.quadrature(rank=2, alpha=alpha),
                         raufi_matrix(mesh.points()))


def identity_reference(mesh: DiskMesh, rank: int = 2,
                       alpha: float = 0.0) -> MetricSection:
    """Smooth reference h0 = identity at every point."""
    quad = mesh.quadrature(rank=rank, alpha=alpha)
    eye = np.eye(rank, dtype=np.complex128)
    return MetricSection(quad, np.broadcast_to(eye, (quad.n_points, rank, rank)))


def raufi_integrability(mesh: DiskMesh, alpha: float = 0.0) -> dict:
    """Integrability report for the disk example against the identity.

    The L2 norms come from the exact eigenvalues; ``log_det_sq_integral``
    converges to 8*pi under refinement.  The report also carries the
    eigenvalue data so the trace/determinant bookkeeping is visible
    rather than buried.
    """
    t = np.abs(mesh.points()) ** 2
    alpha = check_alpha(alpha, 2, t.shape)
    lam_lo, lam_hi = raufi_eigenvalues(t)
    report = l2_report(np.log(np.stack([lam_lo, lam_hi], axis=-1)),
                       mesh.cell_weights(), alpha)
    return {
        "n_r": mesh.n_r,
        "n_theta": mesh.n_theta,
        "alpha": alpha,
        "log_det_sq_integral": report.l2_log_det**2,
        "log_det_sq_target": float(8.0 * np.pi),
        "distance_sq_integral": report.l2_distance**2,
        "is_l2": report.is_l2,
        "l2_log_lambda_min": report.l2_log_lambda_min,
        "l2_log_lambda_max": report.l2_log_lambda_max,
        "l2_log_det": report.l2_log_det,
        "max_lambda": float(lam_hi.max()),
        "det_identity_residual": float(
            np.abs(lam_lo * lam_hi - t**2).max()),
        "eigenvalue_note": (
            "spectrum computed from the characteristic polynomial "
            "(trace 1+2|z|^2, det |z|^4); a double eigenvalue |z|^2 "
            "would be inconsistent with that trace"),
    }


def line_bundle_norms(mesh: DiskMesh) -> dict:
    """Rank-1 analogue: ||log|z|^2||_2^2, converging to 2*pi."""
    phi = GridFunction.from_callable(mesh, lambda z: np.log(np.abs(z) ** 2))
    val = phi.integral_sq()
    return {
        "n_r": mesh.n_r,
        "n_theta": mesh.n_theta,
        "phi_sq_integral": val,
        "phi_sq_target": float(2.0 * np.pi),
    }


def log_truncation_experiment(mesh: DiskMesh, alpha: float = 0.0,
                              levels: int = 8) -> CauchyReport:
    """Cauchy experiment over the rank-1 reference h0 = 1: the truncations
    max(log|z|^2, -k), k = 1..levels, toward the unbounded limit log|z|^2."""
    levels = check_count(levels, "levels", 1)
    h0 = identity_reference(mesh, 1, alpha)
    phi = np.log(np.abs(mesh.points()) ** 2)
    f_seq = [ScalarField(h0.mesh, np.maximum(phi, -float(k)))
             for k in range(1, levels + 1)]
    return cauchy_experiment(h0, f_seq, ScalarField(h0.mesh, phi))


@dataclass(frozen=True)
class PshReport:
    """Result of the discrete sub-mean-value test."""

    max_violation: float
    passed: bool
    n_centers: int
    n_skipped: int


PSH_ANGLES = 64
PSH_CENTER_STRIDE = 8
PSH_MIN_CENTER_RADIUS = 0.1
PSH_TOLERANCE = 1e-3


def psh_check(u: GridFunction, radii) -> PshReport:
    """Sub-mean-value test: u(z0) <= mean of u over circles around z0.

    Circle means use angular quadrature with bilinear interpolation on
    the grid; centers whose test circle exits the mesh interior, or
    approaches the origin closer than 40 radial cells (where bilinear
    interpolation of log-type profiles is no longer accurate to the
    tolerance), are skipped and counted.  The tolerance absorbs the
    remaining interpolation error.
    """
    mesh = u.mesh
    radii = check_floats(radii, "radii")
    if radii.ndim != 1 or radii.size == 0 or not np.all(np.isfinite(radii) & (radii > 0)):
        raise ParameterError("test radii must be a nonempty list of positive finite values")
    z = mesh.points().reshape(mesh.n_r, mesh.n_theta)
    sel = z[::PSH_CENTER_STRIDE, ::PSH_CENTER_STRIDE].ravel()
    centers = sel[np.abs(sel) >= PSH_MIN_CENTER_RADIUS]
    angles = np.exp(2j * np.pi * (np.arange(PSH_ANGLES) + 0.5) / PSH_ANGLES)
    inner_cut = max(mesh.radii[0], 40.0 / mesh.n_r)
    center_vals = u.interpolate(centers)
    gaps = []
    for rho in radii:
        circles = centers[:, None] + rho * angles
        rr = np.abs(circles)
        used = (rr.min(axis=-1) >= inner_cut) & (rr.max(axis=-1) <= mesh.radii[-1])
        gaps.append(center_vals[used] - u.interpolate(circles[used]).mean(axis=-1))
    gaps = np.concatenate(gaps)
    if gaps.size == 0:
        raise ParameterError("no admissible (center, radius) pair: shrink the "
                             "radii or refine the mesh")
    worst = float(gaps.max())
    return PshReport(max_violation=worst, passed=bool(worst <= PSH_TOLERANCE),
                     n_centers=gaps.size, n_skipped=centers.size * radii.size - gaps.size)


def dual_section(sigma: MetricSection) -> MetricSection:
    """Pointwise dual metric: transpose of the inverse matrix, made
    Hermitian (an inverse loses about cond * eps of its symmetry)."""
    return MetricSection(sigma.mesh,
                         linalg.hermitian_part(np.linalg.inv(sigma.values)).swapaxes(-1, -2))


def boundedness_bound(sigma: MetricSection, h0: MetricSection) -> float:
    """Max over points of the top eigenvalue of H = h0^{-1} sigma."""
    return float(_relative_spectra(h0, sigma)[1][:, -1].max(initial=0.0))
