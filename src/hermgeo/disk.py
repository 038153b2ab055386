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
from .errors import (DimensionError, NonFiniteError, ParameterError, check_count, check_floats,
                     reject)
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


# cells of one DiskMesh: refused before anything is allocated, as
# linalg.RANK_LIMIT bounds the rank
DISK_POINT_LIMIT = 10**6


@dataclass(frozen=True)
class DiskMesh:
    """Polar midpoint grid on the unit disk (Lebesgue area weights).

    Cell centers (r_i, theta_j) with r_i = (i + 1/2)/n_r excluding the
    origin; weights r_i * dr * dtheta sum to pi exactly.  At most
    ``DISK_POINT_LIMIT`` cells.
    """

    n_r: int
    n_theta: int
    # derived from the cell counts, so equality and the hash use those alone
    radii: np.ndarray = field(init=False, compare=False)
    thetas: np.ndarray = field(init=False, compare=False)
    _points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = check_count(self.n_r, "n_r", 1) * check_count(self.n_theta, "n_theta", 1)
        if n > DISK_POINT_LIMIT:
            raise ParameterError(f"n_r * n_theta = {n} cells: need at most "
                                 f"{DISK_POINT_LIMIT}")
        object.__setattr__(self, "radii", (np.arange(self.n_r) + 0.5) * self.dr)
        object.__setattr__(self, "thetas", (np.arange(self.n_theta) + 0.5) * self.dtheta)
        z = (self.radii[:, None] * np.exp(1j * self.thetas)).ravel()  # one exp per angle
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


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values at disk cell centers, shaped (n_r, n_theta).

    The values are held once, in a seam-padded buffer of shape
    (n_r + 1, n_theta + 2): each row starts with its last angle and ends
    with its first, and row 0 repeats the last row (the row the bilinear
    kernel reads at n_r = 1), so every corner the kernel reads sits at a
    fixed offset from one flat index.  ``values`` is the read-only
    (n_r, n_theta) view of the buffer's interior.  Equality is identity,
    as for any object holding an array.
    """

    mesh: DiskMesh
    values: np.ndarray
    _padded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = check_floats(self.values, "values")
        if values.shape != (self.mesh.n_r, self.mesh.n_theta):
            raise DimensionError(
                f"values shape {values.shape} != "
                f"({self.mesh.n_r}, {self.mesh.n_theta})")
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("grid function has non-finite values")
        padded = np.empty((self.mesh.n_r + 1, self.mesh.n_theta + 2))
        padded[1:, 1:-1] = values
        padded[1:, 0], padded[1:, -1] = values[:, -1], values[:, 0]
        padded[0] = padded[-1]
        padded.flags.writeable = False
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "values", padded[1:, 1:-1])

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

    def interpolate(self, z) -> np.ndarray:
        """Bilinear interpolation in (r, theta) with angular wraparound, at
        points z of the closed unit disk, of z's shape (a float for a
        scalar z).  A non-finite z raises NonFiniteError, a z with |z| > 1
        ParameterError."""
        z = check_floats(z, "z", complex)
        reject(~np.isfinite(z), NonFiniteError, lambda k: f"z={z[k]}: not finite")
        r = np.abs(z)
        reject(r > 1.0, ParameterError, lambda k: f"z={z[k]}: off the closed unit disk")
        # the kernel consumes its inputs: fresh 1-d arrays, a scalar's too
        out = self._bilinear(np.ravel(r), np.ravel(np.arctan2(z.imag, z.real)))
        return out.reshape(z.shape)[()]

    def _bilinear(self, r: np.ndarray, ang: np.ndarray) -> np.ndarray:
        """The interpolation at polar coordinates r = |z| and ang = angle(z)
        in [-pi, pi], arrays of one shape, which it overwrites."""
        mesh = self.mesh
        # ang + 2 pi where ang < 0, so fj is np.mod(ang, 2 pi)'s, bit for bit
        np.add(ang, 2 * np.pi, out=ang, where=ang < 0)
        fj = np.subtract(np.divide(ang, mesh.dtheta, out=ang), 0.5, out=ang)
        fi = np.subtract(np.divide(r, mesh.dr, out=r), 0.5, out=r)
        # the clipped floors, as floats: i0 is -1 at n_r = 1 and j0 lies in
        # -1 .. n_theta - 1, so the corner (i0, j0) is padded (i0 + 1, j0 + 1)
        i0 = np.minimum(np.maximum(np.floor(fi), 0), mesh.n_r - 2)
        j0 = np.floor(fj)
        ti, tj = np.subtract(fi, i0, out=fi), np.subtract(fj, j0, out=fj)
        # that corner as one flat index k; the other three corners are k in
        # the flat buffer shifted by one column, one row, and both
        width = mesh.n_theta + 2
        i0 *= width
        i0 += j0
        i0 += width + 1
        k = i0.astype(np.intp)
        v = self._padded.ravel()
        si, sj = 1 - ti, 1 - tj
        out, part = si * sj, np.empty_like(si)
        out *= v[k]
        for a, b, shift in ((si, tj, 1), (ti, sj, width), (ti, tj, width + 1)):
            np.multiply(a, b, out=part)
            part *= v[shift:][k]
            out += part
        return out


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
    return _line_bundle_report(GridFunction.from_callable(mesh, lambda z: np.log(np.abs(z) ** 2)))


def _line_bundle_report(phi: GridFunction) -> dict:
    """``line_bundle_norms`` of phi = log|z|^2 on its mesh."""
    return {
        "n_r": phi.mesh.n_r,
        "n_theta": phi.mesh.n_theta,
        "phi_sq_integral": phi.integral_sq(),
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
PSH_BLOCK = 64  # centres per block: 4096 circle points
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

    The test is only as good as that interpolation.  For u = log |s|^2_h
    of a holomorphic section s, it holds where |s|^2_h stays away from
    zero: constant sections of Raufi's metric pass at 200 x 64 (worst
    violation about 4e-4, falling at about second order under
    refinement).  Where |s|^2_h nearly vanishes inside the disk, as for
    sections s = (a + cz, b + dz), u has a log well that bilinear
    interpolation resolves poorly, and a psh u can fail (about 6e-3 at
    200 x 64): a limit of the discrete test, not of the metric.

    The circles of each radius are evaluated over blocks of PSH_BLOCK
    centres, so their temporaries are O(PSH_BLOCK * PSH_ANGLES) whatever
    the mesh size; the centres, one in PSH_CENTER_STRIDE**2 cells, are
    interpolated once, in one call.  Each circle's mean is taken along
    its own row, so the report does not depend on the block size.
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
    # cell centres: finite and on the disk, so the kernel takes them as they
    # are; it consumes the two fresh arrays passed in
    center_vals = u._bilinear(np.abs(centers), np.arctan2(centers.imag, centers.real))
    gaps = [np.empty(0)]  # with no centres, no block runs
    for rho in radii:
        offsets = rho * angles
        for start in range(0, centers.size, PSH_BLOCK):
            block = slice(start, start + PSH_BLOCK)
            circles = centers[block, None] + offsets
            rr = np.abs(circles)
            used = ((rr >= inner_cut) & (rr <= mesh.radii[-1])).all(axis=-1)
            vals = center_vals[block]
            if not used.all():
                circles, rr, vals = circles[used], rr[used], vals[used]
            # the kernel takes the moduli the mask already needed and consumes
            # them, with the angles: neither is read after this call
            arc = u._bilinear(rr, np.arctan2(circles.imag, circles.real))
            gaps.append(vals - arc.sum(axis=-1) / PSH_ANGLES)
    gaps = np.concatenate(gaps)
    if gaps.size == 0:
        raise ParameterError("no admissible (center, radius) pair: shrink the "
                             "radii or refine the mesh")
    worst = float(gaps.max())
    return PshReport(max_violation=worst, passed=bool(worst <= PSH_TOLERANCE),
                     n_centers=gaps.size, n_skipped=centers.size * radii.size - gaps.size)


def dual_section(sigma: MetricSection) -> MetricSection:
    """Pointwise dual metric: transpose of the inverse matrix, made
    Hermitian (an inverse loses about cond * eps of its symmetry); the
    transpose of a Hermitian matrix is its conjugate.  The dual is
    factored on first use."""
    return MetricSection._derived(
        sigma.mesh, np.conj(linalg.hermitian_part(np.linalg.inv(sigma.values))))


def boundedness_bound(sigma: MetricSection, h0: MetricSection) -> float:
    """Max over points of the top eigenvalue of H = h0^{-1} sigma."""
    return float(_relative_spectra(h0, sigma)[1][:, -1].max(initial=0.0))
