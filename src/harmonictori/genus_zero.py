"""Homogeneous tori: full spectral data in closed form.

A homogeneous torus is the product of two one-parameter subgroups of SU(2),
written g(w) = exp(-4 w_R X) exp(4 w_I Y) with X of unit length, Y of length
x, and delta in (0, pi) the angle between them.  Everything about such a map
is elementary: the period lattice, the holonomy of the associated family of
flat connections, the single branch point alpha of its spectral curve, the
lattice of admissible differentials and the energy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Genus0Map", "Genus0Data", "PeriodLattice",
    "branch_point", "map_params", "su2_exp", "harmonic_map_eval",
    "period_lattice", "conformal_type", "normalize_tau", "holonomy_B",
    "eigenline_branch_points", "energy", "differential_scalars", "invert_map",
]

_MAX_ENTRY = 2**31


@dataclass(frozen=True)
class Genus0Map:
    """Parameters (x, delta): length ratio ||Y||/||X|| and angle between X, Y."""

    x: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.x < math.inf:
            raise ValueError("x must be positive and finite")
        if not (0.0 < self.delta < math.pi):
            # at delta in {0, pi} the image degenerates to a great circle
            raise ValueError("delta must lie strictly between 0 and pi")

    @property
    def X(self) -> np.ndarray:
        return np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

    @property
    def Y(self) -> np.ndarray:
        e = cmath.exp(1j * self.delta)
        return self.x * np.array([[0.0, e], [-e.conjugate(), 0.0]], dtype=complex)


@dataclass(frozen=True)
class Genus0Data:
    """A branch point alpha in the open disc plus the integer matrix choosing
    the pair of differentials from the lattice (rows (n1, m1), (n2, m2))."""

    alpha: complex
    matrix: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        if not abs(self.alpha) < 1.0:
            raise ValueError("alpha must lie in the open unit disc")
        (n1, m1), (n2, m2) = self.matrix
        for e in (n1, m1, n2, m2):
            if not isinstance(e, int) or abs(e) > _MAX_ENTRY:
                raise ValueError("matrix entries must be ints with |entry| <= 2^31")
        if self.det == 0:
            raise ValueError("matrix must be nonsingular")

    @property
    def det(self) -> int:
        (n1, m1), (n2, m2) = self.matrix
        return n1 * m2 - m1 * n2


@dataclass(frozen=True)
class PeriodLattice:
    kappa1: complex
    kappa2: complex


def branch_point(m: Genus0Map) -> complex:
    """Branch point alpha = (x e^{i delta} - i)/(x e^{i delta} + i), in the disc."""
    z = m.x * cmath.exp(1j * m.delta)
    return (z - 1j) / (z + 1j)


def map_params(alpha: complex) -> Genus0Map:
    """Invert the branch point: x e^{i delta} = i (1 + alpha)/(1 - alpha)."""
    alpha = complex(alpha)
    if not abs(alpha) < 1.0:
        raise ValueError("alpha must lie in the open unit disc")
    z = 1j * (1.0 + alpha) / (1.0 - alpha)
    return Genus0Map(x=abs(z), delta=cmath.phase(z))


def su2_exp(Z: np.ndarray) -> np.ndarray:
    """exp of a traceless anti-hermitian 2x2 matrix.

    Uses exp Z = I cos||Z|| + (Z/||Z||) sin||Z|| with ||Z|| = sqrt(det Z);
    the norm-zero case degenerates to I + Z.
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.shape != (2, 2):
        raise ValueError("Z must be 2x2")
    scale = max(1.0, float(np.abs(Z).max()))
    if abs(Z[0, 0] + Z[1, 1]) > 1e-12 * scale:
        raise ValueError("Z must be traceless")
    if np.abs(Z + Z.conj().T).max() > 1e-12 * scale:
        raise ValueError("Z must be anti-hermitian")
    det = Z[0, 0] * Z[1, 1] - Z[0, 1] * Z[1, 0]
    norm = math.sqrt(max(det.real, 0.0))
    eye = np.eye(2, dtype=complex)
    if norm == 0.0:
        return eye + Z
    return math.cos(norm) * eye + (math.sin(norm) / norm) * Z


def harmonic_map_eval(m: Genus0Map, w: complex) -> np.ndarray:
    """g(w) = exp(-4 w_R X) exp(4 w_I Y), a special unitary matrix."""
    w = complex(w)
    return su2_exp(-4.0 * w.real * m.X) @ su2_exp(4.0 * w.imag * m.Y)


def period_lattice(x: float) -> PeriodLattice:
    """Generators kappa_1 = (pi/4)(1 - i/x), kappa_2 = -(pi/4)(1 + i/x)."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    q = math.pi / 4.0
    return PeriodLattice(kappa1=q * (1.0 - 1j / x), kappa2=-q * (1.0 + 1j / x))


def conformal_type(matrix, x: float) -> complex:
    """Conformal parameter tau = tau_2/tau_1 of the domain torus.

    tau = ((n2 + m2) + i x (n2 - m2)) / ((n1 + m1) + i x (n1 - m1)) for the
    periods tau_l = n^l kappa_1 + m^l kappa_2.  The raw ratio is returned;
    its imaginary part may be negative (see normalize_tau).
    """
    (n1, m1), (n2, m2) = matrix
    if n1 * m2 - m1 * n2 == 0:
        raise ValueError("matrix must be nonsingular")
    den = (n1 + m1) + 1j * x * (n1 - m1)
    if den == 0:
        raise ValueError("degenerate period: tau_1 vanishes for this x")
    return ((n2 + m2) + 1j * x * (n2 - m2)) / den


def normalize_tau(tau: complex) -> complex:
    """Upper half-plane representative of an unoriented conformal class."""
    return tau.conjugate() if tau.imag < 0 else tau


def holonomy_B(l: int, zeta: complex, m: Genus0Map, tau_l: complex) -> np.ndarray:
    """Log-holonomy B^l(zeta) of the flat family along the period tau_l.

    Off-diagonal and traceless by the chosen normal forms of X and Y.
    """
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    zeta = complex(zeta)
    if zeta == 0:
        raise ValueError("zeta must be nonzero")
    xe = m.x * cmath.exp(1j * m.delta)
    xec = m.x * cmath.exp(-1j * m.delta)
    pref = (tau_l + tau_l.conjugate() * zeta) / zeta
    top = -(1.0 + 1j * xe) + (-1.0 + 1j * xe) * zeta
    bot = (1.0 + 1j * xec) + (1.0 - 1j * xec) * zeta
    return pref * np.array([[0.0, top], [bot, 0.0]], dtype=complex)


def eigenline_branch_points(m: Genus0Map) -> tuple[complex, complex]:
    """The two points where the holonomy eigenlines coincide: (alpha, 1/conj(alpha)).

    The discriminant -det B^l factors through (zeta - alpha)(1 - conj(alpha) zeta)
    analytically, so the roots are closed-form; alpha = 0 sends the mirror
    point to infinity.
    """
    a = branch_point(m)
    mirror = cmath.inf if a == 0 else 1.0 / a.conjugate()
    return a, mirror


def energy(d: Genus0Data) -> float:
    """Signed energy pi^2 (1 + |alpha|^2) (m1 n2 - n1 m2) / |1 - alpha^2|.

    The sign follows the row order of the matrix; callers wanting physical
    energy take the absolute value.  Diverges as alpha -> +-1.
    """
    a = d.alpha
    denom = abs(1.0 - a * a)
    if denom == 0.0:
        raise ValueError("energy is singular at alpha = +-1")
    return math.pi**2 * (1.0 + (a * a.conjugate()).real) * -d.det / denom


def differential_scalars(alpha: complex) -> tuple[complex, complex]:
    """Scalars r_l = i kappa_l |1 - i x e^{i delta}| spanning the differential lattice.

    r_1 equals (pi/2)(1/|1 + alpha| + i/|1 - alpha|); r_2 is its conjugate.
    """
    alpha = complex(alpha)
    if abs(1.0 - alpha * alpha) == 0.0:
        raise ValueError("singular at alpha = +-1")
    m = map_params(alpha)
    lat = period_lattice(m.x)
    scale = abs(1.0 - 1j * m.x * cmath.exp(1j * m.delta))
    return 1j * lat.kappa1 * scale, 1j * lat.kappa2 * scale


def invert_map(d: Genus0Data) -> Genus0Data:
    """Spectral data of the inverted map g^{-1}: alpha -> -alpha, matrix kept."""
    return Genus0Data(alpha=-d.alpha, matrix=d.matrix)
