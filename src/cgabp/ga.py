"""Dense arithmetic kernel for the Clifford algebra Cl(4,1).

The algebra extends the three Euclidean basis vectors e1, e2, e3 with two
more, ep and em, squaring to +1 and -1 respectively.  A multivector is a
dense vector of 32 real blade coefficients indexed by the bit mask of the
basis subset (bit 0 = e1 ... bit 4 = em), so e.g. e1^e2 sits at index
0b00011 = 3.  The null vectors NI = em - ep (point at infinity) and
NO = (em + ep) / 2 (point at the origin) are ordinary values over the
basis, which keeps the metric diagonal.

Everything here is a pure function of immutable values; the only module
state is the sign/index tables built once at import time, so concurrent
use needs no synchronisation.

This is the reference that the tests and ``bench`` check the closed-form
motors of ``solver`` against, through ``motor_coeffs``/``motor_from_coeffs``.
"""

from __future__ import annotations

import math

import numpy as np

DIM = 32
_SIGNATURE = (1.0, 1.0, 1.0, 1.0, -1.0)  # e1, e2, e3, ep, em


def _blade_product(a: int, b: int) -> tuple[float, int]:
    """Product of two basis blades given as bit masks: (sign, result mask)."""
    sign = 1.0
    out = a
    for j in range(5):
        if not b & (1 << j):
            continue
        # moving e_j to its slot passes every higher generator already present
        if bin(out >> (j + 1)).count("1") & 1:
            sign = -sign
        if out & (1 << j):
            sign *= _SIGNATURE[j]
            out &= ~(1 << j)
        else:
            out |= 1 << j
    return sign, out


def _build_tables():
    gp_sign = np.zeros((DIM, DIM))
    gp_index = np.zeros((DIM, DIM), dtype=np.intp)
    for a in range(DIM):
        for b in range(DIM):
            s, m = _blade_product(a, b)
            gp_sign[a, b] = s
            gp_index[a, b] = m
    return gp_sign, gp_index


_GP_SIGN, _GP_INDEX = _build_tables()
_GP_INDEX_FLAT = _GP_INDEX.ravel()

GRADE = np.array([bin(m).count("1") for m in range(DIM)])
_DISJOINT = np.fromfunction(lambda a, b: (a.astype(int) & b.astype(int)) == 0, (DIM, DIM))
_OP_SIGN = np.where(_DISJOINT, _GP_SIGN, 0.0)
_REVERSE_SIGN = np.array([(-1.0) ** (k * (k - 1) // 2) for k in GRADE])
_BLADE_SQUARE = np.array([_GP_SIGN[m, m] for m in range(DIM)])


class Multivector:
    """Immutable dense element of Cl(4,1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (DIM,):
            raise ValueError(f"expected {DIM} blade coefficients, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return Multivector(self.coeffs + _coerce(other).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return Multivector(self.coeffs - _coerce(other).coeffs)

    def __rsub__(self, other):
        return Multivector(_coerce(other).coeffs - self.coeffs)

    def __neg__(self):
        return Multivector(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self.coeffs * float(other))
        return geometric_product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self.coeffs * float(other))
        return geometric_product(_coerce(other), self)

    def __truediv__(self, other):
        return Multivector(self.coeffs / float(other))

    def __xor__(self, other):
        return outer_product(self, _coerce(other))

    def __invert__(self):
        return reverse(self)

    # -- queries ------------------------------------------------------------

    @property
    def scalar(self) -> float:
        return float(self.coeffs[0])

    def grade(self, k: int) -> "Multivector":
        return grade_project(self, k)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def allclose(self, other, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.coeffs - _coerce(other).coeffs)) <= tol)

    def __repr__(self):
        return format_multivector(self)


def _coerce(x) -> Multivector:
    if isinstance(x, Multivector):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return scalar(float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as a multivector")


def scalar(x: float) -> Multivector:
    c = np.zeros(DIM)
    c[0] = x
    return Multivector(c)


def blade(mask: int, weight: float = 1.0) -> Multivector:
    c = np.zeros(DIM)
    c[mask] = weight
    return Multivector(c)


def euclidean_vector(v) -> Multivector:
    """Lift a Euclidean 3-vector onto the e1, e2, e3 coefficients."""
    v = np.asarray(v, dtype=float)
    c = np.zeros(DIM)
    c[1], c[2], c[4] = v
    return Multivector(c)


# -- core products ----------------------------------------------------------


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric (Clifford) product ab under the (+,+,+,+,-) metric."""
    w = (_GP_SIGN * np.outer(a.coeffs, b.coeffs)).ravel()
    return Multivector(np.bincount(_GP_INDEX_FLAT, weights=w, minlength=DIM))


def outer_product(a: Multivector, b: Multivector) -> Multivector:
    """Outer (wedge) product: the grade-raising part of the geometric product."""
    w = (_OP_SIGN * np.outer(a.coeffs, b.coeffs)).ravel()
    return Multivector(np.bincount(_GP_INDEX_FLAT, weights=w, minlength=DIM))


def scalar_product(a: Multivector, b: Multivector) -> float:
    """Grade-0 part of ab."""
    return float(np.dot(a.coeffs * _BLADE_SQUARE, b.coeffs))


def reverse(a: Multivector) -> Multivector:
    """Reversion: grade-k parts pick up (-1)^(k(k-1)/2)."""
    return Multivector(a.coeffs * _REVERSE_SIGN)


def grade_project(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= 5:
        raise ValueError(f"grade must be in 0..5, got {k}")
    return Multivector(np.where(GRADE == k, a.coeffs, 0.0))


def versor_inverse(v: Multivector) -> Multivector:
    """Inverse of a versor: reverse(v) / <v reverse(v)>_0.

    Raises ValueError when v~v is smaller than 1e-12 (non-invertible) or
    is not a scalar (v is not a versor).
    """
    vr = reverse(v)
    m = geometric_product(v, vr)
    s = m.scalar
    if abs(s) < 1e-12:
        raise ValueError("multivector is not invertible: v reverse(v) is ~0")
    rest = m - scalar(s)
    if rest.max_abs() > 1e-10 * max(1.0, abs(s)):
        raise ValueError("not a versor: v reverse(v) is not a scalar")
    return vr / s


def versor_apply(v: Multivector, a: Multivector) -> Multivector:
    """Sandwich action v a v^-1."""
    return geometric_product(geometric_product(v, a), versor_inverse(v))


def bivector_exp(b: Multivector) -> Multivector:
    """Closed-form exponential of a bivector with scalar square.

    For b*b = -s*s returns cos s + (sin s / s) b, for b*b = +s*s the cosh
    analogue, and 1 + b in the nilpotent case.  Anything whose square is
    not a scalar (general mixed bivectors) is rejected.
    """
    off_grade = b.coeffs[GRADE != 2]
    if np.max(np.abs(off_grade), initial=0.0) > 1e-10 * max(1.0, b.max_abs()):
        raise ValueError("bivector_exp expects a pure grade-2 argument")
    b2 = geometric_product(b, b)
    s0 = b2.scalar
    if (b2 - scalar(s0)).max_abs() > 1e-10 * max(1.0, b.max_abs() ** 2):
        raise ValueError("bivector square is not a scalar")
    if abs(s0) < 1e-12:
        return scalar(1.0) + b
    if s0 < 0.0:
        r = math.sqrt(-s0)
        return scalar(math.cos(r)) + b * (math.sin(r) / r)
    r = math.sqrt(s0)
    return scalar(math.cosh(r)) + b * (math.sinh(r) / r)


def is_versor(v: Multivector) -> bool:
    """True when v reverse(v) is a nonzero scalar (within 1e-10 of pure scalar)."""
    m = geometric_product(v, reverse(v))
    s = m.scalar
    scale = max(1.0, v.max_abs() ** 2)
    return abs(s) > 1e-12 and (m - scalar(s)).max_abs() <= 1e-10 * scale


# -- distinguished elements -------------------------------------------------

E1 = blade(0b00001)
E2 = blade(0b00010)
E3 = blade(0b00100)
EP = blade(0b01000)
EM = blade(0b10000)
NI = EM - EP              # point at infinity, squares to 0
NO = (EM + EP) * 0.5      # point at the origin, squares to 0
I5 = blade(0b11111)       # unit pseudoscalar e1 e2 e3 ep em
I5_SQ = scalar_product(I5, I5)          # -1 in this signature
I5_INV = reverse(I5) / I5_SQ


def dual(a: Multivector) -> Multivector:
    """Dual A* = A I^-1 (right multiplication by the inverse pseudoscalar)."""
    return geometric_product(a, I5_INV)


# -- null-basis view and motor support ---------------------------------------
#
# For printing and for the motor storage checks, coefficients over (ep, em)
# are re-expressed over the null pair: ep = NO - NI/2, em = NO + NI/2 and
# ep^em = NO^NI.  Per Euclidean mask E the four dense coefficients
# (E, E+ep, E+em, E+ep+em) become (E, E o, E inf, E o inf).

_EUCLID_MASKS = tuple(range(8))
_EP_BIT, _EM_BIT = 0b01000, 0b10000

# null-basis coordinates are indexed bucket*8 + euclid_mask with buckets
# 0: plain, 1: o factor, 2: inf factor, 3: o inf factor.
NULL_BASIS_NAMES = []
for bucket, suffix in enumerate(("", "o", "inf", "o inf")):
    for em in _EUCLID_MASKS:
        euclid = "".join(f"{k+1}" for k in range(3) if em & (1 << k))
        head = f"e{euclid}" if euclid else ""
        name = " ".join(x for x in (head, suffix) if x) or "1"
        NULL_BASIS_NAMES.append(name)

# motor support: scalar, three Euclidean bivectors, three e_k inf, e123 inf
MOTOR_SUPPORT = tuple(
    bucket * 8 + em
    for bucket, em in ((0, 0), (0, 3), (0, 5), (0, 6), (2, 1), (2, 2), (2, 4), (2, 7))
)


def null_basis_coeffs(a: Multivector) -> np.ndarray:
    """32 coefficients of ``a`` over the null-basis blade set (see above)."""
    out = np.zeros(DIM)
    c = a.coeffs
    for em in _EUCLID_MASKS:
        c_plain = c[em]
        c_ep = c[em | _EP_BIT]
        c_em = c[em | _EM_BIT]
        c_both = c[em | _EP_BIT | _EM_BIT]
        out[0 * 8 + em] = c_plain
        out[1 * 8 + em] = c_ep + c_em
        out[2 * 8 + em] = 0.5 * (c_em - c_ep)
        out[3 * 8 + em] = c_both
    return out


def from_null_basis_coeffs(coords) -> Multivector:
    """Inverse of :func:`null_basis_coeffs`."""
    coords = np.asarray(coords, dtype=float)
    c = np.zeros(DIM)
    for em in _EUCLID_MASKS:
        plain, c_o, c_inf, c_oinf = (coords[b * 8 + em] for b in range(4))
        c[em] = plain
        # o = (em + ep)/2 scaled into each factor slot; inf = em - ep
        c[em | _EP_BIT] = 0.5 * c_o - c_inf
        c[em | _EM_BIT] = 0.5 * c_o + c_inf
        c[em | _EP_BIT | _EM_BIT] = c_oinf
    return Multivector(c)


def motor_coeffs(a: Multivector) -> tuple[np.ndarray, float]:
    """Project onto the 8-coefficient motor support.

    Returns the 8 coefficients (order: 1, e12, e13, e23, e1 inf, e2 inf,
    e3 inf, e123 inf) and the largest null-basis coefficient magnitude
    outside that support.
    """
    nb = null_basis_coeffs(a)
    coords = nb[list(MOTOR_SUPPORT)]
    mask = np.ones(DIM, dtype=bool)
    mask[list(MOTOR_SUPPORT)] = False
    residual = float(np.max(np.abs(nb[mask]), initial=0.0))
    return coords, residual


def motor_from_coeffs(coords) -> Multivector:
    nb = np.zeros(DIM)
    nb[list(MOTOR_SUPPORT)] = np.asarray(coords, dtype=float)
    return from_null_basis_coeffs(nb)


def format_multivector(a: Multivector) -> str:
    """Human-readable form over the null basis, e.g. ``1.5 e12 - 0.5 e1 inf``."""
    nb = null_basis_coeffs(a)
    parts = []
    for idx in np.nonzero(np.abs(nb) > 1e-12)[0]:
        coeff = nb[idx]
        name = NULL_BASIS_NAMES[idx]
        mag = f"{abs(coeff):g}"
        term = mag if name == "1" else f"{mag} {name}"
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
