"""Closed-form asymptotic constants for power-weighted nearest-neighbour statistics.

For a nearest-neighbour (directed) graph on a point process on the line, with
edge weights d^alpha, the large-intensity limits of the scaled mean and variance
have explicit expressions in terms of the Euler Gamma function (``math.gamma``;
every argument here is above 1, since alpha > 0) and, in v_alpha, one Gauss
hypergeometric factor 2F1(-alpha, 1 + alpha; 2 + alpha; 1/3):

    mean coefficient     exp_moment(alpha) = 2^(-alpha) * Gamma(1 + alpha)
    variance constant    v_alpha(alpha)          (binomial / fixed-n case)
    Poisson excess       delta_alpha(alpha) = 2^(-alpha) * Gamma(1+alpha) * (1-alpha)

For a Poisson process of density kappa the per-region limits are

    mean       exp_moment(alpha) * J(1 - alpha)
    variance   (v_alpha + delta_alpha^2) * J(1 - 2 alpha),   J(p) = integral of kappa^p

over the region; ``experiments`` computes them for each region of a plan.

The normality checks need the standard normal CDF, ``ndtr``.  It is a numpy
port of the Cephes ``ndtr``/``erf``/``erfc`` (Moshier, *Methods and Programs
for Mathematical Functions*, 1989) as scipy builds it, and it returns the same
doubles as ``scipy.special.ndtr``: the same branches, coefficient tables and
Horner order.  The factor exp(-z^2) of the ``erfc`` branch goes through
``math.exp`` one element at a time, because that is the C library's exp,
which Cephes calls too; numpy's vectorized ``np.exp`` can differ from it in
the last bit.  Porting the function keeps scipy, which costs about 0.3 s and
300 modules to import, off the runtime path.

A constant that overflows a double raises ValueError naming the exponent:
v_alpha from alpha ~ 84.8, delta_alpha_sq from ~ 113.7, the others ~ 170.6.

Everything here is a pure function of its arguments; no state, safe for
concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "v_alpha",
    "delta_alpha",
    "delta_alpha_sq",
    "exp_moment",
    "ndtr",
]


def _gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric series 2F1(a, b; c; z), summed term by term.

    Only ``v_alpha`` calls it, with c = 2 + a > 2 and z = 1/3, so no
    denominator factor vanishes and the series converges.  A terminating
    series (a or b a nonpositive integer) is summed exactly; otherwise
    summation stops once the term is below 1e-13 times the partial sum for 3
    consecutive terms, far inside the fixed cap of 10 000 terms.
    """
    total = 1.0
    term = 1.0
    quiet = 0
    for n in range(10_000):
        fa, fb = a + n, b + n
        if fa == 0.0 or fb == 0.0:
            return total  # terminating series: all later Pochhammer factors vanish
        term *= fa * fb / (c + n) * z / (n + 1)
        total += term
        if abs(term) <= 1e-13 * abs(total):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
    return total


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"weight exponent must be positive and finite, got {alpha}")
    return alpha


def _gamma(x: float, alpha: float) -> float:
    """math.gamma(x), whose overflow raises ValueError naming the weight
    exponent in place of a bare range error."""
    try:
        return math.gamma(x)
    except OverflowError:
        raise ValueError(f"Gamma({x:g}) overflows a double at weight "
                         f"exponent {alpha:g}") from None


def v_alpha(alpha: float) -> float:
    """Limiting scaled-variance constant of the fixed-n (binomial) case.

    v_alpha = (4^-a + 2*3^(-1-2a)) G(1+2a) - 4^-a (3+a^2) G(1+a)^2
              + 8 * 6^(-a-1) G(2+2a) / (1+a) * 2F1(-a, 1+a; 2+a; 1/3)

    For integer a the 2F1 factor terminates and the value is rational.
    """
    a = _check_alpha(alpha)
    g2a = _gamma(1.0 + 2.0 * a, a)
    ga = _gamma(1.0 + a, a)
    g22 = _gamma(2.0 + 2.0 * a, a)
    hyp = _gauss_2f1(-a, 1.0 + a, 2.0 + a, 1.0 / 3.0)
    return (
        (4.0 ** -a + 2.0 * 3.0 ** (-1.0 - 2.0 * a)) * g2a
        - 4.0 ** -a * (3.0 + a * a) * ga * ga
        + 8.0 * (6.0 ** (-a - 1.0) * g22 / (1.0 + a)) * hyp
    )


def delta_alpha(alpha: float) -> float:
    """Signed Poisson-excess coefficient 2^(-a) Gamma(1+a) (1-a); zero at a=1."""
    a = _check_alpha(alpha)
    return 2.0 ** -a * _gamma(1.0 + a, a) * (1.0 - a)


def delta_alpha_sq(alpha: float) -> float:
    d = delta_alpha(alpha)
    if math.isinf(d * d):  # from alpha ~ 113.7
        raise ValueError(f"delta_alpha^2 overflows a double at weight "
                         f"exponent {alpha:g}")
    return d * d


def exp_moment(alpha: float) -> float:
    """alpha-moment of the typical nearest-neighbour gap in a unit line process.

    The gap is Exp(2)-distributed, so E[D^a] = 2^(-a) Gamma(1+a).
    """
    a = _check_alpha(alpha)
    return 2.0 ** -a * _gamma(1.0 + a, a)


# ---------------------------------------------------------------------------
# standard normal CDF: the Cephes ndtr, erf and erfc

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
# Cephes polynomial tables, highest power first.  U, Q and S are monic: Cephes
# evaluates them with p1evl, which is polevl with the leading 1 written out
# here, since 1 * x is exact.
# erf(x) = x * T(x^2) / U(x^2) for |x| < 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
# erfc(x) = exp(-x^2) * P(x) / Q(x) for 1 <= x < 8, with R / S from 8 on
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Horner evaluation in the order of Cephes ``polevl``."""
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def ndtr(a) -> np.ndarray | float:
    """Standard normal CDF, equal bit for bit to ``scipy.special.ndtr``.

    With x = a / sqrt(2) and z = |x|: 0.5 + 0.5 erf(x) if z < 1, otherwise
    0.5 erfc(z), reflected to 1 - 0.5 erfc(z) for x > 0.  erfc underflows
    to 0 once z^2 > MAXLOG, so the tails are exactly 0 and 1, and +-inf give
    1 and 0; nan gives nan.  Returns a float for scalar input.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    out = np.full(x.shape, np.nan)

    mid = z < 1.0
    xm = x[mid]
    out[mid] = 0.5 + 0.5 * (xm * _polevl(xm * xm, _ERF_T) / _polevl(xm * xm, _ERF_U))

    tail = z >= 1.0
    zt = z[tail]
    with np.errstate(over="ignore"):  # a huge finite z squares to inf: dead too
        live = zt * zt <= _MAXLOG
    zl = zt[live]
    near = zl < 8.0
    p = np.where(near, _polevl(zl, _ERFC_P), _polevl(zl, _ERFC_R))
    q = np.where(near, _polevl(zl, _ERFC_Q), _polevl(zl, _ERFC_S))
    e = np.fromiter(map(math.exp, (-zl * zl).tolist()), float, len(zl))
    y = np.zeros(zt.shape)
    y[live] = 0.5 * (e * p / q)
    np.subtract(1.0, y, out=y, where=x[tail] > 0.0)
    out[tail] = y
    return float(out) if out.ndim == 0 else out
