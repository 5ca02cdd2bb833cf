"""Standard normal CDF and quantile: numpy ports of Cephes ndtr and ndtri.

The routines are Moshier's Cephes `ndtr` and `ndtri`, with the `erf` and
`erfc` that `ndtr` calls ("Methods and Programs for Mathematical
Functions", 1989): the same coefficient tables, the same branch points and
the same Horner evaluation (`polevl`/`p1evl`), written as numpy
multiply-then-add over every lane of an array.  scipy.special's `ndtr` and
`ndtri` still run this code, and on x86-64 the ports return its bits
exactly: numpy's `+ - * / sqrt` are correctly rounded, and `exp` and `log`
are taken lane by lane through Python's `math`, which is the C library's
libm, as the compiled Cephes calls them.  numpy's own SIMD `exp` and `log`
differ from libm by an ulp on some lanes, so they are not used.  A build
that contracts `a * b + c` to a fused multiply-add (GCC's default on
aarch64, for one) rounds Cephes differently, so its scipy may differ from
these ports by an ulp.

Both functions take and return float64 arrays of any shape and raise no
floating-point warning: NaN lanes give NaN, as does an `ndtri` argument
outside [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

_SQRT1_2 = 7.07106781186547524401e-1  # M_SQRT1_2
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# erfc(x) = exp(-x^2) P(x) / Q(x), 1 <= x < 8
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (  # leading 1 implied (p1evl)
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
# erfc(x) = exp(-x^2) R(x) / S(x), x >= 8
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (  # leading 1 implied
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# erf(x) = x T(x^2) / U(x^2), |x| <= 1
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (  # leading 1 implied
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)

# ndtri, |y - 0.5| <= 3/8
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (  # leading 1 implied
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# ndtri tail, z = sqrt(-2 log y) in [2, 8)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (  # leading 1 implied
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# ndtri tail, z = sqrt(-2 log y) in [8, 64)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (  # leading 1 implied
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _table(*branches: tuple[tuple[float, ...], tuple[float, ...]]) -> np.ndarray:
    """Each branch's P and Q for _rational, shape (9, 2, branches).

    A branch is (P, Q) with Q's leading 1 implied, as Cephes p1evl reads
    it.  Writing that 1 out and padding both to degree 8 with leading zeros
    leaves every Horner step unchanged: for finite t, 0 * t + 0 is 0, 0 * t
    + c is c and 1 * t + c is t + c, all exact.
    """
    def padded(coef):
        return (0.0,) * (9 - len(coef)) + tuple(coef)

    table = np.array([[padded(p), padded((1.0,) + q)] for p, q in branches])
    return np.ascontiguousarray(table.transpose(2, 1, 0))


# branches of _erf_core: erf(a) for a < 1, as x T(x^2) / U(x^2); erfc(a) as
# exp(-a^2) P(a) / Q(a) for 1 <= a < 8 and exp(-a^2) R(a) / S(a) for a >= 8
_ERF_TABLE = _table((_ERF_T, _ERF_U), (_ERFC_P, _ERFC_Q), (_ERFC_R, _ERFC_S))
# branches of _ndtri: |y - 0.5| <= 3/8 in y2 = (y - 0.5)^2, then the tail
# in z = 1 / sqrt(-2 log y) for sqrt(-2 log y) in [2, 8) and in [8, 64)
_NDTRI_TABLE = _table((_NDTRI_P0, _NDTRI_Q0), (_NDTRI_P1, _NDTRI_Q1), (_NDTRI_P2, _NDTRI_Q2))
# _erf_core's branch points, Cephes erfc's: its polynomial branch stops below 1
_ERFC_EDGES = np.array([1.0, 8.0])
_CHUNK = 1 << 14  # lanes per pass, which bounds the gathered coefficients


def _rational(table: np.ndarray, branch: np.ndarray, t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m * P(t) / Q(t), each lane with the P and Q of its branch in table,
    both evaluated by Horner's rule as Cephes polevl and p1evl do."""
    coef = table.take(branch, axis=2)
    ans = coef[0] * t
    ans += coef[1]
    for c in coef[2:]:
        ans *= t
        ans += c
    return m * ans[0] / ans[1]


def _libm(f, x: np.ndarray) -> np.ndarray:
    """f (math.exp or math.log) applied lane by lane through libm."""
    return np.fromiter(map(f, x.tolist()), dtype=np.float64, count=x.size)


def _lanes(f, x) -> np.ndarray:
    """f applied to the flattened float64 lanes of x, _CHUNK at a time."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    if flat.size <= _CHUNK:
        return f(flat).reshape(x.shape)
    out = np.empty(flat.size)
    for start in range(0, flat.size, _CHUNK):
        out[start:start + _CHUNK] = f(flat[start:start + _CHUNK])
    return out.reshape(x.shape)


def _erf_core(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cephes erf(a) on the lanes below 1 and erfc(a) on the others, for
    a >= 0 or NaN; returns the values and the erf lanes.

    The three branches split at 1 and at 8 (_ERFC_EDGES).
    erfc is 0 where a * a > MAXLOG.  Lanes at 27 and above all are, so a is
    clamped there first, which keeps the square and Horner's rule finite.
    """
    branch = _ERFC_EDGES.searchsorted(a, side="right")  # NaN sorts last
    poly = branch == 0
    a = np.minimum(a, 27.0)
    sq = a * a
    m = np.where(poly, a, 0.0)
    live = np.flatnonzero(~poly & (sq <= _MAXLOG))
    m[live] = _libm(math.exp, -sq[live])
    return _rational(_ERF_TABLE, branch, np.where(poly, sq, a), m), poly


def _ndtr(a: np.ndarray) -> np.ndarray:
    x = a * _SQRT1_2
    z = np.abs(x)
    # Cephes ndtr takes 0.5 + 0.5 erf(x) for |x| < sqrt(1/2) and 0.5 erfc(|x|)
    # above, and erfc(z) itself is 1 - erf(z) for z < 1
    r, poly = _erf_core(z)
    y = 0.5 * np.where(poly, 1.0 - r, r)
    return np.where(z < _SQRT1_2, 0.5 + 0.5 * np.copysign(r, x), np.where(x > 0.0, 1.0 - y, y))


def _ndtri(y0: np.ndarray) -> np.ndarray:
    out = np.full(y0.size, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)  # below 0 or NaN where y0 is outside [0, 1]
    center = y > _EXP_M2
    tail = np.flatnonzero((y > 0.0) & (y <= _EXP_M2))
    # Horner variable: y2 = (y - 0.5)^2 in the center, z = 1 / x in the tail
    # with x = sqrt(-2 log y); 0 on lanes that take no branch
    t = np.zeros(y0.size)
    yc = y[center] - 0.5
    t[center] = yc * yc
    x = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    t[tail] = 1.0 / x
    branch = np.zeros(y0.size, dtype=np.intp)
    branch[tail] = np.where(x < 8.0, 1, 2)
    s = _rational(_NDTRI_TABLE, branch, t, t)
    out[center] = (yc + yc * s[center]) * _S2PI
    x = x - _libm(math.log, x) / x - s[tail]
    out[tail] = np.where(upper[tail], x, -x)
    return out


def ndtr(a) -> np.ndarray:
    """Standard normal CDF, Cephes ndtr."""
    return _lanes(_ndtr, a)


def ndtri(y) -> np.ndarray:
    """Standard normal quantile, Cephes ndtri: -inf at 0, +inf at 1."""
    return _lanes(_ndtri, y)
