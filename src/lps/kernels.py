"""Heat and Poisson kernels, their derivatives, and L^2-in-time norms.

The heat kernel of the Laguerre semigroup in closed form is

    G_t(x, y) = (sinh 2t)^(-d-|a|) exp(-coth(2t)(|x|^2+|y|^2)/2)
                * prod_i i_(a_i)(x_i y_i / sinh 2t),

with i_nu the scaled Bessel function z^(-nu) I_nu(z).  All time dependence is
routed through zeta = tanh t and eta = 1 - zeta, kept as separate arrays:
then 1/sinh 2t = (1+zeta) eta / (2 zeta), coth 2t = (1+zeta^2)/(2 zeta) and
e^(-2t) = eta/(1+zeta) are exact at both endpoints, and the Gaussian exponent
is assembled cancellation-free as

    -(zeta/2)(|x|^2+|y|^2) - |x-y|^2 (1+zeta) eta / (4 zeta),

so evaluation survives t -> 0 and t -> inf in log space.  Time integrals over
(0, inf) with measure dt or t dt are computed on zeta panels graded
dyadically toward t = 0, where integrands behave like zeta^(-a) exp(-c q/zeta),
and above zeta = 1/2 on panels in log t up to T_MAX, where they decay like
sums of exponentials e^(-lambda t) (ZetaGrid).

Poisson kernels arise by subordination.  For the vector-valued entries the
u-integral is transposed to the time side: with tau = t^2/4u,

    dP/dt (x,y)   = pi^(-1/2) int tau^(-1/2) exp(-t^2/4tau) dG/dtau (x,y) dtau,
    delta P (x,y) = t/(2 sqrt(pi)) int tau^(-3/2) exp(-t^2/4tau) delta G (x,y) dtau,

so a Poisson profile is a fixed matrix (independent of x, y) applied to the
matching heat entry h sampled on an inner tau grid with weights W.  Its time
integral has a closed form: the squared L^2(t dt) norm is h^T W M W h with,
in u = log tau,

    M = (1/pi) sech((u - u')/2)                      for d/dt,
    M = (tau tau')^(-1/2) (1/2pi) sech^2((u - u')/2)  for the space derivatives,

and the u-kernel is factored once as L L^T by pivoted Cholesky, so the norm
is the length of the row h F with F = W L (times tau^(-1/2)).  The CZ scan
norms Poisson kinds that way and never forms their profiles.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .basis import PLAIN, BasisFamily, differentiated, eigenvalue, ell_table
from .measure import AlphaParam, as_alpha, as_points, pi_alpha_rules
from .specfun import composite_legendre_rule, log_bessel_mantissa_ratio

__all__ = [
    "SingularPairError",
    "ZetaGrid",
    "KindSpec",
    "KIND_TABLE",
    "KernelKind",
    "default_kinds",
    "heat_kernel_closed",
    "heat_kernel_spectral",
    "heat_kernel_schlafli",
    "poisson_kernel",
    "subordination_u_rule",
    "kernel_values",
]

LOG_FLOOR = -700.0  # below this, exp underflows; the value is exactly 0 in doubles
# pairs per block of czcheck.scan, rows per zero-padded block of the Poisson
# Gram product and, at least, pairs per czscan worker span: fixed-shape
# products keep the BLAS summation order, and hence the report bytes,
# independent of the batching
PAIR_BLOCK = 32


class SingularPairError(ValueError):
    """Raised when a kernel is requested on the diagonal x = y."""


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot of each row of the 2-d a with the same row of b, or with the 1-d b.

    matmul takes one BLAS dot per (1, n) @ (n, 1) product, the dot that np.dot
    and np.linalg.norm take of one row: a row's sum does not depend on how the
    rows were batched, so the report bytes do not either (einsum and sums over
    axis 1 round differently).
    """
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _eta_of_t(t) -> np.ndarray:
    """1 - tanh t = 2 e^(-2t)/(1 + e^(-2t)), accurate for all t > 0."""
    e2 = np.exp(-2.0 * np.asarray(t, dtype=float))
    return 2.0 * e2 / (1.0 + e2)


def _graded_rule(levels: int, order: int):
    """Flat composite Gauss rule on (0, 1/2), panels dyadically graded toward 0."""
    nodes, weights = composite_legendre_rule(np.r_[0.0, 0.5 ** np.arange(levels, 0, -1)], order)
    return nodes.ravel(), weights.ravel()


# the top end of every ZetaGrid: TOP_PANELS equal Gauss panels in u = log t
# from t = atanh(1/2), where the zeta end stops, to T_MAX.  Past its peak a
# kernel decays like e^(-lambda_0 t) with lambda_0 = 2|alpha| + 2d >= 1, so the
# squared norm left out is below int_T_MAX^inf t e^(-2t) dt < 1e-33; the panels
# integrate t^(p-1) e^(-t), p = 1, 2, to 1e-15 at order 12
T_MAX = 40.0
TOP_PANELS = 12


class ZetaGrid:
    """Time nodes and weights on (0, T_MAX], in zeta = tanh t and eta = 1 - zeta.

    Up to zeta = 1/2 (t = atanh(1/2)) the nodes are Gauss-Legendre panels in
    zeta, graded dyadically toward zeta = 0 over `levels` panels.  Above it
    they are TOP_PANELS Gauss panels in u = log t up to T_MAX, the same for
    every grid; there eta comes from t (_eta_of_t), because 1 - zeta would
    cost up to all of its bits, and zeta rounds to 1.0 from t of about 19.
    wz is a weight in zeta and jacobian = dt/dzeta = 1/((1 + zeta) eta), so
    wz * jacobian is the weight in t (t w_u on the top panels).
    """

    def __init__(self, order: int = 12, levels: int = 40):
        if order < 2 or levels < 2:
            raise ValueError("grid needs order >= 2 and levels >= 2")
        self.order = order
        self.levels = levels
        z, wz = _graded_rule(levels, order)
        edges = np.linspace(math.log(math.atanh(0.5)), math.log(T_MAX), TOP_PANELS + 1)
        u, wu = (a.ravel() for a in composite_legendre_rule(edges, order))
        top = np.exp(u)
        top_zeta, top_eta = np.tanh(top), _eta_of_t(top)
        self.zeta = np.concatenate([z, top_zeta])
        self.eta = np.concatenate([1.0 - z, top_eta])
        self.t = np.concatenate([0.5 * (np.log1p(z) - np.log(1.0 - z)), top])
        self.jacobian = 1.0 / ((1.0 + self.zeta) * self.eta)
        # the top panels' weight in t is t w_u, and dzeta = (1 + zeta) eta dt
        self.wz = np.concatenate([wz, top * wu * (1.0 + top_zeta) * top_eta])
        for arr in (self.zeta, self.eta, self.wz, self.t, self.jacobian):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.zeta.size

    def norms(self, values, power: int) -> np.ndarray:
        """Norms in L^2((0, inf), t^(power-1) dt) of profiles on this grid, one
        per row, each from one dot (_row_dots)."""
        w = self.wz * self.t ** (power - 1) * self.jacobian
        sq = values * values
        return np.sqrt(_row_dots(sq.reshape(-1, self.n), w)).reshape(sq.shape[:-1])

    def refined(self) -> "ZetaGrid":
        """The same panels with twice the nodes per panel."""
        return ZetaGrid(2 * self.order, self.levels)


# Every kernel kind is a product of three choices: the derivative ("d" = d/dt,
# "h" = delta_i, "hStar" = delta_j^*, which only the modified kinds carry), the
# semigroup ("T" = heat, "P" = Poisson) and whether the semigroup is the
# modified one of coordinate j.  Every fact about a kind is derived from its
# choices in KindSpec, once.
_KIND_CHOICES = (
    ("d", "T", False), ("d", "P", False),
    ("h", "T", False), ("h", "P", False),
    ("d", "T", True), ("d", "P", True),
    ("h", "T", True), ("h", "P", True),
    ("hStar", "T", True), ("hStar", "P", True),
)


@dataclass(frozen=True)
class KindSpec:
    """The three choices of a kind and everything that follows from them."""

    deriv: str
    semigroup: str
    modified: bool

    def _name(self, prefix: str) -> str:
        # "hStar" puts its "Star" after the semigroup and the "mod" suffix
        return prefix + self.semigroup + ("mod" if self.modified else "") + self.deriv[1:]

    @property
    def tag(self) -> str:
        """Kernel tag: dT, hPmod, hTmodStar, ..."""
        return self._name(self.deriv[0])

    @property
    def gtag(self) -> str:
        """Tag of the matching square function: gVT, gHPmod, gHTmodStar, ..."""
        return self._name("gV" if self.deriv == "d" else "gH")

    @property
    def needs_i(self) -> bool:
        # a kind needs a coordinate j exactly when its semigroup is modified
        return self.deriv == "h"

    @property
    def time_power(self) -> int:
        # the kernel takes values in L^2(t^(p-1) dt): p = 1 for the
        # space-derivative heat kinds, p = 2 for every other kind
        return 1 if self.semigroup == "T" and self.deriv != "d" else 2

    @property
    def min_d(self) -> int:
        # delta_i on the modified semigroup of a different coordinate j
        return 2 if self.needs_i and self.modified else 1

    @property
    def default_coords(self) -> tuple:
        """(i, j) used where no coordinates are given: czscan and the gfun rows."""
        i = (2 if self.modified else 1) if self.needs_i else 0
        return i, (1 if self.modified else 0)


KIND_TABLE = {spec.tag: spec for spec in (KindSpec(*c) for c in _KIND_CHOICES)}


@dataclass(frozen=True)
class KernelKind:
    """One of the ten kinds, with coordinates i (derivative) and j (family).

    A kind names both a vector-valued kernel (tag dT, hPmod, ...) and the
    square function of that kernel (spec.gtag gVT, gHPmod, ...).
    """

    tag: str
    i: int = 0
    j: int = 0

    def __post_init__(self):
        if self.tag not in KIND_TABLE:
            raise ValueError(f"unknown kernel tag {self.tag!r}")
        spec = self.spec
        for name, role, value, used in (("i", "derivative", self.i, spec.needs_i),
                                        ("j", "semigroup", self.j, spec.modified)):
            if used and value < 1:
                raise ValueError(f"{self.tag} needs a {role} coordinate {name}")
            if not used and value:
                raise ValueError(f"{self.tag} takes no {role} coordinate, got {name}={value}")
        if spec.needs_i and spec.modified and self.i == self.j:
            raise ValueError(f"{self.tag} requires i != j (i = j is the Star kind)")

    def check_dimension(self, d: int):
        """Raise ValueError if a coordinate of the kind exceeds the dimension d."""
        for name, value in (("i", self.i), ("j", self.j)):
            if value > d:
                raise ValueError(
                    f"{self.tag}: coordinate {name}={value} exceeds the dimension d={d}")

    @property
    def spec(self) -> KindSpec:
        return KIND_TABLE[self.tag]

    @property
    def time_power(self) -> int:
        return self.spec.time_power

    @property
    def is_poisson(self) -> bool:
        return self.spec.semigroup == "P"

    @property
    def coord(self) -> int:
        """The coordinate the space derivative acts on: i for delta_i, j for delta_j^*."""
        return {"h": self.i, "hStar": self.j}.get(self.spec.deriv, 0)

    def input_family(self) -> BasisFamily:
        """The system the square function's input expands in."""
        return differentiated(self.j) if self.spec.modified else PLAIN

    @property
    def output_shifts(self) -> tuple:
        """ell_batch shifts of the system the derivative maps the input family to.

        d/dt keeps the input family, delta_i adds coordinate i to it, and
        delta_j^* takes the j-differentiated family back to the plain one.
        """
        if self.spec.deriv == "hStar":
            return ()
        shifts = self.input_family().shifts
        return (self.i,) + shifts if self.spec.deriv == "h" else shifts


def default_kinds(d: int) -> list:
    """Every kind that exists in dimension d, at its default coordinates."""
    return [KernelKind(tag, *spec.default_coords)
            for tag, spec in KIND_TABLE.items() if spec.min_d <= d]


def _orthant_points(d: int, p) -> np.ndarray:
    """as_points of points that must lie in the open positive orthant."""
    p, _ = as_points(d, p)
    if not (p > 0).all():
        raise ValueError("points must lie in the open positive orthant")
    return p


def _live_entries(acomp: np.ndarray, logg: np.ndarray):
    """Mask of the entries whose Bessel factors can matter (Ellipsis: all).

    For a >= -1/2, e^-z i_a(z) decreases from i_a(0) = 1/(2^a Gamma(a+1)),
    so where the Gaussian part logg plus those logs lies below
    LOG_FLOOR - 1 the entry underflows whatever the Bessel factors are.
    Below -1/2 there is no such bound.  The log unit of margin lets
    math.lgamma serve: an entry whose mask a last-bit change of the bound
    flips has G_t = 0 either way.
    """
    if acomp.min() < -0.5:
        return Ellipsis
    top = sum(-a * math.log(2.0) - math.lgamma(a + 1.0) for a in acomp)
    return logg + top > LOG_FLOOR - 1.0


class _HeatParts(NamedTuple):
    """What every kind's heat entry of one base reads, as (P, T) for pairs (P, d)
    at times (T,), shared by every pair, or (P, T), one row per pair."""

    x: np.ndarray
    y: np.ndarray
    acomp: np.ndarray  # components of the base, alpha or alpha + e_j
    inv_s: np.ndarray  # 1 / sinh 2t, (P, T), 1 where G_t is 0
    coth2t: np.ndarray
    sx: np.ndarray  # |x|^2, (P, 1)
    sy: np.ndarray
    z: np.ndarray  # x_i y_i / sinh 2t, (P, d, T), 1 where G_t is 0
    g: np.ndarray  # G_t of the base, exactly 0 where it underflows
    e2t: np.ndarray  # e^(-2t), shaped as the times
    ratio: np.ndarray  # ratio[i] = i_(a_i+1)(z_i) / i_(a_i)(z_i), (d, P, T)


def _heat_parts(base: AlphaParam, x: np.ndarray, y: np.ndarray, zeta, eta,
                chunk: int = 0) -> _HeatParts:
    """The kind-independent parts of G_t of the type index base: the one
    evaluation of the closed form, at times zeta, eta of shape (T,) or (P, T).

    Entries that underflow anyway skip the Bessel factors: their G_t and
    their ratios are 0.  G_t is exactly 0 wherever log G_t lies below
    LOG_FLOOR; a NaN log G_t means a failed evaluation, not an underflow,
    and raises.  With a chunk length (T,) times are cut to those from the
    first chunk of them that holds an entry that does not underflow: the
    entries of the chunks before it are exact zeros, and the parts describe
    the times zeta[start:] with start a multiple of chunk.
    """
    acomp = base.array()
    inv_s = 0.5 * (1.0 + zeta) * eta / zeta  # 1 / sinh 2t
    sx = np.sum(x * x, axis=1)[:, None]
    sy = np.sum(y * y, axis=1)[:, None]
    sep = np.sum((x - y) ** 2, axis=1)[:, None]
    core = -0.5 * zeta * (sx + sy) - 0.5 * sep * inv_s
    with np.errstate(divide="ignore"):
        log_s = np.log(2.0 * zeta) - np.log1p(zeta) - np.log(eta)
    logg = core - (len(acomp) + acomp.sum()) * log_s
    live = _live_entries(acomp, logg)
    if chunk and live is not Ellipsis:
        # no live entry at all leaves every chunk: argmax of all False is 0
        start = int(np.argmax(live.any(axis=0))) // chunk * chunk
        zeta, eta, inv_s, logg, live = (a[..., start:] for a in (zeta, eta, inv_s, logg, live))
    coth2t = 0.5 * (1.0 + zeta * zeta) / zeta
    # log G_t adds the Bessel mantissas
    z = x[:, :, None] * y[:, :, None] * inv_s[..., None, :]
    ratio = np.zeros((len(acomp),) + logg.shape)
    part = logg[live]
    for i, a in enumerate(acomp):
        logm, ratio[i][live] = log_bessel_mantissa_ratio(a, z[:, i, :][live])
        part = part + logm
    logg = np.full_like(logg, -np.inf)
    logg[live] = part
    if np.isnan(logg).any():
        raise FloatingPointError("heat kernel exponent is NaN")
    g = np.exp(logg, out=np.zeros_like(logg), where=logg > LOG_FLOOR)
    # where G_t is 0 the factors of _heat_entry are never used, and at the
    # smallest times of a deep grid 1/sinh(2t)^2 and z^2 overflow there: both
    # are set to 1 there, so only an entry in use can overflow
    dead = g == 0
    inv_s = np.where(dead, 1.0, inv_s)
    z = np.where(dead[:, None, :], 1.0, z)
    e2t = eta / (1.0 + zeta)
    return _HeatParts(x, y, acomp, inv_s, coth2t, sx, sy, z, g, e2t, ratio)


def _heat_entry(alpha: AlphaParam, kind: KernelKind, parts: _HeatParts) -> np.ndarray:
    """The heat entry of kind, from the parts of its base.

    A Poisson kind gives the heat entry it is subordinated from, which reads
    only its derivative, its modification and its coordinates.
    """
    x, y, acomp, inv_s, coth2t, sx, sy, z, g, e2t, ratio = parts
    spec = kind.spec
    if spec.deriv == "d":
        zr = np.zeros_like(g)
        for i in range(len(acomp)):
            zi = z[:, i, :]
            zr += zi * zi * ratio[i]
        factor = (
            -2.0 * coth2t * (len(acomp) + acomp.sum())
            + (sx + sy) * inv_s**2
            - 2.0 * coth2t * zr
        )
        if spec.modified:
            factor = factor - 2.0
    else:
        c = kind.coord
        xc = x[:, c - 1][:, None]
        yc = y[:, c - 1][:, None]
        if spec.deriv == "h":
            factor = xc * (1.0 - coth2t) + xc * yc * yc * ratio[c - 1] * inv_s**2
        else:  # hStar
            ac = alpha.components[c - 1]
            factor = (
                xc * xc * (1.0 + coth2t)
                - (2.0 * ac + 2.0)
                - xc * xc * yc * yc * ratio[c - 1] * inv_s**2
            )

    # the factor enters only where G_t > 0
    with np.errstate(under="ignore"):
        vals = np.multiply(factor, g, out=np.zeros_like(g), where=g > 0)
    if not spec.modified:
        return vals
    if spec.deriv == "hStar":
        return vals * e2t * y[:, kind.j - 1][:, None]
    return vals * e2t * (x[:, kind.j - 1] * y[:, kind.j - 1])[:, None]


@lru_cache(maxsize=1)
def _default_inner_grid() -> ZetaGrid:
    """The inner tau grid of every Poisson kind: 624 nodes, 13 chunks of _GRAM_CHUNK."""
    return ZetaGrid(order=12, levels=40)


def _subordination_matrix(outer: ZetaGrid, inner: ZetaGrid, time_derivative: bool) -> np.ndarray:
    """Matrix taking heat values on the inner tau grid to Poisson values on outer."""
    t = outer.t[:, None]
    tau = inner.t[None, :]
    w = (inner.wz * inner.jacobian)[None, :]
    with np.errstate(under="ignore"):
        damp = np.exp(-(t * t) / (4.0 * tau))
    if time_derivative:
        return w * damp / (math.sqrt(math.pi) * np.sqrt(tau))
    return w * damp * t / (2.0 * math.sqrt(math.pi) * tau**1.5)


# inner nodes per term of the Gram product, four panels of the inner grid.  One
# product over all nodes of an earlier 1200-node inner grid rounded about 40%
# of its entries differently under one and two OpenBLAS threads (OpenBLAS
# 0.3.31, Haswell kernels), and products over up to 300 nodes rounded alike;
# the chunks' terms are added in order
_GRAM_CHUNK = 48


@lru_cache(maxsize=2)
def _gram_factor(time_derivative: bool) -> np.ndarray:
    """F with ||P||^2 = ||h F||^2 for the Poisson entry P subordinated from heat values h.

    The u-kernel of the module docstring is factored by pivoted Cholesky
    (Harbrecht, Peters & Schneider 2012), stopping where every remaining
    diagonal entry is below 1e-16 of its constant diagonal; the inner
    weights, and tau^(-1/2) for the space derivatives, are folded into the
    rows.  The factor is built in np.longdouble (80-bit on x86): in doubles, its
    rounding reaches about 1e-13 of the kernel and the norms of cancelling
    rows (smoothness differences) by as much, where the extended build keeps
    them within about 2e-14.  F is returned read-only as
    (inner.n / _GRAM_CHUNK, _GRAM_CHUNK, rank).
    """
    inner = _default_inner_grid()
    # the u-kernel in tau, which needs no cosh: (2/pi) sqrt(tau tau') / (tau + tau')
    # for d/dt and (2/pi) tau tau' / (tau + tau')^2 for the space derivatives
    tau = inner.t.astype(np.longdouble)
    num, power = (np.sqrt(tau), 1) if time_derivative else (tau, 2)

    def column(i):
        return (2.0 / math.pi) * num * num[i] / (tau + tau[i]) ** power

    top = column(0)[0]
    diag = np.full(inner.n, top)
    cols = np.zeros((inner.n, inner.n), dtype=np.longdouble)  # row tails stay untouched pages
    rank, i = 0, 0  # the diagonal is constant: any node is the first pivot
    while diag[i] > 1e-16 * top:
        # the pivot's column of the remaining kernel; numpy's own long double
        # dot, with no BLAS threads, sums in one order
        col = column(i) - np.dot(cols[:, :rank], cols[i, :rank])
        cols[:, rank] = col / np.sqrt(diag[i])
        diag -= cols[:, rank] ** 2
        diag[i] = 0.0  # exact at a pivot, so rounding cannot pick it again
        rank += 1
        i = int(np.argmax(diag))
    scale = inner.wz * inner.jacobian
    if not time_derivative:
        scale = scale / np.sqrt(inner.t)
    f = (cols[:, :rank].astype(float) * scale[:, None]).reshape(-1, _GRAM_CHUNK, rank)
    f.flags.writeable = False  # shared by every scan of the process
    return f


def _gram_rows(heat: np.ndarray, time_derivative: bool) -> np.ndarray:
    """h F for heat values h on the inner grid: each row's length is its Poisson norm.

    The rows are taken PAIR_BLOCK at a time, zero-padded, as one batched
    product over the node chunks of F whose terms are summed in chunk order.
    """
    f = _gram_factor(time_derivative)
    # heat values cut to the trailing chunks of the grid (_heat_parts with
    # chunk _GRAM_CHUNK) meet the same chunks of F; the chunks left out would
    # add exact zeros to every sum
    chunks = heat.shape[1] // _GRAM_CHUNK
    f = f[f.shape[0] - chunks :]
    _, chunk, rank = f.shape
    out = np.empty((heat.shape[0], rank))
    for start in range(0, heat.shape[0], PAIR_BLOCK):
        block = heat[start : start + PAIR_BLOCK]
        rows = block.shape[0]
        if rows < PAIR_BLOCK:
            block = np.vstack([block, np.zeros((PAIR_BLOCK - rows, heat.shape[1]))])
        terms = np.matmul(block.reshape(PAIR_BLOCK, chunks, chunk).transpose(1, 0, 2), f)
        out[start : start + rows] = terms.sum(axis=0)[:rows]
    return out


def _kind_values(alpha, kinds, x, y, grids):
    """Yield (k, g, values): what scan norms of kinds[k] on grids[g], one row per pair.

    x and y are (npairs, d) arrays of off-diagonal point pairs.  A heat
    kind's values are its entries on grids[g], of shape (npairs, grids[g].n).
    A Poisson kind's are its Gram rows (see _gram_rows), of shape
    (npairs, rank): they do not depend on the grid and are yielded for every
    one.  The kinds are grouped by base, alpha or alpha + e_j, and one
    base's heat parts are held at a time: the parts on each grid serve its
    heat kinds, and the parts on the inner grid its Poisson kinds.  Each
    kind's values are yielded as soon as they exist, so a caller can reduce
    them before the next is made.
    """
    alpha = as_alpha(alpha)
    if not alpha.cz_eligible:
        raise ValueError("kernel entries require alpha in [-1/2, inf)^d")
    for kind in kinds:
        kind.check_dimension(alpha.d)
    x = _orthant_points(alpha.d, x)
    y = _orthant_points(alpha.d, y)
    if x.shape != y.shape:
        raise ValueError("x and y batches must have matching shapes")
    if np.any(np.all(x == y, axis=1)):
        raise SingularPairError("kernel entries are undefined on the diagonal x = y")
    by_base = {}
    for k, kind in enumerate(kinds):
        by_base.setdefault(kind.j if kind.spec.modified else 0, []).append(k)
    inner = _default_inner_grid()
    for j, members in by_base.items():
        base = alpha.shifted(j) if j else alpha
        heat = [k for k in members if not kinds[k].is_poisson]
        poisson = [k for k in members if kinds[k].is_poisson]
        if heat:
            for g, grid in enumerate(grids):
                parts = _heat_parts(base, x, y, grid.zeta, grid.eta)
                for k in heat:
                    yield k, g, _heat_entry(alpha, kinds[k], parts)
                del parts
        if poisson:
            parts = _heat_parts(base, x, y, inner.zeta, inner.eta, chunk=_GRAM_CHUNK)
            for k in poisson:
                rows = _gram_rows(_heat_entry(alpha, kinds[k], parts), kinds[k].spec.deriv == "d")
                for g in range(len(grids)):
                    yield k, g, rows
            del parts


def kernel_values(alpha, kind: KernelKind, x, y, grid: ZetaGrid) -> np.ndarray:
    """Batched kernel entries: values of shape (npairs, grid.n).

    x and y are (npairs, d) arrays of off-diagonal point pairs.  A Poisson
    kind's profiles are the heat entries it is subordinated from, on the
    inner grid, times the subordination matrix to grid.
    """
    if not kind.is_poisson:
        ((_, _, values),) = _kind_values(alpha, [kind], x, y, [grid])
        return values
    spec, inner = kind.spec, _default_inner_grid()
    heat = KernelKind(KindSpec(spec.deriv, "T", spec.modified).tag, kind.i, kind.j)
    ((_, _, values),) = _kind_values(alpha, [heat], x, y, [inner])
    return values @ _subordination_matrix(grid, inner, spec.deriv == "d").T


def _one_sample(alpha, t: float, x, y):
    """The checked arguments of a one-sample kernel call: alpha, and x and y as (1, d) arrays."""
    alpha = as_alpha(alpha)
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and positive, got {t}")
    x, y = _orthant_points(alpha.d, x), _orthant_points(alpha.d, y)
    if x.shape[0] != 1 or y.shape[0] != 1:
        raise ValueError(f"expected one point each for x and y, with {alpha.d} coordinates")
    return alpha, x, y


def _heat_closed(alpha: AlphaParam, t, x: np.ndarray, y: np.ndarray, j: int | None) -> np.ndarray:
    """G_t(x, y), or the modified kernel e^(-2t) x_j y_j G_t^(alpha+e_j)(x, y) of coordinate j.

    Pairs x, y (P, d) at times t of shape (T,) or (P, T), checked; the values
    are (P, T).  Each entry depends only on its own pair and time.
    """
    parts = _heat_parts(alpha if j is None else alpha.shifted(j), x, y, np.tanh(t), _eta_of_t(t))
    if j is None:
        return parts.g
    return parts.g * parts.e2t * x[:, j - 1, None] * y[:, j - 1, None]


def heat_kernel_closed(alpha, t: float, x, y, j: int | None = None) -> float:
    """Heat kernel G_t(x, y) (or its modified variant for coordinate j) in closed form."""
    alpha, x, y = _one_sample(alpha, t, x, y)
    return float(_heat_closed(alpha, np.array([[t]], dtype=float), x, y, j)[0, 0])


def heat_kernel_spectral(alpha, t: float, x, y, cutoff: int) -> float:
    """Partial spectral sum of the heat kernel through levels |k| <= cutoff."""
    alpha, x, y = _one_sample(alpha, t, x, y)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    return float(_heat_spectral(alpha, np.array([t]), x, y, cutoff)[0])


def _heat_spectral(alpha: AlphaParam, t: np.ndarray, x: np.ndarray, y: np.ndarray,
                   cutoff: int) -> np.ndarray:
    """heat_kernel_spectral at samples (t[s], x[s], y[s]): t (n,), x and y (n, d), checked.

    One table per coordinate serves every sample: columns s and n + s are x[s]
    and y[s].  Each sample then convolves its per-coordinate level products
    and sums e^(-t lam) over the levels on its own, so a sample's value does
    not depend on the others.
    """
    n = len(t)
    tables = ell_table(alpha, cutoff, np.vstack([x, y]))
    lam = eigenvalue(alpha, np.arange(cutoff + 1))
    out = np.empty(n)
    for s in range(n):
        level = None
        for table in tables:
            v = table[:, s] * table[:, n + s]
            level = v if level is None else np.convolve(level, v)
        out[s] = np.sum(np.exp(-t[s] * lam) * level[: cutoff + 1])
    return out


def heat_kernel_schlafli(alpha, t: float, x, y, order: int = 64) -> float:
    """Heat kernel via the Schlafli-type integral against Pi_alpha, for alpha in [-1/2, inf)^d."""
    alpha, x, y = _one_sample(alpha, t, x, y)
    return float(_heat_schlafli(alpha, np.array([t]), x, y, pi_alpha_rules(alpha, order))[0])


def _heat_schlafli(alpha: AlphaParam, t: np.ndarray, x, y, rules) -> np.ndarray:
    """heat_kernel_schlafli at samples (t[s], x[s], y[s]): t (n,), x and y (n, d), checked.

    The exponent -(1/zeta + zeta)(|x|^2 + |y|^2)/4 - sum_c p_c x_c y_c (1/zeta - zeta)/2
    sums over coordinates, so the sum on Pi_alpha's tensor rule is a product of sums on
    the rules of pi_alpha_rules, each row in logs shifted by its maximum, sample by sample.
    """
    zeta = np.tanh(t)
    expo = -0.25 * (1.0 / zeta + zeta) * np.sum(x * x + y * y, axis=1)
    with np.errstate(under="ignore", divide="ignore"):  # a sum that underflows gives 0
        for (p, w), xy in zip(rules, (x * y).T):
            e = np.multiply.outer(0.5 * (zeta - 1.0 / zeta) * xy, p)
            top = e.max(axis=1)
            expo += top + np.log(np.sum(w * np.exp(e - top[:, None]), axis=1))
        return ((1.0 - zeta * zeta) / (2.0 * zeta)) ** (alpha.d + alpha.total) * np.exp(expo)


@lru_cache(maxsize=1)
def subordination_u_rule():
    """Quadrature (u_q, w_q) for (1/sqrt(pi)) int e^-u u^(-1/2) f(u) du.

    Substituting u = v^2 removes the endpoint singularity and turns the
    subordination factors exp(-c/u) into C-infinity functions of v; dyadically
    graded Legendre panels then converge to machine precision.  A generalized
    Gauss-Laguerre rule in u stalls near 1e-2 relative error on exactly the
    slowly-decaying modes the identity tests exercise.  The rule has 20 nodes
    on each panel: 24 levels graded toward v = 0, then panels doubling in
    width up to v = 14, where e^(-v^2) is below 1e-85.
    """
    edges = np.r_[0.5 ** np.arange(24, -1, -1), 2.0, 4.0, 8.0, 14.0]
    v, w = (a.ravel() for a in composite_legendre_rule(edges, 20))
    u, w = v * v, 2.0 * np.exp(-v * v) * w / math.sqrt(math.pi)
    u.flags.writeable = w.flags.writeable = False  # shared by every caller
    return u, w


def poisson_kernel(alpha, t: float, x, y, j: int | None = None) -> float:
    """Poisson kernel (or its modified variant for coordinate j) by subordination."""
    alpha, x, y = _one_sample(alpha, t, x, y)
    u, w = subordination_u_rule()
    tau = t * t / (4.0 * u)
    return float(np.sum(w * _heat_closed(alpha, tau[None, :], x, y, j)[0]))

