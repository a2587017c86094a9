"""The universal formal group law over Z[b].

The exponential exp(t) = sum_i b_i t^(i+1) (with b_0 = 1) classifies the
universal formal group law via F(x, y) = exp(log x + log y), where log is
the compositional inverse of exp.  This module computes log, F, the
multiplication-by-n series [n](t) = exp(n log t), and the coefficients
u_m of the [p]-series whose p-power-indexed members v_n generate the
Landweber ideals.  Nothing is inverted, composed or raised to a power:
every coefficient is one of the two Lagrange-inversion closed forms of
``geometry``, read off its cached rows [h^j] A^m.  log is the k = 1 case
of [t^m] (log t)^k, Mishchenko's [P^(m-1)]/m; each [n] is read whole; and
F(x, y) is the Taylor expansion of exp(log y + log x) in log x,
F = sum_i L_i(x) D_i(y) with L_k = (log t)^k and
D_i(y) = sum_j C(i+j, i) b_(i+j-1) L_j(y).

Everything is truncated at partition weight N: t^m has weight m - 1, so
t^(N+1) is the last exponent with a nonzero coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import _backend
from .geometry import log_power_coeff, n_series_coeff
from .partitions import codec
from .series import BPoly, TruncSeries, DEFAULT_TRUNCATION


class FglContext:
    """Caches the FGL data for one truncation level.

    Immutable after construction; all series are computed on first use
    and shared, so treat the returned objects as read-only.
    """

    def __init__(self, trunc: int = DEFAULT_TRUNCATION):
        self.trunc = trunc
        self.cap = trunc + 1  # t^m has weight m - 1, so t^(N+2) is always 0
        self._n_cache: dict[int, TruncSeries] = {}
        self._log = None
        self._sum = None

    def _series(self, coeffs) -> TruncSeries:
        return TruncSeries(("t",), self.cap, coeffs, trunc=self.trunc)

    # -- basic series -------------------------------------------------

    @property
    def log(self) -> TruncSeries:
        """Compositional inverse of exp, read off projective spaces.

        Mishchenko's theorem: log(t) = sum_m [P^(m-1)]/m t^m, the k = 1
        case of ``geometry.log_power_coeff``: row m - 1 of A^m over m.
        """
        if self._log is None:
            self._log = self._series({(m,): log_power_coeff(1, m, self.trunc)
                                      for m in range(1, self.cap + 1)})
        return self._log

    def t_var(self) -> TruncSeries:
        return self._series({(1,): BPoly.one(self.trunc)})

    # -- the group law ------------------------------------------------

    @property
    def fgl_sum(self) -> TruncSeries:
        """F(x, y) = exp(log x + log y), the universal formal sum.

        F = sum_i L_i(x) D_i(y), with D_i(y) = exp^(i)(log y) / i!: each
        D_i is a sum of one-part products of b_(i+j-1) with the L_j, and
        each x-coefficient of L_i times each y-coefficient of D_i is one
        kernel product.  The L_k coefficients come from
        ``geometry.log_power_coeff``.
        """
        if self._sum is None:
            trunc, cap = self.trunc, self.cap
            pack = codec(trunc)[0]
            # powers[k][m]: the terms of [t^m] L_k, for k <= m <= cap
            powers = [{0: {0: 1}}] + [
                {m: log_power_coeff(k, m, trunc)._terms for m in range(k, cap + 1)}
                for k in range(1, cap + 1)
            ]
            acc = {}
            for i in range(cap + 1):
                d_i = {}  # y-exponent -> terms of D_i(y), up to y^(cap - i)
                for j in range(max(1 - i, 0), cap - i + 1):
                    b = {pack((i + j - 1,)): comb(i + j, i)}  # b_0 packs to 0
                    for c, lj in powers[j].items():
                        if c <= cap - i:
                            _backend.mul_into(d_i.setdefault(c, {}), b, lj, trunc)
                for a, la in powers[i].items():
                    for c, dc in d_i.items():
                        if a + c <= cap:
                            _backend.mul_into(acc.setdefault((a, c), {}), la, dc, trunc)
            self._sum = TruncSeries(
                ("x", "y"), cap,
                {exps: BPoly._raw(terms, trunc) for exps, terms in acc.items()},
                trunc=trunc,
            )
        return self._sum

    def apply_sum(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        """The formal sum a +_F b of two series in a common variable space.

        The whole F(x, y) of this context, to total degree N + 1, is built
        (once, then cached) before it is cut to the operands' total cap:
        operands capped far below N + 1 still pay for the full F.  A caller
        that needs only a low-degree sum should use a context of that
        truncation, as ``checks.verify_presentation`` does.
        """
        cap = min(a.total_cap, b.total_cap)
        return self.fgl_sum.truncate_total(cap).substitute([a, b])

    def n_series(self, n: int) -> TruncSeries:
        """[n](t) = exp(n log t), each coefficient ``geometry.n_series_coeff``.

        ``verify fgl`` cross-checks the negative ones against the formal
        inverse route i([n](t)) of ``checks.formal_inverse``.
        """
        if n not in self._n_cache:
            self._n_cache[n] = self._series({(m,): n_series_coeff(n, m, self.trunc)
                                             for m in range(1, self.cap + 1)})
        return self._n_cache[n]

    # -- Landweber coefficients ----------------------------------------

    def landweber_coeffs(self, p: int) -> tuple[BPoly, ...]:
        """u_0, ..., u_{N-1} with [p](t) = sum_m u_m t^(m+1); u_0 = p."""
        series = self.n_series(p)
        return tuple(series.coeff((m + 1,)) for m in range(self.trunc))

    def v(self, p: int, n: int) -> BPoly:
        """v_n = u_{p^n - 1}, the essential generator in degree 1 - p^n."""
        m = p ** n - 1
        if m > self.trunc:
            raise ValueError(
                f"v_{n} for p={p} has weight {m}, beyond truncation {self.trunc}"
            )
        return self.n_series(p).coeff((m + 1,))  # v_0 = u_0 = p


@lru_cache(maxsize=None)
def context(trunc: int = DEFAULT_TRUNCATION) -> FglContext:
    """Shared per-truncation context."""
    return FglContext(trunc)
