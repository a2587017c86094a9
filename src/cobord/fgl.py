"""The universal formal group law over Z[b].

The exponential exp(t) = sum_i b_i t^(i+1) (with b_0 = 1) classifies the
universal formal group law via F(x, y) = exp(log x + log y), where log is
the compositional inverse of exp.  This module computes log, F, the
multiplication-by-n series [n](t) = exp(n log t), and the coefficients
u_m of the [p]-series whose p-power-indexed members v_n generate the
Landweber ideals.  log is not inverted degree by degree: by Mishchenko's
theorem its coefficients are the classes of projective spaces divided by
their dimension plus one, which ``geometry`` already caches.

Neither [n] nor F is a composition.  Both are read off one table, the
powers L_k = (log t)^k of ``TruncSeries.powers``, built once per context:

- [n](t) = sum_k n^k b_(k-1) L_k(t), so with the series b_(k-1) L_k kept
  on the context every [n] costs integer scaling and addition only;
- F(x, y) is the Taylor expansion of exp(log y + log x) in log x,
  F = sum_i L_i(x) D_i(y) with D_i(y) = sum_j C(i+j, i) b_(i+j-1) L_j(y).

Everything is truncated: partition weights at N, auxiliary degrees at
N + 2, which covers every coefficient that can be nonzero for classes of
dimension at most N.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb

from . import _backend
from .geometry import _divided, _power_rows
from .partitions import codec
from .series import BPoly, TruncSeries, aux_cap, DEFAULT_TRUNCATION


class FglContext:
    """Caches the FGL data for one truncation level.

    Immutable after construction; all series are computed on first use
    and shared, so treat the returned objects as read-only.
    """

    def __init__(self, trunc: int = DEFAULT_TRUNCATION):
        self.trunc = trunc
        self.cap = aux_cap(trunc)
        self._n_cache: dict[int, TruncSeries] = {}
        self._log = None
        self._sum = None
        self._exp_log_terms = None  # b_(k-1) L_k, k = 1 .. trunc + 1

    # -- basic series -------------------------------------------------

    @property
    def log(self) -> TruncSeries:
        """Compositional inverse of exp, read off projective spaces.

        Mishchenko's theorem: log(t) = sum_n [P^(n-1)]/n t^n.  By Lagrange
        inversion the t^n coefficient is (1/n) [h^(n-1)] (sum_i b_i h^i)^(-n),
        which is row n - 1 of A^n in geometry's cached rows; the division
        by n is exact.
        """
        if self._log is None:
            coeffs = {}
            for n in range(1, self.trunc + 2):  # t^n has weight n - 1
                row = _power_rows(n, self.trunc)[n - 1]
                coeffs[(n,)] = BPoly._raw(_divided(row, n, f"[P^{n - 1}]"), self.trunc)
            self._log = TruncSeries(
                ("t",), (self.cap,), self.cap, coeffs, trunc=self.trunc
            )
        return self._log

    def t_var(self) -> TruncSeries:
        return TruncSeries.variable(
            "t", ("t",), (self.cap,), self.cap, trunc=self.trunc
        )

    @cached_property
    def _log_powers(self) -> list[TruncSeries]:
        """L_k = (log t)^k for k <= N + 1, capped at t^(N+1): the t^(N+2)
        coefficient of L_k has weight N + 2 - k, and [n] and F multiply it
        by weight at least k - 1, so it never reaches them."""
        return self.log.truncate_total(self.trunc + 1).powers(self.trunc + 1)

    # -- the group law ------------------------------------------------

    @property
    def fgl_sum(self) -> TruncSeries:
        """F(x, y) = exp(log x + log y), the universal formal sum.

        F = sum_i L_i(x) D_i(y), with D_i(y) = exp^(i)(log y) / i!: each
        D_i is a sum of one-part products of b_(i+j-1) with the L_j, and
        each x-coefficient of L_i times each y-coefficient of D_i is one
        kernel product.
        """
        if self._sum is None:
            trunc, cap = self.trunc, self.cap
            powers = self._log_powers
            pack = codec(trunc)[0]
            top = trunc + 1  # exp stops at b_trunc t^(trunc+1)
            acc = {}
            for i in range(top + 1):
                d_i = {}  # y-exponent -> terms of D_i(y)
                for j in range(max(1 - i, 0), top - i + 1):
                    b = {pack((i + j - 1,)): comb(i + j, i)}  # b_0 packs to 0
                    for (c,), lj in powers[j].coeffs.items():
                        _backend.mul_into(d_i.setdefault(c, {}), b, lj._terms, trunc)
                for (a,), la in powers[i].coeffs.items():
                    for c, dc in d_i.items():
                        if a + c <= cap:
                            _backend.mul_into(acc.setdefault((a, c), {}), la._terms, dc,
                                              trunc)
            self._sum = TruncSeries(
                ("x", "y"), (cap, cap), cap,
                {exps: BPoly._raw(terms, trunc) for exps, terms in acc.items()},
                trunc=trunc,
            )
        return self._sum

    def apply_sum(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        """The formal sum a +_F b of two series in a common variable space."""
        cap = min(a.total_cap, b.total_cap)
        return self.fgl_sum.truncate_total(cap).substitute([a, b])

    def n_series(self, n: int) -> TruncSeries:
        """[n](t) = exp(n log t) = sum_k n^k b_(k-1) L_k(t), for every n.

        ``verify fgl`` cross-checks the negative ones against the formal
        inverse route i([n](t)) of ``checks.formal_inverse``.
        """
        if n not in self._n_cache:
            if self._exp_log_terms is None:
                powers = self._log_powers
                self._exp_log_terms = [
                    powers[k] * BPoly.gen(k - 1, trunc=self.trunc)
                    for k in range(1, self.trunc + 2)
                ]
            total = self._exp_log_terms[0]._shell({})
            for k, term in enumerate(self._exp_log_terms, start=1):
                total = total + term * n ** k
            self._n_cache[n] = self.t_var()._shell(total.coeffs)  # cap N + 2
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
        if n == 0:
            return BPoly.const(p, trunc=self.trunc)
        return self.n_series(p).coeff((m + 1,))


@lru_cache(maxsize=None)
def context(trunc: int = DEFAULT_TRUNCATION) -> FglContext:
    """Shared per-truncation context."""
    return FglContext(trunc)
