"""The universal formal group law over Z[b].

The exponential exp(t) = sum_i b_i t^(i+1) (with b_0 = 1) classifies the
universal formal group law via F(x, y) = exp(log x + log y), where log is
the compositional inverse of exp.  This module computes exp, log, F, the
multiplication-by-n series [n](t) = exp(n log t), and the coefficients
u_m of the [p]-series whose p-power-indexed members v_n generate the
Landweber ideals.  log is not inverted degree by degree: by Mishchenko's
theorem its coefficients are the classes of projective spaces divided by
their dimension plus one, which ``geometry`` already caches.  Every
composition is the power sum sum_k f_k g^k of ``TruncSeries.compose``.

Everything is truncated: partition weights at N, auxiliary degrees at
N + 2, which covers every coefficient that can be nonzero for classes of
dimension at most N.
"""

from __future__ import annotations

from functools import lru_cache

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
        self._exp = None
        self._log = None
        self._sum = None
        self._inverse = None

    # -- basic series -------------------------------------------------

    @property
    def exp(self) -> TruncSeries:
        """exp(t) = t + b_1 t^2 + b_2 t^3 + ..."""
        if self._exp is None:
            coeffs = {}
            for k in range(1, self.cap + 1):
                if k - 1 <= self.trunc:
                    coeffs[(k,)] = BPoly.gen(k - 1, trunc=self.trunc)
            self._exp = TruncSeries(
                ("t",), (self.cap,), self.cap, coeffs, trunc=self.trunc
            )
        return self._exp

    @property
    def log(self) -> TruncSeries:
        """Compositional inverse of exp, read off projective spaces.

        Mishchenko's theorem: log(t) = sum_n [P^(n-1)]/n t^n.  By Lagrange
        inversion the t^n coefficient is (1/n) [h^(n-1)] (sum_i b_i h^i)^(-n),
        which is row n - 1 of A^n in geometry's cached rows; the division
        by n is exact.
        """
        if self._log is None:
            # imported here: geometry imports lazard, which imports fgl
            from .geometry import _divided, _power_rows

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

    def _embed(self, f: TruncSeries, slot: int, vars=("x", "y")) -> TruncSeries:
        """Reindex a one-variable series onto one slot of a variable tuple."""
        n = len(vars)
        caps = (self.cap,) * n
        coeffs = {}
        for (k,), c in f.coeffs.items():
            exps = tuple(k if i == slot else 0 for i in range(n))
            coeffs[exps] = c
        return TruncSeries(vars, caps, self.cap, coeffs, trunc=self.trunc)

    # -- the group law ------------------------------------------------

    @property
    def fgl_sum(self) -> TruncSeries:
        """F(x, y) = exp(log x + log y), the universal formal sum."""
        if self._sum is None:
            u = self._embed(self.log, 0) + self._embed(self.log, 1)
            self._sum = self.exp.compose(u)
        return self._sum

    def apply_sum(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        """The formal sum a +_F b of two series in a common variable space."""
        cap = min(a.total_cap, b.total_cap)
        return self.fgl_sum.truncate_total(cap).substitute([a, b])

    @property
    def formal_inverse(self) -> TruncSeries:
        """The series i(t) with F(t, i(t)) = 0, solved degree by degree."""
        if self._inverse is None:
            t = self.t_var()
            inv = -t
            for k in range(2, self.cap + 1):
                fk = self.fgl_sum.truncate_total(k)
                h = fk.substitute([t.truncate_total(k), inv.truncate_total(k)])
                e = h.coeff((k,))
                if not e.is_zero():
                    inv = inv + t._shell({(k,): -e})
            self._inverse = inv
        return self._inverse

    def n_series(self, n: int) -> TruncSeries:
        """[n](t) = exp(n log t), for every integer n.

        ``verify fgl`` cross-checks the negative ones against the formal
        inverse route i([-n](t)).
        """
        if n not in self._n_cache:
            self._n_cache[n] = self.exp.compose(self.log * n)
        return self._n_cache[n]

    # -- Landweber coefficients ----------------------------------------

    @lru_cache(maxsize=None)
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
