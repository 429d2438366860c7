"""Exact symbolic kernel.

Scalars are elements of the fraction field of a polynomial ring
ZZ[coordinates, generators], one ring per chart, reduced modulo a
triangular ideal of generator relations.  Generators come in two
flavours used throughout the corpus: sine/cosine pairs (relation
s^2 + c^2 - 1, derivations ds = c, dc = -s on the pair's own angle) and
square roots (relation W^2 - q, derivation dW = dq / (2W)).

Arithmetic in the field is exact; no floating point anywhere.  An
element is held as a pair of integer-coefficient polynomials, coprime,
whose integer coefficients have gcd 1 all together, with the
denominator's leading coefficient positive: a rational constant is
split into its numerator and denominator.  Each ``+``, ``*`` or ``/``
builds a normalized :class:`Expr`.  A polynomial is a :class:`Poly`, a
dict from a packed exponent integer to a nonzero int coefficient: each
variable has a 16-bit exponent field and one guard bit above it, the
first variable in the highest field, so the lex order is the integer
order, a monomial product is one integer add and a divisibility test
one mask test.  The two hot primitives of normalization work on these
dicts:

- reduction (:meth:`Chart._reduce_poly`) applies each rule g^2 -> rhs
  once, latest-declared generator first, with the powers of rhs cached
  per chart; a rule's rhs holds only earlier generators and rule-free
  cos, so the one pass reaches the canonical normal form;
- exact division (:func:`_divide`), in the lex order of the packed
  keys, so each quotient term is the remainder's leading term shifted
  by LM(f), its coefficient divided by LC(f) with ``divmod``.

A normal form needs gcd(n, d), and no polynomial is factored:
:meth:`Chart._gcd` first tries whether one divides the other, then takes
the heuristic gcd GCDHEU (integer gcds of values at a large integer,
read back in its base and accepted only when they divide, which proves
them), at ever larger integers until a candidate divides, which some
candidate does; gcds are memoized per chart, and lcms are built
pairwise from them.
:func:`_clear_denominators` puts a list of elements over the lcm of
their denominators, for the equations of :mod:`geosym.prolong`, the
coefficient rows of closure and the derivation rules alike.
A sum of products is built with :meth:`Chart.sum_products`: the
products are grouped by denominator, the groups combined over the lcm
of their denominators, and the sum normalized once; the normal form is
canonical, so the result is the one the ``+``/``*`` fold gives.
Generic-point checks (the cross-check of each zero normal form when it
is built, :meth:`Chart._reduce_checked`, and symbol ranks in
:mod:`geosym.prolong`) evaluate at seeded :class:`GenericPoint` s, each
drawn uniformly in GF(p) for its own prime p: 2^61 - 1, or a prime below
it where the chart's radicands are nonzero squares.  Integer
coefficients reduce mod any prime, so these evaluations meet no pole,
and a nonzero polynomial vanishes at such a point with probability
about its degree over p.  Symbol ranks of prolonged rows use the
truncated Taylor series at such points (:class:`TaylorMap`): the points
of one bound search carry distinct primes p_i, so by the Chinese
remainder theorem one map mod their product serves all of them.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import (Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

Rational = Union[int, Fraction]


class ExprError(Exception):
    """Base class for kernel errors."""


class DivisionByZero(ExprError):
    """Division by an expression that reduces to zero."""


class PoleError(ExprError):
    """Evaluation at a point where a denominator vanishes."""


class RelationViolation(ExprError):
    """A point assignment does not satisfy the generator relations."""


class KernelInconsistency(ExprError):
    """Ideal reduction and point evaluation disagree; signals a kernel bug."""


class ExprParseError(ExprError):
    """Malformed expression source string."""

    def __init__(self, message: str, line: int = 1, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_FIELD = 17  # bits per variable in a packed exponent: 16 for the exponent, one guard bit
_EXP = (1 << 16) - 1  # the largest exponent a field holds
_MAX_VARS = 256  # variables per chart: the fields that _GUARD covers
_GUARD = sum(1 << (_FIELD * i + 16) for i in range(_MAX_VARS))


class Poly(dict):
    """A polynomial with integer coefficients: a dict from packed
    exponent to nonzero int coefficient.

    The exponent of the chart's i-th of n variables sits in bits
    17 (n - 1 - i) to 17 (n - 1 - i) + 15 of the key, the bit above each
    field being a guard bit that is clear in every key.  So the first
    variable holds the highest field, lex order is integer order and the
    leading monomial is ``max(p)``; the product of two monomials is the
    sum of their keys.  A polynomial never changes once built: its hash
    and the OR of its keys (:attr:`bits`) are cached.

    Soundness of the packing.  Two fields below 2^16 sum to less than
    2^17, so a key sum never carries from one field into the next, and a
    field of the sum reaches 2^16 exactly when its guard bit is set.
    Each product checks the guard bits of its keys and raises
    :class:`KernelInconsistency` past exponent 2^16 - 1, so no exponent
    wraps.  For keys m and l with clear guard bits, m - l has no guard
    bit set exactly when every field of l is at most m's (a borrow sets
    the guard bit of the field it leaves): that is the divisibility test
    of :func:`_divide`.
    """

    __slots__ = ("_hash", "_bits")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(frozenset(self.items()))
            return h

    @property
    def bits(self) -> int:
        """The OR of the keys: a variable's field is nonzero exactly when
        the variable occurs, and holds a bit above its lowest exactly when
        some exponent of it is at least 2."""
        try:
            return self._bits
        except AttributeError:
            b = self._bits = functools.reduce(operator.or_, self, 0)
            return b

    @property
    def is_ground(self) -> bool:
        return not self or (len(self) == 1 and 0 in self)

    @property
    def is_one(self) -> bool:
        return len(self) == 1 and self.get(0) == 1

    @property
    def LC(self) -> int:
        """The leading coefficient in lex order; 0 for the zero polynomial."""
        return self[max(self)] if self else 0

    def __add__(self, other: Union["Poly", int]) -> "Poly":
        if not isinstance(other, Poly):
            other = _ground(other)
        if len(self) < len(other):
            self, other = other, self
        out = Poly(self)
        get = out.get
        for m, c in other.items():
            if v := get(m, 0) + c:
                out[m] = v
            else:
                del out[m]
        return out

    def __sub__(self, other: Union["Poly", int]) -> "Poly":
        if not isinstance(other, Poly):
            other = _ground(other)
        out = Poly(self)
        get = out.get
        for m, c in other.items():
            if v := get(m, 0) - c:
                out[m] = v
            else:
                del out[m]
        return out

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.items()})

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if not isinstance(other, Poly):
            return self.mul_ground(other)
        a, b = (self, other) if len(self) <= len(other) else (other, self)
        if not a:
            return Poly()
        if len(a) == 1:
            [(ma, ca)] = a.items()
            if not ma and ca == 1:
                return b
            out = Poly({ma + m: ca * c for m, c in b.items()})
        else:
            out = Poly()
            get = out.get
            terms = list(b.items())
            for ma, ca in a.items():
                for mb, cb in terms:
                    m = ma + mb
                    out[m] = get(m, 0) + ca * cb
            if 0 in out.values():
                out = Poly({m: c for m, c in out.items() if c})
        bits = functools.reduce(operator.or_, out, 0)
        if bits & _GUARD:
            raise KernelInconsistency(f"an exponent of a product exceeds {_EXP}")
        out._bits = bits
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        """p^k for k >= 0, by squaring, each product checked like any other."""
        if k < 0:
            raise ValueError(f"negative exponent {k} of a polynomial")
        if k == 1:
            return self
        out, base = _ONE, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def mul_ground(self, c: int) -> "Poly":
        return Poly({m: v * c for m, v in self.items()}) if c else Poly()

    def quo_ground(self, c: int) -> "Poly":
        """Each coefficient divided by c, which must divide it."""
        return Poly({m: v // c for m, v in self.items()})


def _ground(c: int) -> Poly:
    """The constant polynomial c."""
    return Poly({0: c}) if c else Poly()


_ONE = Poly({0: 1})


def _poly_dot(pairs: Iterable[Tuple[Poly, Poly]]) -> Poly:
    """The sum of the products p * q over the pairs, each product's terms
    added into one dict as they are multiplied out, with no product
    built on its own.  Like a product it raises past exponent 2^16 - 1:
    a key whose field overflowed keeps its guard bit (the packing's
    soundness note in :class:`Poly`), and only a term that cancels out
    can lose it, so the sum's keys are checked once."""
    out: Dict[int, int] = {}
    get = out.get
    for p, q in pairs:
        if len(p) > len(q):
            p, q = q, p
        terms = q.items()
        for mp, cp in p.items():
            for mq, cq in terms:
                m = mp + mq
                out[m] = get(m, 0) + cp * cq
    out = Poly({m: c for m, c in out.items() if c})
    if out.bits & _GUARD:
        raise KernelInconsistency(f"an exponent of a product exceeds {_EXP}")
    return out


@dataclass
class GeneratorSpec:
    """One adjoined algebraic generator.

    ``square_rhs`` is the reduced polynomial r with relation g^2 = r;
    it may only involve coordinates and earlier generators.
    """

    name: str
    kind: str  # "sin" | "cos" | "root"
    partner: Optional[str] = None  # for trig pairs: the other generator
    square_rhs: Optional["Expr"] = None  # None: no rule (cos, a root while radicands are parsed)


def trig_names(angle: str) -> Tuple[str, str]:
    """The names of the sin and cos generators of the coordinate ``angle``."""
    return f"sin_{angle}", f"cos_{angle}"


class Chart:
    """Ordered coordinates plus adjoined generators over ZZ.

    The constructor declares every variable, so a chart has one
    polynomial ring, and one layout of the packed exponents of its
    :class:`Poly` s, for its whole life.  The order is: coordinates, sin
    and cos of each angle of ``trig_pairs`` (a repeated angle counts
    once), then each ``(name, radicand)`` of ``roots``.  A radicand is a
    source string or a rational, parsed once all names are declared; it
    may use only the coordinates, the trig generators and earlier roots.
    So the relations form a triangular system: each relation and each
    derivative rule involves only variables declared before it.

    Soundness.  Each rule is set (:meth:`_relate`) in declaration order,
    a root's once its radicand is parsed.  During a parse the roots
    without a rule are free variables: reduction leaves them alone, and
    the zero cross-check of :meth:`_reduce_checked`, on throughout, gives
    them uniform values in GF(p) (:func:`_residues`), still a ring
    homomorphism.  A radicand holds only variables whose rules are set,
    so its normal form is final.  Setting a rule drops the cached
    relation and derivation rules and the sample pool, since a root's
    derivative and residue depend on its radicand.  The memo of gcds is
    kept: gcds are facts about ZZ[vars]; so is the shared zero of
    :meth:`zero`.
    """

    def __init__(self, coordinates: Sequence[str], trig_pairs: Iterable[str] = (),
                 roots: Iterable[Tuple[str, Union[str, Rational]]] = ()):
        names = list(coordinates)
        if len(set(names)) != len(names):
            raise ExprError(f"coordinate names not distinct: {names}")
        for n in names:
            if not n.isidentifier():
                raise ExprError(f"bad coordinate name: {n!r}")
        self.coordinates: List[str] = names
        self.generators: List[GeneratorSpec] = []
        self._gens_by_name: Dict[str, GeneratorSpec] = {}
        self._trig_pairs: Dict[str, Tuple[str, str]] = {}  # angle -> (sin, cos)
        self._derivation_cache: Dict = {}  # see :func:`_derivation_rules`
        for angle in trig_pairs:
            if angle not in names:
                raise ExprError(f"{angle!r} is not a coordinate of this chart")
            if angle not in self._trig_pairs:
                s_name, c_name = self._trig_pairs[angle] = trig_names(angle)
                self._declare(GeneratorSpec(s_name, "sin", partner=c_name))
                self._declare(GeneratorSpec(c_name, "cos", partner=s_name))
        roots = list(roots)
        for name, _ in roots:
            self._declare(GeneratorSpec(name, "root"))
        n = len(self.var_names)
        if n > _MAX_VARS:
            raise ExprError(f"a chart has at most {_MAX_VARS} variables, got {n}")
        self._index = {v: i for i, v in enumerate(self.var_names)}
        # variable i's exponent field starts at bit _shift[i]; the first is highest
        self._shift = [_FIELD * (n - 1 - i) for i in range(n)]
        self._gens = [Poly({1 << s: 1}) for s in self._shift]
        self._sample_pool: List[GenericPoint] = []
        self._check_residues: Optional[Tuple[List[int], int]] = None  # see _cross_check_point
        self._relations: Optional[List] = None  # see :meth:`_relation_powers`
        self._rewritable = 0  # set with _relations
        self._gcds: Dict = {}  # (f, g) -> (gcd, f / gcd, g / gcd), see :meth:`_gcd`
        self._zero: Optional[Expr] = None  # see :meth:`zero`
        for s_name, c_name in self._trig_pairs.values():
            self._relate(self._gens_by_name[s_name], 1 - self.var(c_name) ** 2)
        for name, radicand in roots:
            self._relate(self._gens_by_name[name], self._radicand(name, radicand))

    # -- ring bookkeeping -------------------------------------------------

    @property
    def var_names(self) -> List[str]:
        return self.coordinates + [g.name for g in self.generators]

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def _pack(self, exps: Sequence[int]) -> int:
        """The packed key of one exponent per variable."""
        if not all(0 <= e <= _EXP for e in exps) or len(exps) != len(self._shift):
            raise KernelInconsistency(f"exponents {tuple(exps)} do not fit the chart's packing")
        return sum(e << s for e, s in zip(exps, self._shift))

    def _unpack(self, m: int) -> Tuple[int, ...]:
        """One exponent per variable of the packed key m."""
        return tuple(m >> s & _EXP for s in self._shift)

    def _field(self, i: int) -> int:
        """The mask of variable i's exponent field."""
        return _EXP << self._shift[i]

    def _poly(self, terms: Mapping[Sequence[int], int]) -> Poly:
        """The polynomial with the coefficient terms[e] at the exponents e."""
        out: Dict[int, int] = {}
        for exps, c in terms.items():
            m = self._pack(exps)
            out[m] = out.get(m, 0) + c
        return Poly({m: c for m, c in out.items() if c})

    def _poly_str(self, p: Poly) -> str:
        """p in infix notation, terms in descending lex order, as in
        ``3*x**2*y - x + 1``."""
        if not p:
            return "0"
        parts = []
        for m in sorted(p, reverse=True):
            c = p[m]
            factors = [v if e == 1 else f"{v}**{e}"
                       for v, e in zip(self.var_names, self._unpack(m)) if e]
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            parts += [" - " if c < 0 else " + ", "*".join(factors)]
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def _diff(self, p: Poly, i: int) -> Poly:
        """The formal partial derivative of p by variable i."""
        s = self._shift[i]
        unit = 1 << s
        return Poly({m - unit: c * (m >> s & _EXP) for m, c in p.items() if m >> s & _EXP})

    # -- generator declaration -------------------------------------------

    def _radicand(self, name: str, source) -> "Expr":
        """The radicand of the root ``name``, parsed and checked.

        It must be a polynomial with integer coefficients in the variables
        declared before ``name``, so that the rule W^2 -> radicand stays
        in the chart's ring.  A radicand n / k with an integer k > 1 (say
        x/2) is rejected with the fix: adjoin a root V of k * n and use
        V / k, since sqrt(n / k) = sqrt(k * n) / k.  Pull polynomial
        denominators out the same way.  A ``root`` declaration in a model
        file, when the grammar gains one, inherits this rule.
        """
        radicand = self.expr(source)
        own = self._index[name]
        for p in (radicand._num, radicand._den):
            late = [v for i, v in enumerate(self.var_names)
                    if i >= own and p.bits & self._field(i)]
            if late:
                raise ExprError(f"radicand of {name!r} names {sorted(late)}; it may "
                                "use only the coordinates, trig generators and earlier roots")
        if radicand._den.is_ground and not radicand._den.is_one:
            k = radicand._den.LC
            raise ExprError(
                f"radicand of {name!r} has the rational content 1/{k}; adjoin a root "
                f"of {k}*({self._poly_str(radicand._num)}) instead and divide it by {k}")
        if not radicand._den.is_one:
            raise ExprError("radicand must be denominator-free")
        if radicand.is_zero():
            raise ExprError("radicand reduces to zero")
        if exact_sqrt(radicand) is not None:
            raise ExprError(
                f"radicand of {name!r} is a perfect square; use the field element"
            )
        return radicand

    def _declare(self, g: GeneratorSpec):
        if g.name in self.coordinates or g.name in self._gens_by_name:
            raise ExprError(f"duplicate variable name: {g.name!r}")
        if not g.name.isidentifier():
            raise ExprError(f"bad generator name: {g.name!r}")
        self.generators.append(g)
        self._gens_by_name[g.name] = g
        self._derivation_cache = {}

    def _relate(self, g: GeneratorSpec, rhs: "Expr"):
        """Give g the rule g^2 -> rhs.  The cached rules lack it, a root's
        derivative rule dW = d(rhs)/(2W) is new, and the residue of a root
        depends on its radicand, so the relation rules, the derivation
        rules (:func:`_derivation_rules`) and the sample pool, with its
        combined residues, are dropped; the memo of gcds and the shared
        zero (:meth:`zero`) are kept."""
        g.square_rhs = rhs
        self._relations = None
        self._derivation_cache = {}
        self._sample_pool = []
        self._check_residues = None

    def trig_pair(self, angle: str) -> Tuple["Expr", "Expr"]:
        if angle not in self._trig_pairs:
            raise ExprError(f"no trig pair declared for {angle!r}")
        s, c = self._trig_pairs[angle]
        return self.var(s), self.var(c)

    # -- expression construction -----------------------------------------

    def zero(self) -> "Expr":
        """The chart's zero, built on the first call and shared after it:
        an ``Expr`` is immutable, and 0/1 is the normal form under any
        set of relations."""
        if self._zero is None:
            self._zero = Expr(self, Poly(), _ONE)
        return self._zero

    def one(self) -> "Expr":
        return Expr(self, _ONE, _ONE)

    def const(self, x: Rational) -> "Expr":
        x = Fraction(x)
        return Expr(self, _ground(x.numerator), _ground(x.denominator))

    def var(self, name: str) -> "Expr":
        if name not in self._index:
            raise ExprError(f"unknown variable {name!r}")
        return Expr(self, self._gens[self._index[name]], _ONE)

    def expr(self, source) -> "Expr":
        """Coerce strings, numbers, or Exprs into this chart's field."""
        if isinstance(source, Expr):
            if source.chart is not self:
                raise ExprError("expression belongs to a different chart")
            return source
        if isinstance(source, (int, Fraction)):
            return self.const(source)
        if isinstance(source, str):
            return parse_expr(self, source)
        raise ExprError(f"cannot coerce {type(source).__name__} to Expr")

    def sum_products(self, terms: Iterable[Sequence[Union["Expr", Poly, Rational]]]) -> "Expr":
        """The sum over ``terms`` of the product of each term's factors
        (``Expr``, ``Poly``, int or ``Fraction``), normalized once.

        Each product's numerator and denominator are multiplied out
        unreduced, and a term with a zero factor is skipped.  The products
        are grouped by denominator polynomial and each group's numerators
        added; the groups are then combined over the lcm of their
        denominators, not their product, which would blow the numerator up
        before its one cancellation when many distinct denominators meet.

        A ``Fraction`` factor multiplies the numerator by its numerator
        and the denominator by its denominator.  A ``Poly`` factor p is
        the element p/1 of the chart's ring: it multiplies the numerator
        only, so a coefficient row (as :class:`~geosym.prolong.Equation`
        holds) enters the sum without an ``Expr`` of its own.  It need not
        be reduced; the zero polynomial skips its term like a zero
        ``Expr``, and a p in the relation ideal, being a numerator,
        never divides.

        Soundness.  The :class:`Expr` normal form is canonical (numerator
        reduced by the relations' Groebner basis, denominator free of
        quadratic generators, gcd and integer content cancelled,
        denominator's leading coefficient positive), so any
        grouping of the same sum gives the same ``_num`` and ``_den`` as
        the left fold of ``+`` and ``*``; a sum that cancels to zero is
        cross-checked (:meth:`_reduce_checked`) like every other zero.
        """
        terms = list(terms)
        if len(terms) == 1 and len(terms[0]) == 1 and isinstance(terms[0][0], Expr):
            return self.expr(terms[0][0])  # already normal: keep the object
        groups: Dict = {}  # denominator -> summed numerators
        for factors in terms:
            num, den, c = None, _ONE, 1
            for f in factors:
                if isinstance(f, Poly):
                    if not f:
                        break
                    num = f if num is None else num * f
                elif not isinstance(f, Expr):
                    c *= f
                    if not c:
                        break
                elif f.chart is not self:
                    raise ExprError("expression belongs to a different chart")
                elif not f._num:
                    break
                elif num is None:
                    num, den = f._num, f._den
                else:
                    num, den = num * f._num, den * f._den
            else:
                num = _ONE if num is None else num
                if c.numerator != 1:
                    num = num.mul_ground(c.numerator)
                if c.denominator != 1:
                    den = den.mul_ground(c.denominator)
                groups[den] = groups[den] + num if den in groups else num
        if not groups:
            return self.zero()
        if len(groups) == 1:  # one denominator: no lcm
            den, num = next(iter(groups.items()))
            return Expr(self, num, den)
        den, quotients = self._lcm(list(groups))
        return Expr(self, sum((n * q for n, q in zip(groups.values(), quotients)),
                              Poly()), den)

    # -- gcds and lcms -----------------------------------------------------

    def _gcd(self, f: Poly, g: Poly) -> Tuple[Poly, Poly, Poly]:
        """(h, f / h, g / h) for h = gcd(f, g) in ZZ[vars], integer content
        included, with a positive leading coefficient; f and g are not
        both zero.  Memoized per chart: a gcd is a fact about ZZ[vars], so
        no rule change drops the memo.  See :meth:`_cofactors`."""
        key = (f, g)
        out = self._gcds.get(key)
        if out is None:
            out = self._gcds[key] = self._cofactors(f, g)
        return out

    def _cofactors(self, f: Poly, g: Poly) -> Tuple[Poly, Poly, Poly]:
        """:meth:`_gcd` without the memo.  When the shorter polynomial
        divides the other (:func:`_divide`), it is the gcd; when one is
        ground, the gcd is the integer gcd of all coefficients.  Otherwise
        the contents are split off, c = gcd(content f, content g), and the
        primitive parts go to :meth:`_heuristic_gcd`, which always answers."""
        if len(f) < len(g):
            h, qg, qf = self._cofactors(g, f)
            return h, qf, qg
        if not g:
            return (f, _ONE, g) if f.LC > 0 else (-f, _ground(-1), g)
        if (q := _divide(f, g)) is not None:
            return (g, q, _ONE) if g.LC > 0 else (-g, -q, _ground(-1))
        if g.is_ground or f.is_ground:
            c = math.gcd(*g.values(), *f.values())
            return _ground(c), f.quo_ground(c), g.quo_ground(c)
        cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
        f1 = f if cf == 1 else f.quo_ground(cf)
        g1 = g if cg == 1 else g.quo_ground(cg)
        h, qf, qg = self._heuristic_gcd(f1, g1)
        c = math.gcd(cf, cg)
        return (h if c == 1 else h.mul_ground(c), qf if cf == c else qf.mul_ground(cf // c),
                qg if cg == c else qg.mul_ground(cg // c))

    def _heuristic_gcd(self, f: Poly, g: Poly) -> Tuple[Poly, Poly, Poly]:
        """(h, f / h, g / h) for the primitive f and g, neither ground, and
        their primitive gcd h with a positive leading coefficient, by
        GCDHEU (B. Char, K. Geddes, G. Gonnet, JSC 1989), with as many
        points as it takes.  The first occurring variable x is set to an
        integer xi >= 2 min(|f|, |g|) + 2 (|.| the largest absolute
        coefficient), the gcd gamma of the images in ZZ[y], y
        the other variables, is taken by :meth:`_cofactors`, and its
        coefficients are written in the symmetric base xi, digit e the
        coefficient of x^e (:func:`_interpolate`): a G with G(xi) = gamma
        and coefficients at most xi/2 in absolute value.  Its primitive
        part C is accepted when it divides f and g (:func:`_divide`);
        else xi grows.

        Soundness: an accepted C is the gcd.  Let F be the one of f, g of
        least |.|, so that |F| + 1 <= xi/2.  By Cauchy's bound every
        complex root of a nonzero y-coefficient of F, a polynomial in x,
        and so of any divisor u of one in ZZ[x], is below |F| + 1 in
        absolute value; so |u(xi)| > (xi/2)^deg u over those roots, and
        u(xi) is not zero.  So F's image is not zero (its lex-leading
        y-coefficient is not), nor is gamma.  C divides f and g, so the
        primitive gcd is h = C k for a primitive k with a positive leading
        coefficient.  h(xi) divides both images, so C(xi) k(xi) divides
        gamma = c C(xi), c the content of G, and k(xi) divides the integer
        c: it is an integer K with 0 < |K| <= |c| <= xi/2.  The lex-leading
        y-coefficient of k divides that of F, so it does not vanish at xi,
        and since k(xi) is free of y, so is k.  Then k, in ZZ[x], divides
        every y-coefficient of F, and deg k >= 1 would give |K| >
        (xi/2)^deg k >= xi/2.  So k is a primitive integer: k = 1.

        Termination: some point is accepted.  Write f = h a and g = h b,
        a and b coprime.  h(xi) is not zero (above), so gamma = +-h(xi) e
        for e = gcd(a(xi), b(xi)) in ZZ[y].  If a and b are both free of
        x, e = 1.  Else r = Res_x(a, b) is a nonzero element of ZZ[y] of
        the form A a + B b, A and B in ZZ[x, y], and putting xi for x
        shows that e divides r.  In the same way, were e of positive
        degree in a y_j, it would divide the image at xi of the nonzero
        R = Res_{y_j}(a, b), which is free of y_j, so that image would be
        zero: xi would be a root of a nonzero coefficient of R in ZZ[x],
        so |xi| < 1 + |R|.  Past those xi, e is an integer dividing r, so
        |e| <= |r|, and once xi > 2 |r| |h| as well, G = +-e h: its
        coefficients are below xi/2 and its degree in x is deg_x h <= top.
        The primitive part of G is h, which divides f and g and is
        accepted.  xi at least doubles per try, so the tries number at
        most log_2 (2 |r| |h| + max_j |Res_{y_j}(a, b)|) + 1."""
        bits = f.bits | g.bits
        shift = (bits.bit_length() - 1) // _FIELD * _FIELD
        top = min(_degree(f, shift), _degree(g, shift))  # deg_x of the gcd at most
        xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
        while True:
            gamma = self._cofactors(_evaluate(f, shift, xi), _evaluate(g, shift, xi))[0]
            h = _interpolate(gamma, shift, xi, top)
            if h is not None:
                h = h.quo_ground(_content(h))
                if h.is_one:
                    return h, f, g
                if (qg := _divide(g, h)) is not None and (qf := _divide(f, h)) is not None:
                    return h, qf, qg
            xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011  # the GCDHEU paper's growth

    def _lcm(self, polys: Sequence[Poly]) -> Tuple[Poly, List[Poly]]:
        """(l, [l / p for p in polys]) for the lcm l of the nonzero
        ``polys`` in ZZ[vars] with a positive leading coefficient, integer
        contents included, built pairwise: l <- l * (p / gcd(l, p))
        (:meth:`_gcd`).  The quotients are exact divisions
        (:func:`_divide`)."""
        lcm = _ONE
        for p in polys:
            lcm = lcm * (p if lcm.is_one else self._gcd(p, lcm)[1])
        if lcm.LC < 0:
            lcm = -lcm
        return lcm, [_divide(lcm, p) for p in polys]

    def _cancel(self, n: Poly, d: Poly) -> Tuple[Poly, Poly]:
        """(n, d) divided by gcd(n, d) (:meth:`_gcd`, which first tries
        whether d divides n) and by their common integer content, signed so
        that d's leading coefficient is positive.  A ground d needs only
        the integer content."""
        if not d.is_ground:
            _, n, d = self._gcd(n, d)
        c = math.gcd(*d.values())
        if c != 1:
            c = math.gcd(c, *n.values())
        if d[max(d)] < 0:
            c = -c
        return (n, d) if c == 1 else (n.quo_ground(c), d.quo_ground(c))

    # -- reduction modulo the relation ideal ------------------------------

    def _relation_powers(self) -> List[Tuple[int, List]]:
        """(variable index of g, [1, rhs, rhs^2, ...]) for each rule
        g^2 -> rhs, latest-declared g first, built once per set of rules
        together with ``_rewritable``, the mask of the ruled generators'
        exponent bits that stand for 2 and more; :meth:`_reduce_poly`
        extends each list of powers as it needs them.  :meth:`_relate`
        drops the cache."""
        if self._relations is None:
            self._relations = [
                (self._index[g.name], [_ONE, g.square_rhs._num])
                for g in reversed(self.generators) if g.square_rhs is not None]
            self._rewritable = sum((_EXP - 1) << self._shift[i] for i, _ in self._relations)
        return self._relations

    def _reduce_poly(self, p):
        """Normal form of p modulo the relation ideal, in one pass over the
        rules, latest-declared generator first: each term c * m * g^e with
        e >= 2 becomes c * m * g^(e mod 2) * rhs^(e // 2), the power taken
        from :meth:`_relation_powers`.  p itself is returned when no term
        has a rewritable power.

        Soundness.  A rule's rhs holds only coordinates, generators
        declared before g, and cos generators, which have no rule (sin's
        rhs is 1 - cos^2).  So rewriting by g's rule raises only exponents
        of generators whose rules come later in the pass, and no later
        rewrite raises g's: after the pass every ruled generator has
        degree < 2 in every term, the fixpoint of repeated rewriting.  In
        the lex order that ranks generators above coordinates, later ones
        above earlier and each sin above its cos, the rules' leading
        monomials are the g^2, pairwise coprime, so the rules are a
        Groebner basis and that normal form is canonical: rewriting in any
        order gives the same polynomial.
        """
        relations = self._relation_powers()
        if not p.bits & self._rewritable:
            return p
        terms = p
        for idx, powers in relations:
            shift = self._shift[idx]
            high = (_EXP - 1) << shift  # the bits of exponents of g of 2 and more
            if not terms.bits & high:
                continue
            out: Dict[int, int] = {}
            get = out.get
            for m, c in terms.items():
                if not m & high:
                    out[m] = get(m, 0) + c
                    continue
                k = (m >> shift & _EXP) >> 1
                while len(powers) <= k:
                    powers.append(powers[-1] * powers[1])
                base = m - (k << shift + 1)  # g^e becomes g^(e mod 2)
                for pm, pc in powers[k].items():
                    mm = base + pm
                    out[mm] = get(mm, 0) + c * pc
            terms = Poly({m: c for m, c in out.items() if c})
            if terms.bits & _GUARD:
                raise KernelInconsistency(f"an exponent of a reduction exceeds {_EXP}")
        return terms

    def _reduce_checked(self, p):
        """Normal form of p (:meth:`_reduce_poly`), with a nonzero p that
        reduces to zero cross-checked: p must vanish at the first two
        points of the chart's pool of :class:`GenericPoint` s, whose primes
        p_1 and p_2 differ.  It is evaluated once, mod p_1 p_2, at the
        residues that read each point's residues mod its prime
        (:meth:`_cross_check_point`); reduction mod p_i is a ring
        homomorphism, so lane i of the value is the value at point i, and
        the value is nonzero exactly when one lane is.  A p that reduces to
        zero lies in the relation ideal, which vanishes at every pool
        point, so no point is skipped.  A nonzero value raises
        :class:`KernelInconsistency`; a true zero maps to zero, so the
        check never raises falsely.  The zero polynomial itself needs no
        check."""
        r = self._reduce_poly(p)
        if not r and p and _poly_mod(p, *self._cross_check_point()):
            raise KernelInconsistency(
                "reduction reports zero but evaluation is nonzero; kernel bug")
        return r

    def _derationalize(self, num, den):
        """Multiply by conjugates until den is free of quadratic generators.

        Processed in reverse declaration order so that replacement
        polynomials (which only involve earlier generators) cannot
        reintroduce a generator already cleared.
        """
        for g in reversed(self.generators):
            if g.square_rhs is None:
                continue
            unit = 1 << self._shift[self._index[g.name]]
            if not den.bits & unit:
                continue
            # den = a + b*g with a, b free of g (den is reduced: degree <= 1
            # in g), and its conjugate a - b*g
            conj = Poly({m: -c if m & unit else c for m, c in den.items()})
            den = self._reduce_poly(den * conj)
            num = self._reduce_poly(num * conj)
            if not den:
                raise ExprError(
                    f"zero divisor met while clearing {g.name!r} from a denominator; "
                    "the relation ideal is not prime"
                )
        return num, den

    # -- admissible point sampling ----------------------------------------

    def sample_point(self, rng: random.Random) -> Dict[str, Fraction]:
        """Random rational values of the coordinates and trig generators,
        for exact evaluation (:meth:`Expr.evaluate`) where a real point
        is needed, such as the sign of :func:`~geosym.geometry.volume_root`.

        Trig pairs are sampled from rational circle points, so
        sin^2 + cos^2 = 1 holds exactly.  Root generators get no value.
        The points of the zero cross-check and of symbol ranks are not
        these: they are drawn in GF(p) (:class:`GenericPoint`).
        """
        point = {x: Fraction(rng.randint(2, 19), rng.randint(1, 7))
                 for x in self.coordinates}
        for g in self.generators:
            if g.kind == "sin":
                t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                point[g.name] = 2 * t / (1 + t * t)
                point[g.partner] = (1 - t * t) / (1 + t * t)
        return point

    def _check_pool(self, k: int) -> List["GenericPoint"]:
        """The first k pool points, of distinct primes."""
        while len(self._sample_pool) < k:
            seed = _POOL_SEED + len(self._sample_pool)
            taken = [p.prime for p in self._sample_pool]
            self._sample_pool.append(GenericPoint.sample(self, seed, taken))
        return self._sample_pool[:k]

    def _cross_check_point(self) -> Tuple[List[int], int]:
        """The residues mod M = p_1 p_2 of the first two pool points,
        combined (:func:`_crt_residues`), and M; built once per pool."""
        if self._check_residues is None:
            self._check_residues = _crt_residues(self._check_pool(2))
        return self._check_residues


PRIME = 2 ** 61 - 1  # the first prime of the chain the sample points draw from
_MAX_PRIMES = 64
_POOL_SEED = 0x5EED  # seed of the first zero cross-check point
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as witnesses, a proof
    of primality for every n below 3.1 * 10^23 (Sorenson and Webster
    2015), so for every candidate below 2^61; above that bound a strong
    probable-prime test."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _prime(i: int) -> int:
    """The i-th prime of the search: 2^61 - 1, then the primes below it."""
    if i == 0:
        return PRIME
    p = _prime(i - 1) - 2  # primes past 2 are odd
    while not _is_prime(p):
        p -= 2
    return p


def _crt_basis(primes: Sequence[int]) -> Tuple[int, List[int]]:
    """The modulus M = p_1 ... p_r of distinct primes and the idempotents
    e_i of Z/M = GF(p_1) x ... x GF(p_r): e_i is 1 mod p_i and 0 mod every
    other p_j (Chinese remainder theorem), so sum_i r_i e_i is the residue
    mod M that reads r_i mod each p_i."""
    if not primes or len(set(primes)) != len(primes):
        raise ExprError(f"the Chinese remainder theorem needs distinct primes, got {primes}")
    modulus = math.prod(primes)
    return modulus, [modulus // p * pow(modulus // p, -1, p) for p in primes]


def _crt_residues(points: Sequence["GenericPoint"]) -> Tuple[List[int], int]:
    """One residue mod M = p_1 ... p_r per chart variable, reading point
    i's residue mod its prime p_i (the primes distinct), and M."""
    modulus, basis = _crt_basis([p.prime for p in points])
    return [sum(r * e for r, e in zip(lanes, basis)) % modulus
            for lanes in zip(*(p.residues for p in points))], modulus


def _sqrt_mod(q: int, p: int) -> Optional[int]:
    """A square root of q mod the odd prime p, or None when q is not a
    square: q^((p+1)/4) when p = 3 mod 4, otherwise the root at most
    p // 2 that Tonelli-Shanks finds."""
    q %= p
    if p % 4 == 3:
        w = pow(q, (p + 1) // 4, p)
        return w if w * w % p == q else None
    if q == 0:
        return 0
    if pow(q, (p - 1) // 2, p) != 1:
        return None  # Euler's criterion: q is no square
    s, e = p - 1, 0  # p - 1 = s * 2^e, s odd
    while not s & 1:
        s, e = s >> 1, e + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, w, t = pow(z, s, p), pow(q, (s + 1) // 2, p), pow(q, s, p)
    while t != 1:  # t has order 2^i with i < e
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << e - i - 1, p)
        e, c = i, b * b % p
        w, t = w * b % p, t * c % p
    return min(w, p - w)


def _poly_mod(p: Poly, residues: Sequence[int], modulus: int) -> int:
    """Value mod ``modulus`` (a prime, or a product of primes as in
    :func:`_crt_residues`) of a polynomial of the chart's ring at one
    residue per variable.

    The packed fields are read two at a time: variables 2j and 2j + 1
    share one mask (the last variable is alone when their number is odd),
    so a term costs one mask and one multiply per pair.  The value mod
    ``modulus`` of a pair's bits, kept in place, is the product of its
    two powers; it is memoized for this call only, in one dict for all
    pairs, whose masks are disjoint, so distinct pairs' nonzero bits never
    collide and no value outlives the residues it was computed from.  The
    terms are summed as integers and reduced once, at the end."""
    n = len(residues)
    pairs = []
    for i in range(0, n, 2):
        fields = [(_FIELD * (n - 1 - j), residues[j]) for j in range(i, min(i + 2, n))]
        pairs.append((sum(_EXP << s for s, _ in fields), fields))
    values: Dict[int, int] = {}  # a pair's bits, in place -> the value they stand for
    total = 0
    for m, coeff in p.items():
        for mask, fields in pairs:
            if f := m & mask:
                v = values.get(f)
                if v is None:
                    v = 1
                    for s, r in fields:
                        v = v * pow(r, f >> s & _EXP, modulus)
                    v = values[f] = v % modulus
                coeff *= v
        total += coeff
    return total % modulus


_ORDER_BITS = 16  # bits per field of a packed multi-index: orders below 2^16


def _series_key(gamma: Sequence[int]) -> int:
    """The packed key |gamma| R^n + sum_i gamma_i R^(n-1-i), R = 2^16, of
    a multi-index of n entries below R: keys add like multi-indices and
    sort by degree first."""
    n = len(gamma)
    return sum(g << _ORDER_BITS * (n - i) for i, g in enumerate((sum(gamma), *gamma)))


class TaylorMap:
    """Truncated Taylor series at :class:`GenericPoint` s of distinct
    primes p_1, ..., p_r, all at once mod their product M (``modulus``).

    Sends a polynomial p of the chart's ring to its Taylor coefficients
    T_gamma(p) = d^gamma p(x0) / gamma! for |gamma| <= ``order``, as a
    dict from the packed key of gamma (:func:`_series_key`) to a nonzero
    residue mod M.  Each variable's value x0 is the residue
    mod M that reads, mod each p_i, point i's residue
    (:func:`_crt_residues`).  The variables' series are: a coordinate
    x0 + t; sin and cos in closed form, the k-th derivative cycling
    through s0, c0, -s0, -c0; a root W of W^2 = q degree by degree, its
    degree-d part W_d from 2 W0 W_d = q_d - sum_{0<e<d} W_e W_(d-e) (W0
    is nonzero mod each prime, :func:`_residues` resamples otherwise, so
    2 W0 is a unit mod M; a non-unit raises).

    :meth:`extend` raises the order (to at most 2^16 - 1).  Each memoized
    series records the order it is complete to, and a read computes only
    the degrees above it: the degree-d part of a monomial m' x is the sum
    over the terms g of m' of g times the degree-(d - |g|) part of x,
    whose series is held per degree.  A read returns the memo itself.

    Soundness.  At one point the series satisfy every generator relation
    and every derivation rule up to the truncation, so the map is a ring
    homomorphism from the coordinate ring to GF(p)[[t]] / m^(order+1)
    that commutes with each d/dx_i up to the truncation.  Its constant
    terms are the point's residues, so order 0 is evaluation at the
    point.  The degree-d part of a truncated product depends only on the
    factors' parts of degree at most d, so an extended series equals the
    series computed afresh at the higher order.  Reduction mod p_i is a
    ring homomorphism from Z/M onto GF(p_i), and each step here (sums,
    products, inverses of units) commutes with it, so read mod p_i (lane
    i) this map is point i's own map, and read mod a divisor of M the map
    of the points whose primes divide it.
    """

    def __init__(self, chart: Chart, points: Sequence["GenericPoint"], order: int):
        self._res, self.modulus = _crt_residues(points)
        self._chart, n = chart, chart.dim
        self._degree = _ORDER_BITS * n  # a key's degree is its bits from here up
        self._units = [_series_key([int(j == i) for j in range(n)]) for i in range(n)]
        self.order = -1
        # packed monomial -> (its series, the index where each degree starts)
        self._monos: Dict[int, Tuple[Dict[int, int], List[int]]] = {0: ({0: 1}, [0])}
        self._memo: Dict[Poly, List] = {}  # p -> [its series, the order complete to]
        self._vars: Dict[int, List[List[Tuple[int, int]]]] = {}  # field shift -> terms per degree
        self._inv_fact = [1]
        self._trig = {}  # generator -> (angle index, derivatives at the point mod 4)
        for angle, (s, c) in chart._trig_pairs.items():
            s0, c0 = self._res[chart._index[s]], self._res[chart._index[c]]
            j = chart.coordinates.index(angle)
            self._trig[s], self._trig[c] = (j, (s0, c0, -s0, -c0)), (j, (c0, -s0, -c0, s0))
        self.extend(order)

    def extend(self, order: int) -> None:
        """Raise the map's order to ``order`` (a lower one changes nothing):
        the variables' series gain their new degrees now, the memoized
        series when they are next read."""
        if order >= 1 << _ORDER_BITS:
            raise ExprError(f"Taylor order {order} does not fit a packed multi-index")
        lo = self.order + 1
        if order < lo:
            return
        self.order = order
        chart, res, modulus, inv_fact = self._chart, self._res, self.modulus, self._inv_fact
        for k in range(len(inv_fact), order + 1):
            inv_fact.append(inv_fact[-1] * pow(k, -1, modulus) % modulus)
        one_starts = self._monos[0][1]
        one_starts += [1] * (order + 1 - len(one_starts))
        for i, name in enumerate(chart.var_names):
            terms = self._vars.setdefault(chart._shift[i], [])
            for d in range(lo, order + 1):
                if i < chart.dim:
                    part = {0: res[i]} if d == 0 else {self._units[i]: 1} if d == 1 else {}
                elif name in self._trig:
                    j, cycle = self._trig[name]
                    part = {d * self._units[j]: cycle[d % 4] * inv_fact[d]}
                elif d == 0:
                    part = {0: res[i]}
                else:  # root: W^2 = q, so 2 W_0 W_d = q_d - sum_{0<e<d} W_e W_(d-e)
                    q = self(chart._gens_by_name[name].square_rhs._num)
                    part = {g: v for g, v in q.items() if g >> self._degree == d}
                    for e in range(1, d):
                        for g, u in terms[e]:
                            for h, v in terms[d - e]:
                                part[g + h] = part.get(g + h, 0) - u * v
                    inv = pow(2 * res[i], -1, modulus)
                    part = {g: v * inv for g, v in part.items()}
                terms.append([(g, r) for g, v in part.items() if (r := v % modulus)])

    def _monomial(self, m: int) -> Tuple[Dict[int, int], List[int]]:
        """The series of the monomial with packed key m, complete to the
        map's order and filled in ascending degree, and the index in it
        where each degree starts: m is m' times its last variable x (the
        lowest nonzero field), and its degree d is the sum over e <= d of
        m''s degree-e terms times x's degree-(d - e) terms."""
        entry = self._monos.get(m)
        if entry is None:
            entry = self._monos[m] = ({}, [])
        series, starts = entry
        if len(starts) <= self.order:
            shift = ((m & -m).bit_length() - 1) // _FIELD * _FIELD
            low, low_starts = self._monomial(m - (1 << shift))
            bounds = low_starts + [len(low)]
            var = self._vars[shift]
            modulus = self.modulus
            for d in range(len(starts), self.order + 1):
                starts.append(len(series))
                acc: Dict[int, int] = {}
                get = acc.get
                for e in range(d + 1):
                    part = var[d - e]
                    if part:
                        for g, u in islice(low.items(), bounds[e], bounds[e + 1]):
                            for h, v in part:
                                k = g + h
                                acc[k] = get(k, 0) + u * v
                for k, v in acc.items():
                    if r := v % modulus:
                        series[k] = r
        return entry

    def __call__(self, p: Poly) -> Dict[int, int]:
        """Taylor coefficients of a polynomial of the chart's ring."""
        entry = self._memo.get(p)
        if entry is None:
            entry = self._memo[p] = [{}, -1]
        series, done = entry
        if done < self.order:
            modulus = self.modulus
            acc: Dict[int, int] = {}
            get = acc.get
            for monom, coeff in p.items():
                terms, starts = self._monomial(monom)
                c = coeff % modulus
                for g, v in islice(terms.items(), starts[done + 1], None):
                    acc[g] = get(g, 0) + c * v
            for g, v in acc.items():
                if r := v % modulus:
                    series[g] = r
            entry[1] = self.order
        return series


def _residues(chart: Chart, rng: random.Random, prime: int) -> Optional[List[int]]:
    """One residue mod ``prime`` per chart variable, drawn from ``rng``, or
    None when a root generator's radicand is zero or not a square there.

    A coordinate is uniform in GF(prime); so is a root without a rule
    yet, a free variable while the chart's radicands are parsed.  A trig
    pair is (2t, 1 - t^2)/(1 + t^2) for a uniform t, drawn again while
    1 + t^2 = 0 (which has roots only at a prime 1 mod 4), so
    sin^2 + cos^2 = 1 holds.  A root W becomes the square root
    :func:`_sqrt_mod` of the residue of its radicand, so its relation
    holds too, and W is nonzero, hence a unit in the Taylor series of
    :class:`TaylorMap`."""
    n = len(chart.var_names)
    residues = [rng.randrange(prime) for _ in chart.coordinates]
    for g in chart.generators:
        if g.kind == "sin":
            t = rng.randrange(prime)
            while not (d := (1 + t * t) % prime):
                t = rng.randrange(prime)
            inv = pow(d, -1, prime)
            residues += [2 * t * inv % prime, (1 - t * t) * inv % prime]
        elif g.kind == "root" and g.square_rhs is None:
            residues.append(rng.randrange(prime))
        elif g.kind == "root":
            # the radicand holds no later variable: those get the value 0
            q = _poly_mod(g.square_rhs._num, residues + [0] * (n - len(residues)), prime)
            w = _sqrt_mod(q, prime) if q else None
            if w is None:
                return None
            residues.append(w)
    return residues


@dataclass
class GenericPoint:
    """Seeded sample point of a chart: one residue per chart variable in
    GF(``prime``) (:func:`_residues`), the prime, and the seed.

    Soundness.  The residues satisfy every generator relation mod the
    prime, so evaluating a polynomial at them is a ring homomorphism from
    the coordinate ring, whose coefficients are integers, to GF(prime);
    its kernel contains the relation ideal, whose rules are monic.  A
    true zero therefore maps to zero: a check that flags a nonzero image
    never flags a true zero.  Ranks of evaluated matrices can only drop.

    A nonzero element seldom maps to zero, because the draws are
    uniform.  Let f be a polynomial with a coefficient the prime does
    not divide, of degree deg_x in each coordinate x and deg_pair in the
    sin and cos of each trig pair.  Times (1 + t^2)^deg_pair for each
    pair, f is a polynomial in the uniform draws of total degree at most
    sum_x deg_x + 2 sum_pairs deg_pair, and not the zero polynomial, since
    t -> (2t, 1 - t^2)/(1 + t^2) is a birational map onto the circle.  So
    f vanishes at the point with probability at most
    (sum_x deg_x + 2 sum_pairs deg_pair) / p (Schwartz 1980; Zippel 1979),
    with p - 2 for p where 1 + t^2 = 0 has two roots, which are not drawn.
    With root generators the same holds for f's norm, the product of its
    conjugates under W -> -W, and the draws that give a radicand no
    nonzero square root are drawn again, which at most multiplies the
    probability by 1 / P(a draw is kept).  The upper bounds of
    :func:`~geosym.prolong.solution_bound` never depend on this, only
    their tightness does, and so does the chance that the zero
    cross-check of :meth:`Chart._reduce_checked` misses a kernel fault.
    The elimination of :func:`~geosym.prolong.solution_bound` keeps one
    pivot set for its points and drops a point where a reduced row's
    least entry vanishes.  A surviving point's pivots are those of an
    elimination at it alone, and a generic point is never dropped: while
    all points share the generic pivots, each point's reduced row is the
    image of the generic one, so its entry vanishes at a generic point
    only when it does at every point.  So a point is dropped only where
    a nonzero reduced polynomial vanishes, which by the bound above is
    rare at p near 2^61.

    The points of one bound search carry distinct primes (``taken``), so
    one :class:`TaylorMap` mod the product of their primes holds all of
    them; so do the two zero cross-check points, evaluated as one mod the
    product of theirs (:meth:`Chart._cross_check_point`).
    """

    seed: int
    residues: List[int]
    prime: int

    @staticmethod
    def sample(chart: Chart, seed: int, taken: Collection[int] = ()) -> "GenericPoint":
        """The first point that the ``random.Random(seed)`` stream draws
        (:func:`_residues`) whose roots have nonzero square radicands mod
        the first prime of the chain 2^61 - 1, then the primes below it
        (:func:`_prime`), that is not in ``taken``; the stream starts over
        at the next such prime only when it yields no such point (a
        constant radicand, such as 3 or -1, that is not a square mod the
        prime never does).  On a chart without roots that is the stream's
        first point at the first untaken prime.  A nonsquare rational is a
        square mod half of all primes, so k such radicands need about 2^k
        primes."""
        untaken = (p for p in map(_prime, count()) if p not in taken)
        for prime in islice(untaken, _MAX_PRIMES):
            rng = random.Random(seed)
            for _ in range(200):
                residues = _residues(chart, rng, prime)
                if residues is not None:
                    return GenericPoint(seed, residues, prime)
        raise ExprError(f"no sample point for seed {seed} whose roots have "
                        f"nonzero square radicands mod any of {_MAX_PRIMES} primes")


class Expr:
    """Normal-form element of the chart's differential field.

    Immutable.  Construction always normalizes: both polynomials, with
    integer coefficients, are reduced modulo the relation ideal, the
    denominator is cleared of quadratic generators, the gcd and the
    common integer content are cancelled, and the sign is fixed so the
    denominator's leading coefficient is positive.  Field-equal
    expressions therefore share a representation, and an element is zero
    exactly when its numerator is.  The gcd is taken by
    :meth:`Chart._gcd` and cancelled by exact division
    (:meth:`Chart._cancel`); nothing is factored.
    Build a sum of products with :meth:`Chart.sum_products`, which
    normalizes once (products grouped by denominator, groups combined
    over the lcm of their denominators) and, the form being canonical,
    gives the same ``_num`` and ``_den`` as the fold of ``+`` and ``*``.
    """

    __slots__ = ("chart", "_num", "_den")

    def __init__(self, chart: Chart, num, den):
        """Normalize num/den.

        Cancelling the gcd (:meth:`Chart._cancel`) is sound: ZZ[vars] is a
        UFD, and :meth:`Chart._gcd` returns gcd(n, d), integer content
        included, with n and d divided by it exactly (:func:`_divide`);
        each answer of GCDHEU is proved by those divisions, and GCDHEU
        always answers.  The divisor g of d is free of
        quadratic generators, as d is, so the quotient n / g of the
        reduced n stays reduced.  The normal form is unique: a coprime
        pair is determined by its quotient up to a rational factor,
        integer coefficients with content gcd 1 leave only the factor -1,
        and the sign fix (positive leading coefficient of d) removes it.

        A numerator that is not the zero polynomial but reduces to zero is
        cross-checked once, by :meth:`Chart._reduce_checked`.  Such a
        numerator lies in the relation ideal, which vanishes at every pool
        point whatever the denominator's value there, so the denominator
        is not evaluated.
        """
        self.chart = chart
        d = chart._reduce_poly(den)
        if not d:
            raise DivisionByZero("division by an expression that reduces to zero")
        n = chart._reduce_checked(num)
        if n:
            n, d = chart._cancel(*chart._derationalize(n, d))
        else:
            d = _ONE
        self._num = n
        self._den = d

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        """True iff the reduced numerator is the zero polynomial (a zero
        normal form was cross-checked when it was built)."""
        return not self._num

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_one(self) -> bool:
        return self._num == self._den

    def is_constant(self) -> bool:
        return self._den.is_ground and (not self._num or self._num.is_ground)

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ExprError("expression is not a rational constant")
        if not self._num:
            return Fraction(0)
        return Fraction(self._num.LC, self._den.LC)

    def equals(self, other) -> bool:
        other = self.chart.expr(other)
        return (self - other).is_zero()

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            return self.chart.expr(other)
        if isinstance(other, (int, Fraction)):
            return self.chart.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self._num, self._den, o._num, o._den
        return Expr(self.chart, n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.chart, -self._num, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self._num, self._den, o._num, o._den
        return Expr(self.chart, n1 * d2 - n2 * d1, d1 * d2)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Expr(self.chart, self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by an expression that reduces to zero")
        return Expr(self.chart, self._num * o._den, self._den * o._num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.chart.one() / self ** (-k)
        return Expr(self.chart, self._num ** k, self._den ** k)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.chart.const(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        """A constant hashes as its ``Fraction``, which it equals; any
        other element by the cached hashes of its two polynomials."""
        if self.is_constant():
            return hash(self.as_fraction())
        return hash((self._num, self._den))

    # -- calculus ---------------------------------------------------------

    def differentiate(self, coordinate: str) -> "Expr":
        """Formal partial derivative using the generator derivative rules:
        (n/d)' = (s n' d - n s d') / (s d^2).  A constant's derivative is
        the chart's shared zero, with no rules looked up."""
        ch = self.chart
        if coordinate not in ch.coordinates:
            raise ExprError(f"{coordinate!r} is not a coordinate of this chart")
        if self.is_constant():
            return ch.zero()
        n, d = self._num, self._den
        s, rules = _derivation_rules(ch, coordinate, [n, d])
        dn, dd = (_poly_total_derivative(ch, p, rules) for p in (n, d))
        return Expr(ch, dn * d - n * dd, s * d * d)

    def evaluate(self, point: Mapping[str, Rational]) -> Fraction:
        """Exact rational value at a point.

        The point must give values to the variables occurring in the
        expression (others may be left out) and, for each generator it
        gives, to the variables of its relation, which must hold.
        """
        pt = {k: Fraction(v) for k, v in point.items()}
        _check_relations(self.chart, pt)
        return _eval_pair(self.chart, self._num, self._den, pt)

    # -- display ----------------------------------------------------------

    def __repr__(self):
        num = self.chart._poly_str(self._num)
        if self._den.is_one:
            return num
        return f"({num})/({self.chart._poly_str(self._den)})"


def _check_relations(chart: Chart, point: Mapping[str, Fraction]):
    for g in chart.generators:
        if g.square_rhs is None or g.name not in point:
            continue
        rhs = _eval_pair(chart, g.square_rhs._num, g.square_rhs._den, point)
        if point[g.name] ** 2 != rhs:
            raise RelationViolation(f"relation of generator {g.name!r} violated at the point")


def _eval_pair(chart: Chart, num: Poly, den: Poly, point: Mapping[str, Fraction]) -> Fraction:
    """Exact value of num/den at a rational point giving values to the
    variables that occur; raises PoleError where the denominator
    vanishes."""
    names = chart.var_names
    occurring = num.bits | den.bits
    missing = [v for i, v in enumerate(names)
               if v not in point and occurring & chart._field(i)]
    if missing:
        raise ExprError(f"point missing values for {missing}")
    vals = [point.get(v) for v in names]
    dv = _eval_poly(chart, den, vals)
    if not dv:
        raise PoleError("denominator vanishes at the point")
    return _eval_poly(chart, num, vals) / dv


def _eval_poly(chart: Chart, p: Poly, vals) -> Fraction:
    total = Fraction(0)
    for m, coeff in p.items():
        term = coeff
        for v, e in zip(vals, chart._unpack(m)):
            if e:
                term = term * v ** e
        total = total + term
    return total


def _content(p: Poly) -> int:
    """The gcd of p's integer coefficients, signed like its leading
    coefficient (lex: that of the max key), so that p divided by it is
    primitive with a positive leading coefficient."""
    c = math.gcd(*p.values())
    return c if p[max(p)] > 0 else -c


def _divide(p: Poly, f: Poly) -> Optional[Poly]:
    """p / f as a fresh polynomial when f divides p over ZZ, else None.
    Every exact quotient of the kernel is taken by it: the check of each
    gcd candidate and its cofactors (:meth:`Chart._gcd`), the quotients of
    an lcm (:meth:`Chart._lcm`), and the trial divisions by a squarefree
    base in :func:`_poly_sqrt`.

    The leading monomial of a :class:`Poly` is its max key (lex).  Each
    quotient term is (LM(rest) - LM(f), LC(rest) / LC(f)), the
    coefficient divided with ``divmod``; these are the terms of the
    division over QQ, one by one.  The division stops at the first
    LM(rest) that LM(f) does not divide (the difference of the keys has a
    guard bit set): that term stays in the remainder, so the remainder is
    nonzero and, {f} being a Groebner basis of (f) over QQ, f does not
    divide p.  It also stops at the first nonzero ``divmod`` remainder, a
    quotient term that is not an integer: then f does not divide p over
    ZZ.  So the quotient is returned exactly when f divides p over ZZ, for
    any f.  For a primitive f that is exactly when f divides p over QQ
    (Gauss's lemma).

    No exponent wraps.  A quotient term passed the guard test, so its
    fields are below 2^16, and its sum with a key of f carries into no
    other field: a remainder key whose field reached 2^16 (its guard bit
    set) still stands for its true monomial, and the quotient terms taken
    from it are exact, with fields below 2^16 again."""
    lm = max(f)
    lc = f[lm]
    tail = [(m, c) for m, c in f.items() if m != lm]
    rest, q = dict(p), Poly()
    while rest:
        m = max(rest)
        t = m - lm
        if t & _GUARD:
            return None
        c = rest.pop(m)
        if lc != 1:
            c, r = divmod(c, lc)
            if r:
                return None
        q[t] = c
        for fm, fc in tail:
            mm = t + fm
            if v := rest.get(mm, 0) - c * fc:
                rest[mm] = v
            else:
                del rest[mm]
    return q


def _degree(p: Poly, shift: int) -> int:
    """The degree of the nonzero p in the variable at ``shift``."""
    return max(m >> shift & _EXP for m in p)


def _evaluate(p: Poly, shift: int, xi: int) -> Poly:
    """p with the integer xi put for the variable at ``shift``."""
    mask = _EXP << shift
    powers = [1]
    out: Dict[int, int] = {}
    get = out.get
    for m, c in p.items():
        e = m >> shift & _EXP
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        m &= ~mask
        out[m] = get(m, 0) + c * powers[e]
    return Poly({m: c for m, c in out.items() if c})


def _interpolate(p: Poly, shift: int, xi: int, top: int) -> Optional[Poly]:
    """The H with H = p at the integer xi >= 2 put for the variable at
    ``shift`` (on which p does not depend) whose coefficients lie in
    [-xi/2, xi/2]: each coefficient of p written in the symmetric base xi,
    digit e the coefficient of that variable's e-th power; None when a
    digit beyond the power ``top`` is needed."""
    half = xi >> 1
    out: Dict[int, int] = {}
    for m, c in p.items():
        e = 0
        while c:
            if e > top:
                return None
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[m + (e << shift)] = d
            c, e = (c - d) // xi, e + 1
    return Poly(out)


def _clear_denominators(chart: Chart, exprs: Sequence[Expr]) -> Tuple[object, List]:
    """(L, [N_k]) with e_k = N_k / L for each e_k of ``exprs``: L is the
    lcm of their denominators (:meth:`Chart._lcm`), and N_k is the
    numerator of e_k times the quotient L / den_k, or the numerator
    itself where the quotient is one.

    Soundness.  Each N_k is reduced modulo the relations without a call
    to :meth:`Chart._reduce_poly`.  A normal-form denominator holds no
    generator with a rule (:meth:`Chart._derationalize` clears them), so
    neither do its divisors, nor the lcm and its quotients, which are
    products of them.  A product of a reduced numerator and a
    polynomial free of ruled generators raises no ruled generator's
    degree in any term, so it stays reduced."""
    lcm, quotients = chart._lcm([e._den for e in exprs])
    return lcm, [e._num if q.is_one else e._num * q for e, q in zip(exprs, quotients)]


def _derivation_rules(chart: Chart, coordinate: str, polys):
    """(s, {var index: r}) with s * d(var)/d(coordinate) = r for each
    variable occurring in ``polys`` (only those: a root's rule
    differentiates its radicand, so asking for every variable recurses
    without end on nested roots): the rules over their common
    denominator s (:func:`_clear_denominators`), which is 1 unless a
    root generator's dq/(2W) leaves a denominator.  The caller must not
    change the returned dict.

    The result is cached on the chart, keyed by ``coordinate`` and the
    occurring variables, the only inputs besides the chart's rules.
    Soundness of the cache: a variable's derivative depends only on its
    kind and, for a root, on its radicand, so the rules change only when
    a variable is declared or a radicand is set; :meth:`Chart._declare`
    and :meth:`Chart._relate` drop the cache, and every later call
    builds what it would have built uncached."""
    bits = functools.reduce(operator.or_, (p.bits for p in polys), 0)
    # a list first: tuple() of a generator shrinks its guessed size in
    # place, and the shrunk tuples pile up in the interpreter's free lists
    occurring = [i for i in range(len(chart.var_names)) if bits & chart._field(i)]
    key = (coordinate, tuple(occurring))
    if key not in chart._derivation_cache:
        rules = {}
        for i in occurring:
            rule = _var_derivative(chart, chart.var_names[i], coordinate)
            if rule is not None:
                rules[i] = rule
        s, nums = _clear_denominators(chart, list(rules.values()))
        chart._derivation_cache[key] = s, dict(zip(rules, nums))
    return chart._derivation_cache[key]


def _poly_total_derivative(chart: Chart, p: Poly, rules) -> Poly:
    """s * dp/dx, unreduced, for the rules (s, ``rules``) of
    :func:`_derivation_rules` on a set of polynomials containing p."""
    out = Poly()
    for i, r in rules.items():
        out = out + chart._diff(p, i) * r
    return out


def _var_derivative(chart: Chart, var: str, coordinate: str) -> Optional[Expr]:
    if var in chart.coordinates:
        return chart.one() if var == coordinate else None
    g = chart._gens_by_name[var]
    if g.kind in ("sin", "cos"):  # named sin_<angle> / cos_<angle>
        if var[len("sin_"):] != coordinate:
            return None
        return chart.var(g.partner) if g.kind == "sin" else -chart.var(g.partner)
    dq = g.square_rhs.differentiate(coordinate)  # root generator
    if dq.is_zero():
        return None
    return dq / (2 * chart.var(var))


# -- exact square roots ----------------------------------------------------


def exact_sqrt(e: Expr) -> Optional[Expr]:
    """Square root within the field, or None if not expressible.

    sqrt(n/d) = sqrt(n*d)/d, and the reduced n*d is a square in the
    field when its square class lies in the span of the ruled
    generators' radicands (:func:`_poly_sqrt`): 1 - cos^2 = sin^2,
    12 = 4 * 3 gives sqrt(12) = 2W for W^2 = 3, and a root of 12 beside
    W is then rejected as a perfect square.  Of the two roots, it is the
    one whose polynomial factors have positive leading coefficients in
    the chart's lex order.  Nothing is factored: n*d is trial-divided by
    a squarefree coprime base of the radicands, built by gcds.
    """
    ch = e.chart
    if e.is_zero():
        return ch.zero()
    root = _poly_sqrt(ch, ch._reduce_poly(e._num * e._den))
    return None if root is None else root / Expr(ch, e._den, _ONE)


def _poly_sqrt(ch: Chart, p) -> Optional[Expr]:
    """Square root of the nonzero polynomial p in the chart's field, or
    None.  p is divided by each element b of a squarefree, pairwise
    coprime base of the ruled generators' radicands r_i (sin's is
    1 - cos^2; :func:`_squarefree_base`) as often as b divides, then by
    its signed content c; each r_i is its content times a product of
    powers of the base.  p is a square times a product of r_i only if the
    primitive rest q is a square (:func:`_square_root`).  The exponents
    of the base polynomials, of a coprime base of the integer contents
    (:func:`_coprime_base`) and of -1 give vectors over GF(2), their
    parities.  p is a square times the product of some r_i exactly when
    its vector is the sum of theirs, found by elimination over GF(2);
    then the root is prod W_i * sqrt(q) * sqrt(p / (q prod r_i)), every
    exponent of p / (q prod r_i) being even.

    Soundness.  A root found is one: p / prod r_i is a square of
    rational functions.  The parities decide square classes though the
    base elements need not be irreducible.  Let p's class lie in the span
    of the r_i's, so that every irreducible factor of a base element b
    occurs in p to an exponent of one parity, that of b's exponent in
    the span's element.  Each irreducible divides at most one b, once,
    and q is divisible by no b: some factor of b is missing from q, so
    b's exponent e in p has that parity, and so do e plus the exponent
    in q of every factor of b.  So every irreducible occurs in q to an
    even exponent, q is a square, and p's parity vector is the span's.
    For b = uv, the rest can be a square only when u and v occur in p to
    exponents of equal parity, which is exactly when p's class lies in
    the span of b's: p = u^2 v is divided by b once, and the rest u is no
    square.  For p and radicands in Q(coordinates, cos) a root is always
    found, by Kummer theory: the square roots of some classes of
    Q(coordinates, cos)* / squares make squares of exactly the classes in
    their span.  Pairwise coprime integers that are not squares have
    independent square classes, as primes do.  A nested root's radicand
    is split as a polynomial in the earlier roots, so a square can then
    be missed.
    """
    rules = [g for g in ch.generators if g.square_rhs is not None]
    base = _squarefree_base(ch, [g.square_rhs._num for g in rules])

    def divided(p: Poly) -> Tuple[Poly, Dict[Poly, int]]:
        """(p divided by each base element as often as it divides, {element: exponent})."""
        exps: Dict[Poly, int] = {}
        for b in base:
            while (q := _divide(p, b)) is not None:
                p, exps[b] = q, exps.get(b, 0) + 1
        return p, exps

    radicands = [divided(g.square_rhs._num) for g in rules]  # (signed content, exponents)
    p, exps = divided(p)
    c = _content(p)
    s = _square_root(p.quo_ground(c))
    if s is None:
        return None
    numbers = _coprime_base([c] + [k.LC for k, _ in radicands])

    def exponents(k: int, factors: Dict[Poly, int]) -> Dict[object, int]:
        """{-1, a base number or a base polynomial: its exponent in k * prod factors}."""
        out: Dict[object, int] = dict(factors)
        for b in numbers:
            while k % b == 0:
                k, out[b] = k // b, out.get(b, 0) + 1
        return {**out, -1: 1} if k < 0 else out

    vectors = [exponents(k.LC, f) for k, f in radicands]
    target = exponents(c, exps)
    index: Dict[object, int] = {}  # factor -> its bit in the parity vectors
    # echelon form: no row holds the lowest bit of a row stored before it
    basis: List[Tuple[int, int]] = []  # (parity, bit mask of the rules summed into it)

    def reduced(exps, used: int) -> Tuple[int, int]:
        v = sum(1 << index.setdefault(k, len(index)) for k, e in exps.items() if e % 2)
        for b, u in basis:
            if v & b & -b:
                v, used = v ^ b, used ^ u
        return v, used

    for i, r in enumerate(vectors):
        basis.append(reduced(r, 1 << i))
    v, used = reduced(target, 0)
    if v:
        return None
    root = Expr(ch, s, _ONE)
    for i, g in enumerate(rules):
        if used >> i & 1:
            root = root * ch.var(g.name)
            for k, e in vectors[i].items():
                target[k] = target.get(k, 0) - e
    for k, e in target.items():
        if isinstance(k, int):
            root = root * Fraction(abs(k)) ** (e // 2)  # -1 has an even exponent: 1
        else:
            root = root * Expr(ch, k, _ONE) ** (e // 2)
    return root


def _squarefree_base(ch: Chart, polys: Iterable[Poly]) -> List[Poly]:
    """Squarefree, pairwise coprime, primitive polynomials with positive
    leading coefficients, none ground, whose powers give each of the
    nonzero ``polys`` up to its integer content: the first step of Yun's
    squarefree decomposition, then gcd refinement (:meth:`Chart._gcd`
    throughout).  A polynomial n splits into a = gcd(n, dn/dx) and the
    squarefree n / a, the product of the irreducible factors of n in
    which its first variable x occurs; a is split in turn.  A squarefree
    n with a common factor g with a base element b becomes g, b / g and
    n / g, as :func:`_coprime_base` does for integers.  The later Yun
    steps would split n / a at its factors of higher multiplicity, which
    a shares, so the refinement splits them off.  Each step
    replaces a polynomial by divisors with fewer irreducible factors, so
    the loop ends."""
    base: List[Poly] = []
    work = [p.quo_ground(_content(p)) for p in polys]
    while work:
        n = work.pop()
        if n.is_ground:
            continue
        x = len(ch._shift) - 1 - (n.bits.bit_length() - 1) // _FIELD  # n's first variable
        a, n, _ = ch._gcd(n, ch._diff(n, x))
        work.append(a)
        for i, b in enumerate(base):
            g, qb, qn = ch._gcd(b, n)
            if not g.is_ground:
                del base[i]
                work += [g, qb, qn]
                break
        else:
            base.append(n)
    return base


def _coprime_base(numbers: Iterable[int]) -> List[int]:
    """Pairwise coprime integers above 1, none a square, whose powers
    give each nonzero n of ``numbers`` up to sign: factor refinement
    (Bach, Driscoll and Shallit), with square roots taken.  Two numbers
    with a common factor g > 1 become g and their cofactors, and a square
    its root; each step lowers the product of the numbers, so the loop
    ends.  A product of pairwise coprime numbers is a square only when
    each is, so the parities of exponents over the base decide square
    classes as the parities over the primes do."""
    base: List[int] = []
    work = [abs(n) for n in numbers]
    while work:
        n = work.pop()
        r = math.isqrt(n)
        if r * r == n:
            work += [r] if r > 1 else []
            continue
        for i, b in enumerate(base):
            if (g := math.gcd(b, n)) > 1:
                del base[i]
                work += [g, b // g, n // g]
                break
        else:
            base.append(n)
    return base


def _square_root(f: Poly) -> Optional[Poly]:
    """The square root of the nonzero f with a positive leading
    coefficient, or None when f is not a square in ZZ[vars]; nothing is
    factored.  LT(s) = sqrt(LT(f)), and each next term of s is
    LT(f - s^2) / (2 LT(s)), so the terms fall in lex order.  f is not a
    square at the first coefficient that is not an integer (or LT(f) not
    a square), the first LM(f - s^2) that LM(s) does not divide (a
    guard-bit borrow, as in :func:`_divide`), or the first term with an
    exponent above half of f's in that variable, where no term of a root
    lies.  Finitely many monomials pass that bound, so the loop ends, and
    no product of two of them leaves a field."""
    lm = max(f)
    h, r = lm >> 1, math.isqrt(max(f[lm], 0))
    if h + h != lm or h & _GUARD or r * r != f[lm]:
        return None
    box = 0  # half of f's largest exponent, field by field
    for shift in range(0, f.bits.bit_length(), _FIELD):
        box |= (max(m >> shift & _EXP for m in f) >> 1) << shift
    s, rest = {h: r}, {m: c for m, c in f.items() if m != lm}
    while rest:
        m = max(rest)
        t = m - h
        c, rem = divmod(rest[m], 2 * r)
        if t & _GUARD or (box - t) & _GUARD or rem:
            return None
        for mm, v in [(t + sm, 2 * c * sc) for sm, sc in s.items()] + [(t + t, c * c)]:
            if w := rest.get(mm, 0) - v:
                rest[mm] = w
            else:
                del rest[mm]
        s[t] = c
    return Poly(s)


# -- parsing ---------------------------------------------------------------

_ALLOWED_CALLS = ("sin", "cos", "sqrt")


def parse_expr(chart: Chart, source: str) -> Expr:
    """Parse ordinary infix notation into an Expr.

    Supports integers, rationals via '/', the chart's variable names,
    ``sin(angle)``/``cos(angle)`` for declared trig pairs, ``sqrt`` of
    perfect squares, '^' or '**' for integer powers of at most 65535
    (the largest exponent a polynomial holds) in absolute value, refused
    before any power is taken.
    """
    text = source.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExprParseError(f"syntax error: {exc.msg}", exc.lineno or 1, exc.offset or 0)

    def conv(node) -> Expr:
        if isinstance(node, ast.Expression):
            return conv(node.body)
        if isinstance(node, ast.Constant):
            if type(node.value) is int:  # not bool
                return chart.const(node.value)
            raise ExprParseError(
                f"only integer literals allowed, got {node.value!r}",
                node.lineno, node.col_offset)
        if isinstance(node, ast.Name):
            if node.id in chart._index:
                return chart.var(node.id)
            raise ExprParseError(f"unknown variable {node.id!r}", node.lineno, node.col_offset)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return -conv(node.operand)
            if isinstance(node.op, ast.UAdd):
                return conv(node.operand)
            raise ExprParseError("unsupported unary operator", node.lineno, node.col_offset)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                exp, sign = node.right, 1
                if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
                    exp, sign = exp.operand, -1
                if not (isinstance(exp, ast.Constant) and type(exp.value) is int):
                    raise ExprParseError("exponent must be an integer literal",
                                         node.lineno, node.col_offset)
                if exp.value > _EXP:
                    raise ExprParseError(
                        f"exponent {sign * exp.value} exceeds {_EXP} in absolute value",
                        node.lineno, node.col_offset)
                return conv(node.left) ** (sign * exp.value)
            left, right = conv(node.left), conv(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                try:
                    return left / right
                except DivisionByZero:
                    raise ExprParseError("division by zero", node.lineno, node.col_offset)
            raise ExprParseError("unsupported operator", node.lineno, node.col_offset)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ExprParseError("unsupported function call", node.lineno, node.col_offset)
            fname = node.func.id
            if len(node.args) != 1 or node.keywords:
                raise ExprParseError(f"{fname} takes one argument", node.lineno, node.col_offset)
            if fname in ("sin", "cos"):
                arg = node.args[0]
                if not isinstance(arg, ast.Name):
                    raise ExprParseError(f"{fname} argument must be a coordinate",
                                         node.lineno, node.col_offset)
                try:
                    s, c = chart.trig_pair(arg.id)
                except ExprError as exc:
                    raise ExprParseError(str(exc), node.lineno, node.col_offset)
                return s if fname == "sin" else c
            root = exact_sqrt(conv(node.args[0]))
            if root is None:
                raise ExprParseError(
                    "sqrt argument is not a perfect square in the field; "
                    "declare a root generator instead", node.lineno, node.col_offset)
            return root
        raise ExprParseError(f"unsupported syntax node {type(node).__name__}",
                             getattr(node, "lineno", 1), getattr(node, "col_offset", 0))

    return conv(tree)
