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
- trial division (:func:`_divide`) by a primitive irreducible of the
  chart's table, in the lex order of the packed keys, so each quotient
  term is the remainder's leading term shifted by LM(f), its
  coefficient divided by LC(f) with ``divmod``.

gcds and lcms of denominators are those trial divisions and one integer
gcd (only a cofactor that no table entry divides is factored anew, over
ZZ by :mod:`geosym._factor`); no polynomial gcd is taken.
:func:`_clear_denominators` puts a list of elements over the lcm of
their denominators, for the equations of :mod:`geosym.prolong`, the
coefficient rows of closure and the derivation rules alike.
A sum of products is built with :meth:`Chart.sum_products`: the
products are grouped by denominator, the groups combined over the lcm
of their denominators, and the sum normalized once; the normal form is
canonical, so the result is the one the ``+``/``*`` fold gives.
Generic-point checks (the cross-check of each zero normal form when it
is built, and symbol ranks in :mod:`geosym.prolong`) evaluate at seeded
:class:`GenericPoint` s, each reduced modulo its own prime: 2^61 - 1, or
a prime below it where the chart's radicands are nonzero squares.
Integer coefficients reduce mod any prime, so these evaluations meet
no pole but the sample values' own.  Symbol ranks of prolonged rows use
the truncated Taylor series at such a point (:class:`TaylorMap`).
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from geosym._factor import _is_prime, factor_integer, factor_list

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
    the zero cross-check of :meth:`Expr.__init__`, on throughout, gives
    them random values (:meth:`sample_point`), still a ring
    homomorphism.  A radicand holds only variables whose rules are set,
    so its normal form is final.  Setting a rule drops the cached rules
    and the sample pool, since a root's residue depends on its radicand.
    The table of irreducibles and its caches are kept: they are facts
    about ZZ[vars].
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
        self._relations: Optional[List] = None  # see :meth:`_relation_powers`
        self._rewritable = 0  # set with _relations
        self._irreducibles: List = []  # primitive irreducible factors (LC > 0) of denominators met
        self._factorizations: Dict = {}  # denominator -> ((irreducible index, exponent), ...)
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

    def _relate(self, g: GeneratorSpec, rhs: "Expr"):
        """Give g the rule g^2 -> rhs.  The cached rules lack it, and the
        residue of a root depends on its radicand, so the rules and the
        sample pool are dropped; the table of irreducibles is kept."""
        g.square_rhs = rhs
        self._relations = None
        self._sample_pool = []

    def trig_pair(self, angle: str) -> Tuple["Expr", "Expr"]:
        if angle not in self._trig_pairs:
            raise ExprError(f"no trig pair declared for {angle!r}")
        s, c = self._trig_pairs[angle]
        return self.var(s), self.var(c)

    # -- expression construction -----------------------------------------

    def zero(self) -> "Expr":
        return Expr(self, Poly(), _ONE)

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

    def sum_products(self, terms: Iterable[Sequence[Union["Expr", Rational]]]) -> "Expr":
        """The sum over ``terms`` of the product of each term's factors
        (``Expr``, int or ``Fraction``), normalized once.

        Each product's numerator and denominator are multiplied out
        unreduced, and a term with a zero factor is skipped.  The products
        are grouped by denominator polynomial and each group's numerators
        added; the groups are then combined over the lcm of their
        denominators, not their product, which would blow the numerator up
        before its one cancellation when many distinct denominators meet.

        A ``Fraction`` factor multiplies the numerator by its numerator
        and the denominator by its denominator.

        Soundness.  The :class:`Expr` normal form is canonical (numerator
        reduced by the relations' Groebner basis, denominator free of
        quadratic generators, gcd and integer content cancelled,
        denominator's leading coefficient positive), so any
        grouping of the same sum gives the same ``_num`` and ``_den`` as
        the left fold of ``+`` and ``*``; a sum that cancels to zero is
        cross-checked in ``Expr.__init__`` like every other zero.
        """
        terms = list(terms)
        if len(terms) == 1 and len(terms[0]) == 1 and isinstance(terms[0][0], Expr):
            return self.expr(terms[0][0])  # already normal: keep the object
        groups: Dict = {}  # denominator -> summed numerators
        for factors in terms:
            num, den, c = None, _ONE, 1
            for f in factors:
                if not isinstance(f, Expr):
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
        if len(groups) < 2:  # one denominator or none: no lcm
            den, num = next(iter(groups.items()), (_ONE, Poly()))
            return Expr(self, num, den)
        den, quotients = self._lcm(list(groups))
        return Expr(self, sum((n * q for n, q in zip(groups.values(), quotients)),
                              Poly()), den)

    # -- factored denominators ---------------------------------------------

    def _factor_list(self, p: Poly) -> Tuple[int, List[Tuple[Poly, int]]]:
        """The factorization of p over ZZ (:func:`geosym._factor.factor_list`):
        (content, [(factor, exponent), ...]), the factors primitive and
        irreducible with positive leading coefficients in the chart's lex
        order.  p goes to the factorizer as exponent tuples in the chart's
        variable order, and the factors come back packed."""
        c, factors = factor_list({self._unpack(m): v for m, v in p.items()})
        return c, [(self._poly(f), e) for f, e in factors]

    def _factor(self, d) -> Tuple[Tuple[int, int], ...]:
        """((i, e), ...), i ascending, with d = c * prod irreducible_i^e for
        the content c of d (:func:`_content`); cached.  d is trial-divided
        by the table, and only a cofactor left over goes to
        :meth:`_factor_list`, whose primitive factors with positive leading
        coefficients join the table."""
        out = () if d.is_ground else self._factorizations.get(d)
        if out is None:
            out, rest = [], d
            for i, p in enumerate(self._irreducibles):
                e = 0
                while (q := _divide(rest, p)) is not None:
                    rest, e = q, e + 1
                out += [(i, e)] if e else []
            for f, e in ([] if rest.is_ground else self._factor_list(rest)[1]):
                out.append((len(self._irreducibles), e))
                self._irreducibles.append(f)
            out = self._factorizations[d] = tuple(out)
        return out

    def _expand(self, exps: Mapping[int, int]):
        """The product of irreducible_i^e over the items (i, e) of ``exps``,
        a fresh polynomial, primitive with a positive leading coefficient
        like its factors (Gauss's lemma)."""
        factors = [self._irreducibles[i] ** e for i, e in exps.items() if e]
        return math.prod(factors[1:], start=factors[0]) if factors else _ONE

    def _cancel(self, n, d):
        """(n, d) divided by gcd(n, d) and by their common integer content,
        signed so that d's leading coefficient is positive.  n is divided
        by each irreducible p^e of d (:meth:`_factor`) for as long as the
        division is exact, up to e times, and d by the product g of the p
        that divided (:func:`_divide` throughout; g is primitive and
        divides d).  A ground d skips the trial divisions."""
        if not d.is_ground:
            g = _ONE
            for i, e in self._factor(d):
                p = self._irreducibles[i]
                for _ in range(e):
                    if (q := _divide(n, p)) is None:
                        break
                    n, g = q, g * p
            if not g.is_one:
                d = _divide(d, g)
        c = math.gcd(*d.values())
        if c != 1:
            c = math.gcd(c, *n.values())
        if d[max(d)] < 0:
            c = -c
        return (n, d) if c == 1 else (n.quo_ground(c), d.quo_ground(c))

    def _lcm(self, polys: Sequence) -> Tuple[object, List]:
        """(l, [l / p for p in polys]) for the lcm l = C * prod
        irreducible_i^max_i of ``polys``: the product takes each
        irreducible's largest exponent (:meth:`_factor`), and C > 0 is the
        lcm of the polys' contents.  For p = c * prod irreducible_i^e_i (c
        its content, :func:`_content`) the quotient is (C / c) * prod
        irreducible_i^(max_i - e_i), from the exponents.  l's factorization
        is cached."""
        facs = [dict(self._factor(p)) for p in polys]
        contents = [_content(p) for p in polys]
        top = {i: max(f.get(i, 0) for f in facs) for i in sorted({i for f in facs for i in f})}
        scale = math.lcm(*contents)
        lcm = self._expand(top)
        if scale != 1:
            lcm = lcm.mul_ground(scale)
        if top:
            self._factorizations[lcm] = tuple(top.items())
        quotients = []
        for c, f in zip(contents, facs):
            q = self._expand({i: e - f.get(i, 0) for i, e in top.items()})
            quotients.append(q if c == scale else q.mul_ground(scale // c))
        return lcm, quotients

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
        """Random rational values of the coordinates and trig generators.

        Trig pairs are sampled from rational circle points, so
        sin^2 + cos^2 = 1 holds exactly.  Root generators get no value
        here: :class:`GenericPoint` sends them to square roots modulo
        its prime.  A root without a rule yet (only while the chart's
        radicands are parsed) is a free variable and gets a value like a
        coordinate.
        """
        point = {x: Fraction(rng.randint(2, 19), rng.randint(1, 7))
                 for x in self.coordinates}
        for g in self.generators:
            if g.kind == "sin":
                t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                point[g.name] = 2 * t / (1 + t * t)
                point[g.partner] = (1 - t * t) / (1 + t * t)
            elif g.kind == "root" and g.square_rhs is None:
                point[g.name] = Fraction(rng.randint(2, 19), rng.randint(1, 7))
        return point

    def _check_pool(self, k: int) -> List["GenericPoint"]:
        while len(self._sample_pool) < k:
            seed = _POOL_SEED + len(self._sample_pool)
            self._sample_pool.append(GenericPoint.sample(self, seed))
        return self._sample_pool[:k]


PRIME = 2 ** 61 - 1  # the prime of every point of a chart without root generators
_MAX_PRIMES = 64
_POOL_SEED = 0x5EED  # seed of the first zero cross-check point


@functools.lru_cache(maxsize=None)
def _prime(i: int) -> int:
    """The i-th prime of the search: 2^61 - 1, then the primes below it."""
    if i == 0:
        return PRIME
    p = _prime(i - 1) - 2  # primes past 2 are odd
    while not _is_prime(p):
        p -= 2
    return p


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


def _mod(q: Fraction, prime: int) -> int:
    """Image in GF(prime) of a rational sample value; PoleError when its
    denominator is divisible by the prime."""
    den = q.denominator % prime
    if not den:
        raise PoleError(f"denominator of {q} is divisible by the prime {prime}")
    num = q.numerator % prime
    return num if den == 1 else num * pow(den, prime - 2, prime) % prime


def _poly_mod(p: Poly, residues: Sequence[int], prime: int) -> int:
    """Value in GF(prime) of a polynomial of the chart's ring at one
    residue per variable."""
    shifts = range(_FIELD * (len(residues) - 1), -1, -_FIELD)
    fields = [(_EXP << s, s, r) for s, r in zip(shifts, residues)]
    powers: Dict[int, int] = {}  # a field's bits, in place -> the power it stands for
    total = 0
    for m, coeff in p.items():
        term = coeff % prime
        for mask, s, r in fields:
            if f := m & mask:
                v = powers.get(f)
                if v is None:
                    v = powers[f] = pow(r, f >> s, prime)
                term = term * v % prime
        total += term
    return total % prime


class TaylorMap:
    """Truncated Taylor series at a :class:`GenericPoint`, mod its prime.

    Sends a polynomial p of the chart's ring to its Taylor coefficients
    T_gamma(p) = d^gamma p(x0) / gamma! for |gamma| <= ``order``, as a
    dict from the multi-index gamma (one entry per coordinate) to a
    nonzero residue.  The variables' series are: a coordinate x0 + t;
    sin and cos in closed form, the k-th derivative cycling through
    s0, c0, -s0, -c0; a root W = W0 * sum_k binom(1/2, k) u^k with
    u = (q - q0) / q0 the radicand's relative increment (q0 is nonzero
    mod the prime: :func:`_residues` resamples otherwise).

    Soundness.  The series satisfy every generator relation and every
    derivation rule up to the truncation, so this is a ring homomorphism
    from the coordinate ring to GF(prime)[[t]] / m^(order+1) that
    commutes with each d/dx_i up to the truncation.  Its constant terms
    are the point's residues, so order 0 is evaluation at the point.
    """

    def __init__(self, chart: Chart, point: "GenericPoint", order: int):
        self.order = order
        self.prime = prime = point.prime
        n = chart.dim
        self._zero: Tuple[int, ...] = (0,) * n
        # packed monomial -> its series; key 0 is the monomial 1
        self._monos: Dict[int, Dict[Tuple[int, ...], int]] = {0: {self._zero: 1}}
        self._memo: Dict[Poly, Dict[Tuple[int, ...], int]] = {}
        self._vars: Dict[int, Dict[Tuple[int, ...], int]] = {}  # field shift -> series
        inv_fact = [1]
        for k in range(1, order + 1):
            inv_fact.append(inv_fact[-1] * pow(k, prime - 2, prime) % prime)
        res = point.residues
        trig = {}  # generator -> (angle index, derivatives at the point mod 4)
        for angle, (s, c) in chart._trig_pairs.items():
            j = chart.coordinates.index(angle)
            s0, c0 = res[chart._index[s]], res[chart._index[c]]
            trig[s] = (j, (s0, c0, -s0, -c0))
            trig[c] = (j, (c0, -s0, -c0, s0))
        for i, name in enumerate(chart.var_names):
            if i < n:
                series = {self._zero: res[i], self._unit(i, 1): 1}
            elif name in trig:
                j, cycle = trig[name]
                series = {self._unit(j, k): cycle[k % 4] * inv_fact[k]
                          for k in range(order + 1)}
            else:  # root: W^2 = q
                q = self(chart._gens_by_name[name].square_rhs._num)
                q0_inv = pow(q.get(self._zero, 0), prime - 2, prime)
                u = {g: v * q0_inv % prime for g, v in q.items() if any(g)}
                series, power, binom = {}, {self._zero: 1}, 1
                for k in range(order + 1):  # u^k vanishes beyond the order
                    for g, v in power.items():
                        series[g] = (series.get(g, 0) + binom * v) % prime
                    power = self._mul(power, u)
                    binom = binom * (1 - 2 * k) * pow(2 * k + 2, prime - 2, prime) % prime
                series = {g: v * res[i] for g, v in series.items()}
            self._vars[chart._shift[i]] = {g: v % prime for g, v in series.items() if v % prime}

    def _unit(self, i: int, k: int) -> Tuple[int, ...]:
        g = list(self._zero)
        g[i] = k
        return tuple(g)

    def _mul(self, a, b):
        """Truncated product of two series."""
        out: Dict[Tuple[int, ...], int] = {}
        get = out.get
        terms = [(gb, vb, sum(gb)) for gb, vb in b.items()]
        for ga, va in a.items():
            room = self.order - sum(ga)
            for gb, vb, degree in terms:
                if degree <= room:
                    g = tuple(map(operator.add, ga, gb))
                    out[g] = get(g, 0) + va * vb
        prime = self.prime
        return {g: r for g, v in out.items() if (r := v % prime)}

    def _monomial(self, m: int):
        """The series of the monomial with packed key m: that of m divided
        by its last variable (the lowest nonzero field), times the
        variable's series."""
        series = self._monos.get(m)
        if series is None:
            shift = ((m & -m).bit_length() - 1) // _FIELD * _FIELD
            series = self._mul(self._monomial(m - (1 << shift)), self._vars[shift])
            self._monos[m] = series
        return series

    def __call__(self, p: Poly) -> Dict[Tuple[int, ...], int]:
        """Taylor coefficients of a polynomial of the chart's ring."""
        out = self._memo.get(p)
        if out is None:
            prime = self.prime
            acc: Dict[Tuple[int, ...], int] = {}
            get = acc.get
            for monom, coeff in p.items():
                c = coeff % prime
                for g, v in self._monomial(monom).items():
                    acc[g] = get(g, 0) + c * v
            out = self._memo[p] = {g: r for g, v in acc.items() if (r := v % prime)}
        return out


def _residues(chart: Chart, values: Mapping[str, Fraction],
              prime: int) -> Optional[List[int]]:
    """One residue mod ``prime`` per chart variable, or None when a root
    generator's radicand is zero or not a square mod ``prime``.

    Coordinates and trig values are reduced; a root W becomes the square
    root :func:`_sqrt_mod` of the residue of its radicand, so the
    relations keep holding mod prime.  W is nonzero, hence a unit in the
    Taylor series of :class:`TaylorMap`."""
    residues: List[int] = []
    for name in chart.var_names:
        if name in values:
            residues.append(_mod(values[name], prime))
            continue
        g = chart._gens_by_name[name]
        # the radicand holds no later variable: those get the value 0
        later = [0] * (len(chart.var_names) - len(residues))
        q = _poly_mod(g.square_rhs._num, residues + later, prime)
        w = _sqrt_mod(q, prime) if q else None
        if w is None:
            return None
        residues.append(w)
    return residues


@dataclass
class GenericPoint:
    """Seeded sample point of a chart: the rational coordinate and trig
    values of :meth:`Chart.sample_point`, one residue per chart variable
    in GF(``prime``), the prime, and the seed.

    Soundness.  The residues satisfy every generator relation mod the
    prime, so evaluating a polynomial at them is a ring homomorphism from
    the coordinate ring, whose coefficients are integers, to GF(prime);
    its kernel contains the relation ideal, whose rules are monic.  A
    true zero therefore maps to zero: a check that flags a nonzero image
    never flags a true zero.  Ranks of evaluated matrices can only drop.

    A nonzero element maps to zero far more often than deg/prime, since
    the values come from small sets.  A coordinate is a/b with
    2 <= a <= 19 and 1 <= b <= 7, no value more likely than 2 (1/18);
    a trig pair is (2t, 1 - t^2)/(1 + t^2) with t = a/b, 1 <= a, b <= 9,
    no t more likely than 1 (1/9), and sin and cos have degree 2 in t.
    Such fractions stay distinct mod the prime, so a polynomial with a
    coefficient the prime does not divide vanishes with probability at
    most sum_x deg_x / 18 + sum_pairs 2 deg_pair / 9 (Schwartz 1980;
    Zippel 1979, with these probabilities for 1/|S|); with root
    generators the same holds for its norm, the product of its
    conjugates under W -> -W.  The upper bounds of
    :func:`~geosym.prolong.solution_bound` never depend on this, only
    their tightness does, and so does the chance that the zero
    cross-check of :meth:`Expr.__init__` misses a kernel fault.  Values
    drawn uniformly in GF(prime) would make the bound deg/prime.
    """

    values: Dict[str, Fraction]
    seed: int
    residues: List[int]
    prime: int

    @staticmethod
    def sample(chart: Chart, seed: int) -> "GenericPoint":
        """The first point of the ``random.Random(seed)`` stream whose
        roots have nonzero square radicands mod 2^61 - 1; the stream
        moves to the next prime below only when it yields no such point
        (a constant radicand, such as 3 or -1, that is not a square mod
        the prime never does).  A nonsquare rational is a square mod half of all
        primes, so k such radicands need about 2^k primes."""
        for i in range(_MAX_PRIMES):
            prime = _prime(i)
            rng = random.Random(seed)
            for _ in range(200):
                values = chart.sample_point(rng)
                residues = _residues(chart, values, prime)
                if residues is not None:
                    return GenericPoint(values, seed, residues, prime)
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
    exactly when its numerator is.  The gcd is cancelled by trial
    division against the chart's table of primitive irreducibles
    (:meth:`Chart._cancel`); factorizations are only a cache on the
    chart, and the expanded ``_den`` is the normal form.
    Build a sum of products with :meth:`Chart.sum_products`, which
    normalizes once (products grouped by denominator, groups combined
    over the lcm of their denominators) and, the form being canonical,
    gives the same ``_num`` and ``_den`` as the fold of ``+`` and ``*``.
    """

    __slots__ = ("chart", "_num", "_den")

    def __init__(self, chart: Chart, num, den):
        """Normalize num/den.

        Cancelling the gcd (:meth:`Chart._cancel`) is sound: ZZ[vars] is a
        UFD, so for d = c * prod p_i^e_i, with c the integer content and
        p_i primitive irreducibles (as :meth:`Chart._factor_list` returns
        them), gcd(n, d) = gcd(c, content(n)) * prod p_i^min(e_i, v_p_i(n)).
        A trial division by one primitive p is exact exactly when p
        divides (:func:`_divide`, by Gauss's lemma), so the p_i are divided
        out first and the integer gcd last.  d is free of quadratic
        generators, so every p_i is too and quotients of the reduced n
        stay reduced.  The normal form is unique: a coprime pair is
        determined by its quotient up to a rational factor, integer
        coefficients with content gcd 1 leave only the factor -1, and the
        sign fix (positive leading coefficient of d) removes it.

        A numerator that is not the zero polynomial but reduces to zero is
        cross-checked here, once: the unreduced numerator must vanish at
        the first two points of the chart's pool of :class:`GenericPoint` s,
        mod each point's prime.  Such a numerator lies in the relation
        ideal, which vanishes at every pool point whatever the
        denominator's value there, so the denominator is not evaluated
        and no point is skipped.  A nonzero value raises
        :class:`KernelInconsistency`; a true zero maps to zero, so the
        check never raises falsely.
        """
        self.chart = chart
        n = chart._reduce_poly(num)
        d = chart._reduce_poly(den)
        if not d:
            raise DivisionByZero("division by an expression that reduces to zero")
        if n:
            n, d = chart._cancel(*chart._derationalize(n, d))
        else:
            d = _ONE
            # the zero polynomial itself needs no check
            for point in (chart._check_pool(2) if num else ()):
                if _poly_mod(num, point.residues, point.prime):
                    raise KernelInconsistency(
                        "reduction reports zero but evaluation is nonzero; kernel bug")
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
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

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
        (n/d)' = (s n' d - n s d') / (s d^2)."""
        ch = self.chart
        if coordinate not in ch.coordinates:
            raise ExprError(f"{coordinate!r} is not a coordinate of this chart")
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
    The trial divisions of :meth:`Chart._factor` and :meth:`Chart._cancel`
    call it with f a primitive irreducible of the chart's table or a
    product of them.

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


def _clear_denominators(chart: Chart, exprs: Sequence[Expr]) -> Tuple[object, List]:
    """(L, [N_k]) with e_k = N_k / L for each e_k of ``exprs``: L is the
    lcm of their denominators (:meth:`Chart._lcm`), and N_k is the
    numerator of e_k times the quotient L / den_k, or the numerator
    itself where the quotient is one.

    Soundness.  Each N_k is reduced modulo the relations without a call
    to :meth:`Chart._reduce_poly`.  A normal-form denominator holds no
    generator with a rule (:meth:`Chart._derationalize` clears them), so
    neither do its irreducible factors, nor the lcm and its quotients,
    which are products of them.  A product of a reduced numerator and a
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
    root generator's dq/(2W) leaves a denominator."""
    bits = functools.reduce(operator.or_, (p.bits for p in polys), 0)
    occurring = [i for i in range(len(chart.var_names)) if bits & chart._field(i)]
    rules = {}
    for i in occurring:
        rule = _var_derivative(chart, chart.var_names[i], coordinate)
        if rule is not None:
            rules[i] = rule
    s, nums = _clear_denominators(chart, list(rules.values()))
    return s, dict(zip(rules, nums))


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
    the chart's lex order, as the chart's table of irreducibles holds
    them.  A positive integer n*d that is a perfect square, such as the
    determinant of a constant metric, has the root ``math.isqrt`` gives,
    with no factoring.
    """
    ch = e.chart
    if e.is_zero():
        return ch.zero()
    n, d = e._num, e._den
    p = ch._reduce_poly(n * d)
    k = p.get(0, 0) if p.is_ground else 0
    if k > 0 and math.isqrt(k) ** 2 == k:
        root = ch.const(math.isqrt(k))
    else:
        root = _poly_sqrt(ch, p)
    if root is None:
        return None
    return root / Expr(ch, d, _ONE)


def _factor_exponents(ch: Chart, p: Poly) -> Dict[object, int]:
    """{k: e} with p = prod k^e: each k is -1, a prime, or a primitive
    irreducible polynomial with positive leading coefficient, an entry of
    the chart's table.  The polynomials come from the cached
    :meth:`Chart._factor` and the integers from
    :func:`geosym._factor.factor_integer` of p's signed content."""
    out: Dict[object, int] = {ch._irreducibles[i]: e for i, e in ch._factor(p)}
    out.update(factor_integer(_content(p)))
    return out


def _poly_sqrt(ch: Chart, p) -> Optional[Expr]:
    """Square root of the nonzero polynomial p in the chart's field, or
    None.  Each factorization (:func:`_factor_exponents`) gives a vector
    over GF(2), its exponents' parities.  p is a square times the product
    of the radicands r_i of some ruled generators W_i (sin's is
    1 - cos^2) exactly when its vector is the sum of theirs, found by
    elimination over GF(2); then the root is prod W_i * sqrt(p / prod r_i),
    every exponent of p / prod r_i being even.

    Soundness.  A root found is one: p / prod r_i is a square of
    rational functions.  For p and radicands in Q(coordinates, cos) a
    root is always found, by Kummer theory: the square roots of some
    classes of Q(coordinates, cos)* / squares make squares of exactly
    the classes in their span.  A nested root's radicand is factored as
    a polynomial in the earlier roots, so a square can then be missed.
    """
    rules = [g for g in ch.generators if g.square_rhs is not None]
    radicands = [_factor_exponents(ch, g.square_rhs._num) for g in rules]
    target = _factor_exponents(ch, p)
    index: Dict[object, int] = {}  # factor -> its bit in the parity vectors
    # echelon form: no row holds the lowest bit of a row stored before it
    basis: List[Tuple[int, int]] = []  # (parity, bit mask of the rules summed into it)

    def reduced(exps, used: int) -> Tuple[int, int]:
        v = sum(1 << index.setdefault(k, len(index)) for k, e in exps.items() if e % 2)
        for b, u in basis:
            if v & b & -b:
                v, used = v ^ b, used ^ u
        return v, used

    for i, r in enumerate(radicands):
        basis.append(reduced(r, 1 << i))
    v, used = reduced(target, 0)
    if v:
        return None
    exps = dict(target)
    root = ch.one()
    for i, g in enumerate(rules):
        if used >> i & 1:
            root = root * ch.var(g.name)
            for k, e in radicands[i].items():
                exps[k] = exps.get(k, 0) - e
    for k, e in exps.items():
        if isinstance(k, int):
            root = root * Fraction(abs(k)) ** (e // 2)  # -1 has an even exponent: 1
        else:
            root = root * Expr(ch, k, _ONE) ** (e // 2)
    return root


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
