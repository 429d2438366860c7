"""Exact factoring over ZZ of polynomials in any number of variables.

A polynomial is a dict from an exponent tuple (one entry per variable,
the first variable highest in lex order) to a nonzero ``int``; a
univariate polynomial inside this module is a list of ``int``
coefficients, lowest degree first, with no trailing zero (the zero
polynomial is ``[]``).  :func:`factor_list` returns the integer content
and the irreducible factors with their exponents.  The algorithms are
the textbook ones (von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 14-16):

- univariate: Yun's squarefree decomposition, from gcds over QQ of f
  and f'; the factors of each part mod a small prime p by Berlekamp's
  algebra, split Cantor-Zassenhaus style; Hensel lifting to p^(2^j)
  above twice the Mignotte bound times |lc|; Zassenhaus recombination
  by exact trial division;
- multivariate: Kronecker substitution of the occurring variables into
  one; the squarefree decomposition of the image splits f when it
  inverts, and each piece's image factors are recombined by exact
  division.

Every answer is exact: a factor is accepted only after an exact division
over ZZ, and a polynomial is declared irreducible only when no product
of its modular (or Kronecker image) factors of at most half their number
divides it.  Randomness (the splitting mod p, the translations before a
Kronecker image) comes from seeded ``random.Random`` streams, so the
results, factor order included, are deterministic.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Monomial = Tuple[int, ...]
Dense = List[int]

_SEED = 0xFAC7  # seed of every random stream of this module
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMES_TRIED = 3  # good primes whose factor counts are compared before choosing one


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


# -- dense univariate polynomials over ZZ --------------------------------------


def _trim(a: Dense) -> Dense:
    while a and not a[-1]:
        a.pop()
    return a


def _mul(a: Dense, b: Dense) -> Dense:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _primitive(a: Dense) -> Dense:
    """a divided by its content, signed to a positive leading coefficient."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [x // c for x in a]


def _derivative(a: Dense) -> Dense:
    return _trim([i * x for i, x in enumerate(a)][1:])


def _add(a: Dense, b: Dense) -> Dense:
    return _trim([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _sub(a: Dense, b: Dense) -> Dense:
    return _trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _divexact(a: Dense, b: Dense) -> Optional[Dense]:
    """a / b when b divides a over ZZ, else None."""
    if not a:
        return []
    if len(a) < len(b):
        return None
    a, lb, db = a[:], b[-1], len(b) - 1
    q = [0] * (len(a) - db)
    for s in range(len(q) - 1, -1, -1):
        c, r = divmod(a[s + db], lb)
        if r:
            return None
        if c:
            q[s] = c
            for j in range(db):
                a[s + j] -= c * b[j]
    return q if not any(a[:db]) else None


def _prem(a: Dense, b: Dense) -> Dense:
    """The pseudo-remainder of a by b: lc(b)^k a = q b + r, deg r < deg b."""
    a, lb, db = a[:], b[-1], len(b) - 1
    while len(a) > db:
        c, s = a[-1], len(a) - 1 - db
        a = [x * lb for x in a]
        for j, y in enumerate(b):
            a[s + j] -= c * y
        _trim(a)
    return a


def _gcd(a: Dense, b: Dense) -> Dense:
    """The primitive gcd over QQ of two nonzero polynomials, with a
    positive leading coefficient.

    First the heuristic gcd (Char, Geddes and Gonnet 1989): for an
    integer x above twice the smaller max-norm, the polynomial whose
    symmetric base-x digits are gcd(a(x), b(x)), made primitive, is the
    gcd if it divides both.  Each candidate is checked by exact division,
    and after six points the primitive remainder sequence, which always
    ends, gives the answer."""
    a, b = _primitive(a), _primitive(b)
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        h = math.gcd(_value(a, x), _value(b, x))
        g = []
        while h:
            r = h % x
            if 2 * r > x:
                r -= x
            g.append(r)
            h = (h - r) // x
        if g:
            g = _primitive(g)
            if _divexact(a, g) is not None and _divexact(b, g) is not None:
                return g
        x = x * 73794 // 27011  # the growth factor of sympy's heugcd
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _value(a: Dense, x: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


# -- dense univariate polynomials mod p ------------------------------------------


def _divmod_p(a: Dense, b: Dense, p: int) -> Tuple[Dense, Dense]:
    """(q, r) with a = q b + r mod p, deg r < deg b, for b with a leading
    coefficient invertible mod p (p need not be prime when b is monic)."""
    db = len(b) - 1
    if len(a) <= db:
        return [], a[:]
    a = a[:]
    inv = pow(b[-1], -1, p) if b[-1] != 1 else 1
    q = [0] * (len(a) - db)
    for s in range(len(q) - 1, -1, -1):
        c = a[s + db] * inv % p
        if c:
            q[s] = c
            for j in range(db):
                a[s + j] = (a[s + j] - c * b[j]) % p
    return q, _trim(a[:db])


def _rem_p(a: Dense, b: Dense, p: int) -> Dense:
    return _divmod_p(a, b, p)[1]


def _mod_p(a: Sequence[int], p: int) -> Dense:
    return _trim([x % p for x in a])


def _derivative_p(a: Dense, p: int) -> Dense:
    return _mod_p([i * x for i, x in enumerate(a)][1:], p)


def _mulmod_p(a: Dense, b: Dense, f: Dense, p: int) -> Dense:
    return _rem_p(_mod_p(_mul(a, b), p), f, p)


def _monic_p(a: Dense, p: int) -> Dense:
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _gcd_p(a: Dense, b: Dense, p: int) -> Dense:
    """The monic gcd over GF(p); [] when both are zero."""
    while b:
        a, b = b, _rem_p(a, b, p)
    return _monic_p(a, p) if a else a


def _xgcd_p(a: Dense, b: Dense, p: int) -> Tuple[Dense, Dense]:
    """(s, t) with s a + t b = 1 over GF(p), deg s < deg b and
    deg t < deg a, for coprime a and b of positive degree."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_p(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_p(s0, _mod_p(_mul(q, s1), p), p)
        t0, t1 = t1, _sub_p(t0, _mod_p(_mul(q, t1), p), p)
    inv = pow(r0[0], -1, p)  # r0 is the nonzero constant gcd
    return [x * inv % p for x in s0], [x * inv % p for x in t0]


def _sub_p(a: Dense, b: Dense, p: int) -> Dense:
    return _mod_p(_sub(a, b), p)


def _powmod_p(a: Dense, e: int, f: Dense, p: int) -> Dense:
    out, a = [1], _rem_p(a, f, p)
    while e:
        if e & 1:
            out = _mulmod_p(out, a, f, p)
        e >>= 1
        if e:
            a = _mulmod_p(a, a, f, p)
    return out


def _berlekamp(f: Dense, p: int) -> List[Dense]:
    """A basis of Berlekamp's algebra {v : v^p = v mod f} of the monic
    squarefree f over GF(p), whose dimension is the number of f's
    irreducible factors mod p.  Row i of Q is x^(ip) mod f, each row the
    one before times x, p times, at O(n) a step; the basis is the left
    kernel of Q - I, from an echelon form and back substitution."""
    n = len(f) - 1
    rows, row = [], [1] + [0] * (n - 1)
    for i in range(n):
        padded = row[:]
        padded[i] = (padded[i] - 1) % p
        rows.append(padded)
        for _ in range(p):
            c = row[-1]
            row = [0] + row[:-1]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, f)]
    m = [list(col) for col in zip(*rows)]  # the columns of Q - I are the equations
    pivots: List[int] = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, n) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        top = m[r][c:] = [x * inv % p for x in m[r][c:]]
        for i in range(r + 1, n):
            if k := m[i][c]:
                m[i][c:] = [(x - k * y) % p for x, y in zip(m[i][c:], top)]
        pivots.append(c)
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for row, c in reversed(list(zip(m, pivots))):
            v[c] = -sum(row[j] * v[j] for j in range(c + 1, n)) % p
        basis.append(_trim(v))
    return basis


def _split_p(f: Dense, p: int, basis: List[Dense], rng: random.Random) -> List[Dense]:
    """The len(basis) monic irreducible factors of the monic squarefree f
    over the odd prime p.  A random v of Berlekamp's algebra is a
    constant s_i mod each irreducible factor, so w = v^((p-1)/2) is 0, 1
    or -1 mod it, and gcd(g, w - 1) splits a factor g whose irreducible
    factors see different signs, for each g with probability >= 1/2."""
    factors = [f]
    while len(factors) < len(basis):
        v = []
        for b in basis:
            k = rng.randrange(p)
            v = _mod_p(_add(v, [x * k for x in b]), p)
        w = _sub_p(_powmod_p(v, (p - 1) // 2, f, p), [1], p)
        split = []
        for g in factors:
            h = _gcd_p(g, _rem_p(w, g, p), p) if len(g) > 2 else [1]
            if 1 < len(h) < len(g):
                split += [h, _divmod_p(g, h, p)[0]]
            else:
                split.append(g)
        factors = split
    return factors


# -- Hensel lifting and recombination --------------------------------------------


def _hensel_step(f, g, h, s, t, m):
    """The quadratic Hensel step (von zur Gathen and Gerhard, ch. 15): from
    f = g h and s g + t h = 1 mod m, with h monic, deg s < deg h and
    deg t < deg g, the same relations mod m^2."""
    mm = m * m
    e = _sub_p(f, _mul(g, h), mm)
    q, r = _divmod_p(_mod_p(_mul(s, e), mm), h, mm)
    g = _mod_p(_add(_add(g, _mul(t, e)), _mul(q, g)), mm)
    h = _mod_p(_add(h, r), mm)
    b = _sub_p(_add(_mul(s, g), _mul(t, h)), [1], mm)
    c, d = _divmod_p(_mod_p(_mul(s, b), mm), h, mm)
    s = _sub_p(s, d, mm)
    t = _sub_p(_sub(t, _mul(t, b)), _mul(c, g), mm)
    return g, h, s, t


def _lift(f: Dense, factors: List[Dense], p: int, bound: int) -> Tuple[List[Dense], int]:
    """(lifted, m): the monic lifts mod m = p^(2^j) >= bound of the monic
    pairwise coprime factors mod p of f, whose leading coefficient is a
    unit mod p and f = lc(f) prod(factors) mod p.  A factor tree: f
    splits as g (lc(f) times the first half) times h (the second half),
    lifted quadratically, then each side recursively.
    Every side runs through the same moduli p, p^2, p^4, ..., so the
    sides agree mod the final m."""
    m = p
    while m < bound:
        m *= m
    if len(factors) == 1:
        return [[x * pow(f[-1], -1, m) % m for x in f]], m
    half = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:half]:
        g = _mod_p(_mul(g, u), p)
    h = [1]
    for u in factors[half:]:
        h = _mod_p(_mul(h, u), p)
    s, t = _xgcd_p(g, h, p)
    k = p
    while k < m:
        g, h, s, t = _hensel_step(f, g, h, s, t, k)
        k *= k
    left, _ = _lift(g, factors[:half], p, bound)
    right, _ = _lift(h, factors[half:], p, bound)
    return left + right, m


def _symmetric(a: Sequence[int], m: int) -> Dense:
    return _trim([x - m if 2 * x > m else x for x in a])


def _recombine(f: Dense, lifted: List[Dense], m: int) -> List[Dense]:
    """The irreducible factors of the primitive squarefree f, from its
    monic factors ``lifted`` mod m, m above 2 |lc(f)| B for a bound B on
    the coefficients of f's factors.  Subsets are tried in increasing
    size: for a true factor g of the rest R, lc(R)/lc(g) g is the
    symmetric residue of lc(R) times its subset's product, so it is
    found; the first subset whose candidate divides R exactly is a
    factor, irreducible because no smaller subset divided.  When no
    subset of at most half the remaining factors divides R, R is
    irreducible.  A candidate whose constant term does not divide
    lc(R) R(0) is skipped without a division (R(0) != 0)."""
    out, rest, us = [], f, lifted
    size = 1
    while 2 * size <= len(us):
        for subset in itertools.combinations(range(len(us)), size):
            lc = rest[-1]
            c0 = lc
            for i in subset:
                c0 = c0 * us[i][0] % m
            c0 = c0 - m if 2 * c0 > m else c0
            if not c0 or lc * rest[0] % c0:
                continue
            g = [lc % m]
            for i in subset:
                g = _mod_p(_mul(g, us[i]), m)
            g = _primitive(_symmetric(g, m))
            q = _divexact(rest, g)
            if q is not None:
                out.append(g)
                rest = q
                us = [u for i, u in enumerate(us) if i not in subset]
                break
        else:
            size += 1
    return out + [rest] if len(rest) > 1 else out


def _primes() -> Iterator[int]:
    """The odd primes in increasing order."""
    p = 3
    while True:
        if _is_prime(p):
            yield p
        p += 2


def _factor_squarefree(f: Dense) -> List[Dense]:
    """The irreducible factors of the primitive squarefree f of positive
    degree with a positive leading coefficient and f(0) != 0.

    Of the first few odd primes p not dividing lc(f) that keep f
    squarefree, the one giving the fewest factors mod p is used; f is
    irreducible at once when one gives a single factor, since a
    factorization over ZZ reduces to one mod p of the same degrees.
    The lift reaches twice |lc(f)| times Mignotte's bound 2^n |f|_2 on
    the coefficients of any factor of f."""
    n = len(f) - 1
    if n == 1:
        return [f]
    best = None
    tried = 0
    for p in _primes():
        if f[-1] % p == 0:
            continue
        fp = _monic_p(_mod_p(f, p), p)
        if len(_gcd_p(fp, _derivative_p(fp, p), p)) > 1:
            continue
        basis = _berlekamp(fp, p)
        if len(basis) == 1:
            return [f]
        if best is None or len(basis) < len(best[2]):
            best = (p, fp, basis)
        tried += 1
        if tried == _PRIMES_TRIED:
            break
    p, fp, basis = best
    modular = _split_p(fp, p, basis, random.Random(_SEED))
    bound = 2 * abs(f[-1]) * ((math.isqrt(sum(c * c for c in f)) + 1) << n) + 1
    lifted, m = _lift(f, modular, p, bound)
    return _recombine(f, lifted, m)


def _squarefree(f: Dense) -> List[Tuple[Dense, int]]:
    """Yun's squarefree decomposition [(a_i, i), ...] of a primitive f of
    positive degree with a positive leading coefficient: f = prod a_i^i,
    each a_i primitive, squarefree and of positive degree, pairwise
    coprime.  With g = gcd(f, f'), b = f / g and d = f' / g - b', each
    step takes a = gcd(b, d) and goes on with b / a and d / a - (b / a)'.
    The gcds are primitive, so every division is exact over ZZ (Gauss's
    lemma), and each b, c, d is the field version times one common
    rational, which the gcds ignore."""
    df = _derivative(f)
    g = _gcd(f, df)
    b, c = _divexact(f, g), _divexact(df, g)
    out, i = [], 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a = _gcd(b, d) if d else b
        if len(a) > 1:
            out.append((a, i))
        b, c = _divexact(b, a), _divexact(d, a)
        i += 1
    return out


def _factor_univariate(f: Dense) -> List[Tuple[Dense, int]]:
    """[(g, e), ...] with f = prod g^e, each g irreducible, for a
    primitive f of positive degree with a positive leading coefficient:
    x^k split off, then each part of the squarefree decomposition
    (:func:`_squarefree`) factored on its own."""
    k = next(i for i, c in enumerate(f) if c)
    out = [([0, 1], k)] if k else []
    if len(f) - k > 1:
        for a, i in _squarefree(f[k:]):
            out += [(u, i) for u in _factor_squarefree(a)]
    return out


# -- multivariate polynomials --------------------------------------------------------


class _Box:
    """Kronecker substitution of the variables occurring in a polynomial
    f into powers of one variable y: the occurring x_1..x_k, of degrees
    d_i in f, go to y^(r_i), r_1 = 1 and r_(i+1) = r_i (d_i + 1).  The map
    K is a ring homomorphism, and on the box of polynomials with
    deg_(x_i) <= d_i it is injective, its inverse read off the
    mixed-radix digits of each exponent below prod (d_i + 1)."""

    def __init__(self, f: Dict[Monomial, int]):
        self.nvars = len(next(iter(f)))
        self.occurring = [i for i in range(self.nvars) if any(m[i] for m in f)]
        self.degrees = [max(m[i] for m in f) for i in self.occurring]
        self.radix = [1]
        for d in self.degrees[:-1]:
            self.radix.append(self.radix[-1] * (d + 1))
        self.size = self.radix[-1] * (self.degrees[-1] + 1)

    def image(self, g: Dict[Monomial, int]) -> Dense:
        out = [0] * self.size
        for m, v in g.items():
            out[sum(m[i] * r for i, r in zip(self.occurring, self.radix))] = v
        return _trim(out)

    def preimage(self, a: Dense) -> Tuple[Dict[Monomial, int], List[int]]:
        """(g, the degrees of g in the occurring variables) with K(g) = a
        and g in the box, for a of degree below ``size``: a divisor of the
        image of a polynomial in the box."""
        g, degs = {}, [0] * len(self.occurring)
        for k, v in enumerate(a):
            if v:
                exps = [0] * self.nvars
                for j, (i, r, d) in enumerate(zip(self.occurring, self.radix, self.degrees)):
                    exps[i] = e = k // r % (d + 1)
                    degs[j] = max(degs[j], e)
                g[tuple(exps)] = v
        return g, degs


def factor_list(f: Dict[Monomial, int]) -> Tuple[int, List[Tuple[Dict[Monomial, int], int]]]:
    """(c, [(g, e), ...]) with f = c prod g^e for a nonzero f: c is the
    integer content signed like f's lex leading coefficient, each g a
    primitive irreducible with a positive lex leading coefficient,
    pairwise distinct.  A single variable dividing f is a factor like
    any other; a constant f gives (f, []).

    After the content and the monomial content, f is split by the
    squarefree decomposition of its Kronecker image (:func:`_pieces`) and
    each piece is factored in its own, smaller box
    (:func:`_kronecker_factors`)."""
    if not f:
        raise ValueError("the zero polynomial has no factorization")
    lead = max(f)
    c = math.gcd(*f.values())
    if f[lead] < 0:
        c = -c
    nvars = len(lead)
    low = [min(m[i] for m in f) for i in range(nvars)]
    out: Dict[frozenset, Tuple[Dict[Monomial, int], int]] = {}
    for i, e in enumerate(low):
        if e:
            g = {tuple(int(j == i) for j in range(nvars)): 1}
            out[frozenset(g.items())] = (g, e)
    f = {tuple(a - b for a, b in zip(m, low)): v // c for m, v in f.items()}
    if len(f) > 1:
        for piece, i in _pieces(f):
            for g in _kronecker_factors(piece):
                key = frozenset(g.items())
                out[key] = (g, out[key][1] + i if key in out else i)
    return c, list(out.values())


def _pieces(f: Dict[Monomial, int]) -> List[Tuple[Dict[Monomial, int], int]]:
    """[(a_i, i), ...] with f = +-prod a_i^i, from the squarefree
    decomposition (:func:`_squarefree`) of a Kronecker image; [(f, 1)]
    when f's own image is squarefree (then f is) or no decomposition
    inverts.

    Without a translation the images of all factors g with g(0) = 0
    share the factor y, and the decomposition would rarely invert.  So f
    is translated, x -> x + c, to an f~ with f~(0) != 0: translation
    keeps each variable's degree, hence the box, and maps factors to
    factors.  The pieces are the preimages of the parts of f~'s image,
    translated back, used when sum_i i deg(a_i) <= d in each variable
    (then prod a_i^i is in the box and has f~'s image, so it is +-f~).
    Two images still share a factor y - a when both factors vanish at
    the point of signs, powers and translates that a stands for, which a
    point with small entries makes likely; so c is drawn from [1, 4]
    first, whose translate keeps the coefficients small, then from
    [1, 256].  A power of a factor thus no longer widens the box its
    factor is searched in."""
    box = _Box(f)
    image = box.image(f)
    if len(_gcd(image, _derivative(image))) == 1:
        return [(f, 1)]
    rng = random.Random(_SEED)
    for span in (4, 256):
        c = [rng.randint(1, span) if i in box.occurring else 0 for i in range(box.nvars)]
        if not sum(v * math.prod(a ** e for a, e in zip(c, m)) for m, v in f.items()):
            continue
        parts = _squarefree(_primitive(box.image(_translate(f, c))))
        preimages = [box.preimage(a) for a, _ in parts]
        if all(sum(i * p[1][j] for p, (_, i) in zip(preimages, parts)) <= d
               for j, d in enumerate(box.degrees)):
            back = [-v for v in c]
            return [(_translate(p[0], back), i) for p, (_, i) in zip(preimages, parts)]
    return [(f, 1)]


def _translate(f: Dict[Monomial, int], c: Sequence[int]) -> Dict[Monomial, int]:
    """f(x + c), one variable at a time by the binomial expansion."""
    for i, ci in enumerate(c):
        if not ci:
            continue
        out: Dict[Monomial, int] = {}
        for m, v in f.items():
            e = m[i]
            for k in range(e + 1):
                mk = m[:i] + (k,) + m[i + 1:]
                out[mk] = out.get(mk, 0) + v * math.comb(e, k) * ci ** (e - k)
        f = {m: v for m, v in out.items() if v}
    return f


def _kronecker_factors(f: Dict[Monomial, int]) -> List[Dict[Monomial, int]]:
    """The irreducible factors of the primitive f with no monomial
    content and at least two terms, one entry per multiplicity, each
    with a positive lex leading coefficient.

    The image K(f) in f's box (:class:`_Box`) is factored over ZZ, and
    sub-multisets of its irreducible factors (with multiplicity) are
    tried in increasing size: a product P, with the quotient K(R) / P of
    the rest R, is accepted when both have preimages g and q in the box
    with deg g + deg q <= d in each variable; then g q is in the box and
    K(g q) = K(R), so g q = R.

    Soundness.  Every true divisor g of R has degree at most d_i in each
    variable, so its image inverts exactly: g divides R if and only if
    its image's sub-multiset is accepted.  A minimal accepted
    sub-multiset therefore gives an irreducible factor, since a proper
    factor of it would have a smaller sub-multiset that divides R and so
    been found first (a sub-multiset rejected for an earlier R divides
    no later R, which divides it).  When no sub-multiset of at most half
    of the remaining ones is accepted, R is irreducible."""
    box = _Box(f)
    rest = box.image(f)
    kinds: List[Dense] = []
    counts: List[int] = []
    for u, e in _factor_univariate(_primitive(rest)):
        kinds.append(u)
        counts.append(e)
    out = []
    size = 1
    while 2 * size <= sum(counts):
        for subset in itertools.combinations_with_replacement(range(len(kinds)), size):
            if any(subset.count(i) > counts[i] for i in set(subset)):
                continue
            prod: Dense = [1]
            for i in subset:
                prod = _mul(prod, kinds[i])
            quotient = _divexact(rest, prod)
            g, q = box.preimage(prod), box.preimage(quotient)
            if any(a + b > d for a, b, d in zip(g[1], q[1], box.degrees)):
                continue
            out.append(_positive(g[0]))
            rest = quotient
            for i in subset:
                counts[i] -= 1
            break
        else:
            size += 1
    if len(rest) > 1:
        out.append(_positive(box.preimage(rest)[0]))
    return out


def _positive(g: Dict[Monomial, int]) -> Dict[Monomial, int]:
    """g signed to a positive lex leading coefficient."""
    return g if g[max(g)] > 0 else {m: -v for m, v in g.items()}
