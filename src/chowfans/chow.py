"""Chow classes on the flag fans: formal rational sums of square-free cone
monomials, their products with divisors, degrees, pairings, pairing
matrices, cap products and transport maps, all read through the per-cone
hooks of the fan's class (`fans.Fan`), whose Poincare duality makes the
pairing walk the zero test (`nonzero_pairing_witness`).  One sparse
kernel, `_times`, takes every product of a cone monomial by a divisor:
the walk's ray products, multiply_by_divisor, multiply_by_monomial and
the divisor forms of the ring models.  The balancing relation of a
weight at a codimension-one cone tau, sum_rho w(tau + rho) u_rho =
sum_i lambda_i u_(tau_i) modulo the lineality (`Fan._relation`), gives
both the cap product at tau and, for the fan's own weight, the top
degrees deg(x_tau x_(tau_i)) = -lambda_i that the walk's leaves read.

Everything is exact.  A coefficient is an int whenever it is integral and
a fractions.Fraction only where a rational input brings a denominator:
every cone of a flag or biflag fan is unimodular, so products, pairings
and caps of int classes stay in ints.
"""

from fractions import Fraction
from operator import mul

from .fans import ConeNotInFan, DimensionMismatch, check_balanced


class ChowError(Exception):
    pass


class FanMismatch(ChowError):
    pass


class DegreeMismatch(ChowError):
    pass


class NonzeroOnLineality(ChowError):
    pass


class UnbalancedInput(ChowError):
    pass


class DegreeTooLow(ChowError):
    pass


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class ChowElement:
    """Degree-k class written as a sum of square-free cone monomials, keyed
    by sorted cones: a key may list its k-cone in any order."""

    def __init__(self, fan, degree, terms=None):
        self.fan = fan
        self.degree = degree
        self.terms = {}
        if terms:
            if not (fan.cones.issuperset(terms)
                    and set(map(len, terms)) == {degree}):
                terms = _by_sorted_cone(fan, degree, terms)
            for cone, c in terms.items():
                c = _exact(c)
                if c:
                    self.terms[cone] = c

    def __add__(self, other):
        if self.fan is not other.fan or self.degree != other.degree:
            raise FanMismatch("cannot add classes of different fans or degrees")
        out = dict(self.terms)
        _accumulate(out, 1, other.terms.items())
        return ChowElement(self.fan, self.degree, out)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        s = _exact(scalar)
        return ChowElement(self.fan, self.degree,
                           {c: v * s for c, v in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return "ChowElement(deg=%d, %d terms)" % (self.degree, len(self.terms))


def _by_sorted_cone(fan, degree, terms):
    """terms keyed by the sorted cones their keys list, listings of one
    cone added up; ConeNotInFan for a key that lists no degree-cone."""
    out = {}
    for key, c in terms.items():
        cone = fan._cone(key)
        if len(cone) != degree:
            raise ConeNotInFan("%r is not a %d-cone of this fan"
                               % (key, degree))
        out[cone] = out.get(cone, 0) + _exact(c)
    return out


class MinkowskiWeight:
    """Rational function on the dim-cones of a fan, balanced: with check,
    check_balanced proves it over the facets of the weight's support, or
    UnbalancedInput names the first cone where it fails.  cap_product
    keeps that check as the runtime proof that its cap is balanced."""

    def __init__(self, fan, dim, values, check=True):
        self.fan = fan
        self.dim = dim
        self.values = {c: _exact(v) for c, v in values.items() if v != 0}
        if check:
            bad = check_balanced(fan, dim, self.values)
            if bad:
                raise UnbalancedInput("balancing fails at cone %r" % (bad[0],))

    def __eq__(self, other):
        return (isinstance(other, MinkowskiWeight) and self.fan is other.fan
                and self.dim == other.dim and self.values == other.values)


def divisor(fan, coeffs):
    """The degree-1 class sum_rho a_rho x_rho of a coefficient per ray."""
    if len(coeffs) != len(fan.rays):
        raise FanMismatch("coefficient vector has wrong length")
    return ChowElement(fan, 1, {(rho,): a for rho, a in enumerate(coeffs)})


def ray_coefficients(D):
    """The coefficient of each ray in a degree-1 class, as a list."""
    if D.degree != 1:
        raise DegreeMismatch("degree %d class is not a divisor" % D.degree)
    a = [0] * len(D.fan.rays)
    for (rho,), c in D.terms.items():
        a[rho] = c
    return a


def unit_class(fan):
    return ChowElement(fan, 0, {(): 1})


def fundamental_weight(fan):
    """The fan's weight, 1 on every maximal cone, after one sweep that fills
    its relation table (`Fan._top_relation`) or raises UnbalancedInput."""
    for tau in fan.cones_of_dim(fan.top_dim - 1):
        if fan._top_relation(tau) is None:
            raise UnbalancedInput("balancing fails at cone %r" % (tau,))
    return MinkowskiWeight(fan, fan.top_dim, fan.weight, check=False)


def linear_relation_class(fan, m):
    """Divisor a_rho = m(u_rho) for a functional m vanishing on lineality.
    Such classes are zero in the Chow ring."""
    m = [_exact(x) for x in m]
    if len(m) != fan.ambient_dim:
        raise FanMismatch("functional has wrong length")
    for v in fan.lineality:
        if sum(a * b for a, b in zip(m, v)) != 0:
            raise NonzeroOnLineality("functional does not vanish on the lineality space")
    return divisor(fan, [sum(a * b for a, b in zip(m, ray)) for ray in fan.rays])


def ray_class(fan, rho):
    return ChowElement(fan, 1, {(rho,): 1})


def _accumulate(out, c, pairs):
    """out += c * pairs, deleting terms that cancel."""
    for key, coef in pairs:
        v = out.get(key, 0) + c * coef
        if v:
            out[key] = v
        elif key in out:
            del out[key]


def _times(fan, a, terms):
    """The terms of D times the sum of the (cone, c) terms, for D =
    sum a[rho] x_rho, a holding D's nonzero coefficients by ray.  At a
    cone where D is nonzero it is the fan-out x_cone * D = sum_rho (a_rho
    - m(u_rho)) x_(cone + rho) over the rays rho extending cone
    (Adiprasito-Huh-Katz), for m the functional vanishing on the
    lineality with m(u_i) = a_i on the rays i of cone, read off its chain
    (`Fan._functional`).  At any other cone m = 0, and it adds a_rho
    x_(cone + rho) over the rays of D that extend cone, read from a or
    the cone's extensions, whichever is smaller."""
    rays = fan.rays
    out = {}
    for cone, c in terms:
        ext = fan._extension_map(cone)
        if not a.keys().isdisjoint(cone):
            m = fan._functional(cone, [a.get(i, 0) for i in cone])
            pairs = [(sigma, x) for rho, sigma in ext.items()
                     if (x := a.get(rho, 0) - sum(map(mul, m, rays[rho])))]
        elif len(a) < len(ext):
            pairs = [(ext[rho], x) for rho, x in a.items() if rho in ext]
        else:
            pairs = [(sigma, a[rho]) for rho, sigma in ext.items() if rho in a]
        _accumulate(out, c, pairs)
    return out


def multiply_by_divisor(elem, D):
    if elem.fan is not D.fan:
        raise FanMismatch("element and divisor live on different fans")
    a = {rho: x for rho, x in enumerate(ray_coefficients(D)) if x}
    return ChowElement(elem.fan, elem.degree + 1,
                       _times(elem.fan, a, elem.terms.items()))


def multiply_by_monomial(elem, cone):
    terms = elem.terms
    for rho in sorted(cone):
        terms = _times(elem.fan, {rho: 1}, terms.items())
    return ChowElement(elem.fan, elem.degree + len(cone), terms)


def _degree(elem):
    """The degree of a top-dimensional class, an int when it is integral:
    the sum of its coefficients, every maximal cone having degree 1."""
    fan = elem.fan
    if elem.degree != fan.top_dim:
        raise DegreeMismatch("degree %d element on a top-dimension-%d fan"
                             % (elem.degree, fan.top_dim))
    return _exact(sum(elem.terms.values()))


def degree(elem):
    """The degree of a top-dimensional class, as a Fraction."""
    return Fraction(_degree(elem))


def _pairings(elem):
    """Walk the complementary-dimension cones in ray order, sharing the
    products of a common prefix of rays, and yield (cone, pairing), an int
    when integral, for each cone that pairs nonzero.  x_sigma x_rho
    vanishes unless rho lies in sigma or extends it, so one pass over a
    node's terms files each term under those rays; the children are built
    one at a time, in ascending ray order, each from its own terms, and a
    vanishing one cuts off its subtree.  A leaf prefix + (rho,) pairs to
    the sum of c deg(x_sigma x_rho) over the terms (sigma, c) filed under
    rho: 1, the degree of the maximal cone sigma + {rho}, when rho extends
    sigma, and -lambda_i when rho is the i-th ray of sigma, for lambda the
    relation of the fan's weight at sigma (`Fan._top_relation`);
    UnbalancedInput, naming sigma, where that weight has none."""
    fan = elem.fan
    k = fan.top_dim - elem.degree
    if k < 0:
        raise DegreeMismatch("element degree above top dimension")
    if k == 0:
        v = _degree(elem)
        return iter([((), v)] if v and () in fan.cones else [])
    return _walk(fan, k, elem.terms, (), 0)


def _walk(fan, k, cur, prefix, next_ray):
    """The walk of `_pairings` below prefix, whose product has the terms
    cur, over the rays from next_ray on.  A module function, not a closure
    of `_pairings`: a closure that calls itself is a reference cycle,
    which would keep the fan alive after the walk until the cyclic
    garbage collector ran."""
    depth = len(prefix)
    stop = len(fan.rays) - (k - depth - 1)
    by_ray = {}
    for cone, c in cur.items():
        for rho in (*cone, *fan._extension_map(cone)):
            if next_ray <= rho < stop:
                by_ray.setdefault(rho, []).append((cone, c))
    for rho in sorted(by_ray):
        terms, tau = by_ray.pop(rho), prefix + (rho,)
        if depth < k - 1:
            nxt = _times(fan, {rho: 1}, terms)
            if nxt:
                yield from _walk(fan, k, nxt, tau, rho + 1)
        elif tau in fan.cones:
            v = 0
            for sigma, c in terms:
                if rho in sigma:
                    lam = fan._top_relation(sigma)
                    if lam is None:
                        raise UnbalancedInput("balancing fails at cone %r"
                                              % (sigma,))
                    v -= c * lam[sigma.index(rho)]
                else:
                    v += c
            if v:
                yield tau, _exact(v)


def pair_all(elem):
    """Pairings of elem against every complementary-dimension cone, as a
    dict cone -> Fraction."""
    out = {tau: Fraction(v) for tau, v in _pairings(elem)}
    for tau in elem.fan.cones_of_dim(elem.fan.top_dim - elem.degree):
        out.setdefault(tau, Fraction(0))
    return out


def nonzero_pairing_witness(elem):
    """The first complementary cone of the pairing walk that pairs nonzero
    with elem, or None.  Poincare duality of the fan's class makes None
    the test that elem is zero."""
    if elem.degree > elem.fan.top_dim:
        return None
    return next((tau for tau, _ in _pairings(elem)), None)


def _pairing_matrix(fan, k):
    """(rows, cols, mat): the k-cones, the (top-k)-cones and the matrix of
    deg(x_sigma x_tau) over them, its entries ints where integral.  One
    pairing walk per column fills it: the walk of x_tau goes to depth k,
    the short side for the k <= top/2 that FanRingModel reads."""
    rows, cols = fan.cones_of_dim(k), fan.cones_of_dim(fan.top_dim - k)
    index = {sigma: i for i, sigma in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, tau in enumerate(cols):
        for sigma, v in _pairings(ChowElement(fan, len(tau), {tau: 1})):
            mat[index[sigma]][j] = v
    return rows, cols, mat


def cap_product(weight, D):
    """Divisor cap Minkowski weight.  At a (dim-1)-cone tau,
    (D cap w)(tau) = sum_rho a_rho w(tau + rho) - sum_i lambda_i
    a_(tau_i), for lambda the relation of w at tau
    (`Fan._relation`): the fan-out x_tau D = sum_rho (a_rho - m(u_rho))
    x_(tau+rho) summed against w, for m vanishing on the lineality with
    m(u_(tau_i)) = a_(tau_i).  The fan's own weight, which cannot change,
    reads its relations from the fan's table (`Fan._top_relation`);
    UnbalancedInput, naming tau, where w has none.  The cap of a balanced
    weight is balanced, and the result is checked all the same: that
    check is the runtime proof of it, and costs the cap's support, whose
    facets alone check_balanced visits."""
    fan = weight.fan
    if D.fan is not fan:
        raise FanMismatch("weight and divisor on different fans")
    a = ray_coefficients(D)
    w = weight.values
    own = weight.dim == fan.top_dim and w == fan.weight
    out = {}
    for tau in fan.cones_of_dim(weight.dim - 1):
        lam = fan._top_relation(tau) if own else fan._relation(tau, w)
        if lam is None:
            raise UnbalancedInput("balancing fails at cone %r" % (tau,))
        total = sum(a[rho] * w.get(sigma, 0) for rho, sigma
                    in fan._extension_map(tau).items()) - \
            sum(map(mul, lam, [a[i] for i in tau]))
        if total:
            out[tau] = total
    # the cap of a weight on the zero cone is the zero weight in dimension
    # -1, which has no cones to balance
    return MinkowskiWeight(fan, weight.dim - 1, out, check=weight.dim > 0)


def negation_relabel(D):
    """Relabel a_S -> a_{S^c} on a flag fan of subsets (the ray map induced
    by negating the ambient space); DimensionMismatch, naming a ray label
    S, where no ray is labelled S^c."""
    fan = D.fan
    full = (1 << fan.ambient_dim) - 1
    a = ray_coefficients(D)
    out = [0] * len(fan.rays)
    for i, S in enumerate(fan.ray_labels):
        j = fan.ray_index.get(full & ~S)
        if j is None:
            raise DimensionMismatch("ray label %s has no complement among "
                                    "the rays of the fan"
                                    % (fan._label_json(S),))
        out[j] = a[i]
    return divisor(fan, out)
