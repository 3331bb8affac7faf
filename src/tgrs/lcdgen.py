"""Constructive recipes for LCD codes on cyclic point sets.

Both recipes place the evaluation points at the n roots of x^n - lambda and
split the multipliers into a head (outside {0, 1, -1}) and a sign tail.  The
gatekeeper r, the coefficient of x^(h-1) in (x^(h-1) + sum_t eta_t x^(k+t-1))
mod g with g vanishing on the head points, is the twist criterion of the head
points with hook h-1: r = 1 - sum_t eta_t d_t for their ``criterion_row`` d.
Recipe 1 needs r != 0; recipe 2 trades the dimension bound for the balance
equation k = (n - l - m)/2 plus a quadratic twist condition.

Both are sufficient conditions: when a gate fails the builder still returns
the spec, flagged inapplicable, so the generic classifier can settle LCD
status independently.

A recipe's parameters are also the template of the twist search, which
varies eta alone: each hit is the template with its eta replaced, so it
passes the same validation, which checks a given root arrangement by
membership alone.  With eta_0..eta_(l-1) fixed, every gate of the search
(the r gate, the quadratic condition and each criterion row) is a linear
condition a = b eta_l, or eta_l^2 = 0, so the search takes its candidates
by prefix and solves each gate for the last coordinate; when the quadratic
condition is eta_l^2 = 0 it pins eta_l = 0 and the gates are solved for
eta_(l-1).  One parameter base, one build body and one JSON reader serve
both recipes and, with the zero twist vector, the search templates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .classify import CodeReport, PhiWorkspace, classify, report_to_json
from .codes import TgrsSpec, element_list, tgrs_spec_to_json
from .errors import ValidationError, VerificationError
from .gf import Field, FieldElement, _is_int, check_int_fields, element_to_json, field_from_json
from .symm import SymContext, criterion_row, distinct_points


def _head_row(field: Field, h: int, width: int, alpha_head: Sequence[FieldElement]) -> tuple:
    """Reps of the criterion row, t < width, of the k-1 head points with hook h-1."""
    return criterion_row(field, [a.rep for a in alpha_head], h - 1, width)


def r_coefficient(k: int, h: int, eta: Sequence[FieldElement],
                  alpha_head: Sequence[FieldElement]) -> FieldElement:
    """Coefficient of x^(h-1) in (x^(h-1) + sum_t eta_t x^(k+t-1)) mod g(x).

    g vanishes on the k-1 head points, so x^(h-1) mod g = x^(h-1) and r =
    1 - sum_t eta_t d_t, d their criterion row with hook h-1; zero eta gives 1.
    """
    check_int_fields({"k": k, "h": h}, ("k", "h"))
    head = tuple(alpha_head)
    if len(head) != k - 1 or k < 2:
        raise ValidationError(f"need k-1 = {k - 1} head points, got {len(head)}")
    distinct_points(head)
    if not 1 <= h <= k - 1:
        raise ValidationError(f"hook must satisfy 1 <= h <= k-1, got h={h}")
    field = head[0].field
    eta = [field.element(e).rep for e in eta]
    if not eta:
        raise ValidationError("eta must have length l+1 >= 1, got 0")
    return FieldElement(field, field._sub(1, field._dot(eta, _head_row(field, h, len(eta), head))))


@dataclass
class HypothesisCheck:
    condition: str
    holds: bool
    evidence: object = None

    def to_json(self) -> dict:
        ev = self.evidence
        if isinstance(ev, FieldElement):
            ev = element_to_json(ev)
        return {"condition": self.condition, "holds": self.holds, "evidence": ev}


@dataclass
class BuildResult:
    """A constructed spec plus the record of every verified hypothesis."""

    spec: TgrsSpec
    record: list[HypothesisCheck]
    applicable: bool

    def to_json(self) -> dict:
        return {
            "spec": tgrs_spec_to_json(self.spec),
            "record": [c.to_json() for c in self.record],
            "applicable": self.applicable,
        }


def _check_signs(field: Field, signs: Sequence) -> tuple[FieldElement, ...]:
    one, minus = field.one(), -field.one()
    out = []
    for i, s in enumerate(signs):
        e = field.element(s)
        if e != one and e != minus:
            raise ValidationError(f"tail multiplier {i} must be 1 or -1")
        out.append(e)
    return tuple(out)


def _check_head(field: Field, head: Sequence, k: int) -> tuple[FieldElement, ...]:
    if field.q < 5:
        raise ValidationError("head multipliers need an element outside {0,1,-1}: q >= 5 required")
    banned = {field.zero(), field.one(), -field.one()}
    out = []
    for i, x in enumerate(head):
        e = field.element(x)
        if e in banned:
            raise ValidationError(f"head multiplier {i} must avoid 0, 1 and -1")
        out.append(e)
    if len(out) != k - 1:
        raise ValidationError(f"need k-1 = {k - 1} head multipliers, got {len(out)}")
    return tuple(out)


def _arrange_roots(field: Field, n: int, lam: FieldElement,
                   alpha: Optional[Sequence[FieldElement]]) -> tuple[FieldElement, ...]:
    """Roots of x^n - lambda, in caller order when given, ascending otherwise."""
    if alpha is None:
        return tuple(field.roots_of_xn_minus_lambda(n, lam))
    given = tuple(field.element(a) for a in alpha)
    # x^n - lambda has at most n roots, so n distinct ones are all of them
    if len(given) != n or len(set(given)) != n or any(a ** n != lam for a in given):
        raise ValidationError("alpha must be a permutation of the roots of x^n - lambda")
    return given


@dataclass(frozen=True, kw_only=True)
class _RecipeParams:
    """The inputs both recipes share: points on the n-th roots of lambda, a
    head and a sign tail of multipliers, hook h and twist vector eta.

    Validation checks that the integer fields are ints (a second recipe's k
    may be None), then runs the cyclic clauses, then the recipe's
    ``_dimension_rule``, which checks the recipe's k and returns its record
    line, then the hook, twist, multiplier and point clauses.
    """

    field: Field
    n: int
    h: int
    l: int
    lam: FieldElement
    eta: tuple[FieldElement, ...]
    v_head: tuple[FieldElement, ...]
    v_tail_signs: tuple[FieldElement, ...]
    alpha: Optional[tuple[FieldElement, ...]] = None

    def __post_init__(self):
        check_int_fields(vars(self), ("n", "h", "l", "k", "m_gap"),
                         optional=("k",) if isinstance(self, Class2Params) else ())
        f, q, n, h, l = self.field, self.field.q, self.n, self.h, self.l
        lam = f.element(self.lam)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "eta", tuple(f.element(e) for e in self.eta))
        # the cyclic clauses, placing n points on the roots of x^n - lambda
        if n < 1:
            raise ValidationError(f"clause 'n >= 1' fails: n={n}")
        if (q - 1) % n != 0:
            raise ValidationError(f"clause 'n | q-1' fails: {n} does not divide {q - 1}")
        if ((q - 1) // n) % lam.order() != 0:
            raise ValidationError(f"clause 'ord(lambda) | (q-1)/n' fails: "
                                  f"ord={lam.order()}, (q-1)/n={(q - 1) // n}")
        self._dimension_rule()
        k = self.k
        if not 1 <= h <= k - 1:
            raise ValidationError(f"clause '1 <= h <= k-1' fails: h={h}, k={k}")
        if not 0 <= l <= n - k - 1:
            raise ValidationError(f"clause '0 <= l <= n-k-1' fails: l={l}")
        if len(self.eta) != l + 1:
            raise ValidationError(f"eta must have length l+1 = {l + 1}")
        object.__setattr__(self, "v_head", _check_head(f, self.v_head, k))
        signs = _check_signs(f, self.v_tail_signs)
        if len(signs) != n - k + 1:
            raise ValidationError(f"need n-k+1 = {n - k + 1} tail multipliers, got {len(signs)}")
        object.__setattr__(self, "v_tail_signs", signs)
        object.__setattr__(self, "alpha", _arrange_roots(f, n, lam, self.alpha))


@dataclass(frozen=True, kw_only=True)
class Class1Params(_RecipeParams):
    """Inputs for the first recipe: 2 <= k <= (n-2l-1)/2 on n-th roots of lambda."""

    k: int

    def _dimension_rule(self) -> HypothesisCheck:
        bound = (self.n - 2 * self.l - 1) // 2
        if not 2 <= self.k <= bound:
            raise ValidationError(
                f"clause '2 <= k <= (n-2l-1)/2' fails: k={self.k}, bound={bound}")
        return HypothesisCheck("2 <= k <= (n-2l-1)/2", True, {"k": self.k, "bound": bound})


@dataclass(frozen=True, kw_only=True)
class Class2Params(_RecipeParams):
    """Inputs for the second recipe: k = (n-l-m)/2 with a quadratic twist gate."""

    m_gap: int
    k: Optional[int] = None

    def _dimension_rule(self) -> HypothesisCheck:
        n, l, m = self.n, self.l, self.m_gap
        if not 0 <= m <= l:
            raise ValidationError(f"clause '0 <= m <= l' fails: m={m}, l={l}")
        if (n - l - m) % 2 != 0:
            raise ValidationError(f"clause 'n-l-m even' fails: n-l-m = {n - l - m}")
        k = (n - l - m) // 2
        if self.k is not None and self.k != k:
            raise ValidationError(f"k must equal (n-l-m)/2 = {k}, got {self.k}")
        object.__setattr__(self, "k", k)
        if k < 2:
            raise ValidationError(f"clause 'k = (n-l-m)/2 >= 2' fails: k={k}")
        return HypothesisCheck("k = (n-l-m)/2 >= 2", True, {"k": k, "m": m})


def _base_record(p: _RecipeParams) -> list[HypothesisCheck]:
    q = p.field.q
    return [
        HypothesisCheck("n divides q-1", True, {"n": p.n, "q": q}),
        HypothesisCheck("ord(lambda) divides (q-1)/n", True,
                        {"ord": p.lam.order(), "quotient": (q - 1) // p.n}),
        p._dimension_rule(),
        HypothesisCheck("1 <= h <= k-1", True, {"h": p.h}),
        HypothesisCheck("0 <= l <= n-k-1", True, {"l": p.l}),
        HypothesisCheck("head multipliers avoid {0,1,-1}", True,
                        [element_to_json(x) for x in p.v_head]),
        HypothesisCheck("tail multipliers lie in {1,-1}", True,
                        [element_to_json(x) for x in p.v_tail_signs]),
        HypothesisCheck("alpha is the full root set of x^n - lambda", True,
                        {"n": p.n, "lambda": element_to_json(p.lam)}),
    ]


def _expect(params, *classes: type) -> None:
    if not isinstance(params, classes):
        names = " or ".join(cls.__name__ for cls in classes)
        raise ValidationError(f"this recipe takes {names}, got {type(params).__name__}")


def _build(p: _RecipeParams, *gates: HypothesisCheck) -> BuildResult:
    """The record with the r gate before the recipe's own ``gates``, and the
    spec; applicable exactly when every line of the record holds."""
    r = r_coefficient(p.k, p.h, p.eta, p.alpha[: p.k - 1])
    record = [*_base_record(p), HypothesisCheck("r coefficient is nonzero", not r.is_zero(), r),
              *gates]
    spec = TgrsSpec(field=p.field, n=p.n, k=p.k, l=p.l, h=p.h,
                    alpha=p.alpha, v=p.v_head + p.v_tail_signs, eta=p.eta)
    return BuildResult(spec=spec, record=record, applicable=all(c.holds for c in record))


def build_class1(params: Class1Params) -> BuildResult:
    """First recipe; applicable (hence LCD) exactly when the r gate is nonzero."""
    _expect(params, Class1Params)
    return _build(params)


def _quadratic_rep(field: Field, eta: Sequence, m_gap: int):
    """The rep of sum over t = m..l of eta_t eta_{l+m-t}, for eta given as reps."""
    tail = eta[m_gap:]
    return field._dot(tail, tail[::-1])


def quadratic_twist_sum(eta: Sequence[FieldElement], m_gap: int) -> FieldElement:
    """sum over t = m..l of eta_t eta_{l+m-t}."""
    check_int_fields({"m_gap": m_gap}, ("m_gap",))
    eta = list(eta)
    if not eta:
        raise ValidationError("eta must have length l+1 >= 1, got 0")
    l = len(eta) - 1
    if not 0 <= m_gap <= l:
        raise ValidationError(f"gap must lie in 0..{l}")
    field = eta[0].field
    return FieldElement(field, _quadratic_rep(field, [field.element(e).rep for e in eta], m_gap))


def build_class2(params: Class2Params) -> BuildResult:
    """Second recipe; needs the r gate and the quadratic twist sum to vanish."""
    _expect(params, Class2Params)
    qsum = quadratic_twist_sum(params.eta, params.m_gap)
    # cross-check against the tail-sum form, which collapses to the same
    # quadratic on a full root set of x^n - lambda; the context computes
    # only its series for it
    psi = SymContext(params.alpha).psi_values(params.eta)
    l, m = params.l, params.m_gap
    psum = sum((params.eta[t] * psi[l + m - t] for t in range(m, l + 1)), params.field.zero())
    if psum != qsum:
        raise VerificationError("tail-sum form disagrees with the quadratic twist sum")
    return _build(params, HypothesisCheck("quadratic twist sum vanishes", qsum.is_zero(), qsum))


# -- twist vector search ---------------------------------------------------------

@dataclass
class SearchHit:
    eta: tuple[FieldElement, ...]
    r_value: FieldElement
    report: CodeReport

    def to_json(self) -> dict:
        return {
            "eta": [element_to_json(e) for e in self.eta],
            "r": element_to_json(self.r_value),
            "report": report_to_json(self.report),
        }


def search_eta(template: Class1Params | Class2Params, budget: int,
               seed: int = 0) -> list[SearchHit]:
    """Enumerate twist vectors passing all gates plus the MDS criterion.

    ``template`` is a recipe's parameters; its own eta is ignored, and each
    hit replaces it, so the hit's build re-runs the recipe's validation.
    The budget alone picks the candidates: all q^(l+1) of them when they fit,
    otherwise the distinct values of ``budget`` random draws seeded by the
    integer ``seed``, so a search without one reruns the same.  Candidate
    indices are read in ascending order, which is lexicographic twist order,
    so hits come back sorted.

    Candidates are taken by prefix, eta_0..eta_(s-1) fixed and the live set
    of eta_s the indices give it, and every gate is solved for eta_s on
    reps, s = l in general.  The quadratic gate of the second recipe with
    m = l >= 1 is eta_l^2 = 0, so there only the candidates with eta_l = 0
    are taken (every q-th index, or the draws that are) and s = l - 1;
    otherwise it keeps its solutions for eta_l (eta_l = 0 when m = l = 0,
    else the roots of a linear equation).  The zero twist drops 0 from the
    zero prefix, the r gate crosses out the root of r = 0, and the
    criterion crosses out the root of each row it reads
    (``PhiWorkspace._survivors``).  FieldElements, builds and classification
    are made only for hits; every classification goes through the search's
    one criterion table, whose row budget counts per search and whose one
    point-set context every hit's generator and parity check read.  A hit
    whose recipe build is inapplicable, so that the search's gates and the
    recipe's record disagree, raises VerificationError.
    """
    _expect(template, Class1Params, Class2Params)
    if not _is_int(budget) or budget <= 0:
        raise ValidationError(f"search budget must be a positive integer, got {budget!r}")
    if not _is_int(seed):
        raise ValidationError(f"search seed must be an integer, got {seed!r}")
    f, q, l = template.field, template.field.q, template.l
    second = isinstance(template, Class2Params)
    m = template.m_gap if second else None
    # with m = l >= 1 the quadratic gate is eta_l^2 = 0, so eta_l is pinned to
    # 0 and the gates are solved for eta_(l-1) instead
    pinned = second and m == l >= 1
    s = l - 1 if pinned else l  # the coordinate every gate is solved for
    step = q ** (l - s)  # index step between candidates: eta_(s+1).. = 0
    space = q ** (l + 1)
    if space <= budget:
        indices = range(0, space, step)
    else:
        rng = random.Random(seed)
        indices = [i for i in sorted({rng.randrange(space) for _ in range(budget)})
                   if i % step == 0]
    r_row = _head_row(f, template.h, l + 1, template.alpha[: template.k - 1])
    table = PhiWorkspace(template.alpha, template.k, template.h, l)
    hits = []
    weights = [q ** (s - 1 - t) for t in range(s)]  # eta_0 is the most significant digit
    for index, group in itertools.groupby(indices, lambda i: i // (step * q)):
        prefix = tuple(index // w % q for w in weights)
        live = {i // step % q for i in group}
        if not any(prefix):
            live.discard(0)  # the MDS-certifying set excludes the zero twist
        if second and not pinned:
            # the quadratic sum is eta_l^2 when m = l = 0, else c0 + 2 eta_m eta_l
            roots = (0,) if m == l else f._solve(f._neg(_quadratic_rep(f, prefix + (0,), m)),
                                                 f._add(prefix[m], prefix[m]))
            if roots is not None:
                live.intersection_update(roots)
            if not live:
                continue
        roots = f._solve(f._sub(1, f._dot(prefix, r_row)), r_row[s])  # the x with r = 0
        if roots is None:
            continue
        live.difference_update(roots)
        for x in table._survivors(prefix, live):
            eta = prefix + (x,) + (0,) * (l - s)
            params = replace(template, eta=tuple(FieldElement(f, e) for e in eta))
            build = build_class2(params) if second else build_class1(params)
            if not build.applicable:
                raise VerificationError(f"eta {[element_to_json(e) for e in params.eta]} passes "
                                        f"the search's gates but its recipe build is inapplicable")
            report = classify(build.spec, workspace=table)
            r = FieldElement(f, f._sub(1, f._dot(eta, r_row)))
            hits.append(SearchHit(eta=params.eta, r_value=r, report=report))
    return hits


# -- JSON wire format ----------------------------------------------------------

def params_from_json(obj, klass: int) -> Class1Params | Class2Params:
    """The parameters of recipe ``klass`` (1 or 2) from their JSON object.

    The field is a prime ``q`` or a ``field`` object; ``alpha`` is optional,
    and so is ``k`` for the second recipe.  An ``m_gap`` given to the first
    recipe must be an integer and is otherwise ignored.
    """
    if not isinstance(obj, dict):
        raise ValidationError("parameters must be a JSON object")
    if "field" in obj:
        f = field_from_json(obj["field"])
    elif "q" in obj:
        f = Field(obj["q"])
    else:
        raise ValidationError("parameters need either 'q' (prime) or a 'field' object")
    ints = ("n", "k", "h", "l") if klass == 1 else ("n", "h", "l", "m_gap")
    check_int_fields(obj, ints, optional=("m_gap",) if klass == 1 else ("k",))
    missing = [key for key in (*ints, "lambda", "eta", "v_head", "v_tail_signs")
               if key not in obj]
    if missing:
        raise ValidationError(f"parameters missing fields: {', '.join(missing)}")
    kwargs = {key: obj.get(key) for key in (*ints, "k")}  # k is optional for recipe 2
    return (Class1Params if klass == 1 else Class2Params)(
        field=f, lam=f.element(obj["lambda"]), eta=element_list(f, obj, "eta"),
        v_head=element_list(f, obj, "v_head"), v_tail_signs=element_list(f, obj, "v_tail_signs"),
        alpha=element_list(f, obj, "alpha") if "alpha" in obj else None, **kwargs)


def template_from_json(obj) -> Class1Params | Class2Params:
    """A search template: the parameters of recipe ``"class"`` (default 1) with
    the zero twist vector in place of ``eta``."""
    if not isinstance(obj, dict):
        raise ValidationError("parameters must be a JSON object")
    check_int_fields(obj, ("class", "n", "l"))
    klass, n, l = obj.get("class", 1), obj.get("n", 0), obj.get("l", 0)
    if klass not in (1, 2):
        raise ValidationError("template class must be 1 or 2")
    # an l outside 0..n-1 fails its recipe clause before eta's length is read
    return params_from_json({**obj, "eta": [0] * (l + 1 if 0 <= l < n else 1)}, klass)
