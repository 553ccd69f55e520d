import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errbounds import (
    BoxDomain,
    CapabilityError,
    QuadratureRule,
    ScalarField,
    VectorField,
    constant_scalar,
    default_suite_config,
    emit,
    gradient_field,
    run,
    scalar_field,
    space_nodes,
    vector_field,
    zero_scalar,
    zero_vector,
)
from errbounds import fields
from errbounds.fields import SeparatedSum, form_values
from errbounds.manufactured import _gradient, _random_trig, _rotgrad, _scalar
from errbounds.quadrature import spacetime_nodes
from errbounds.symbolic import data_field, parse

DOM1 = BoxDomain((0.0,), (1.0,))
DOM2 = BoxDomain((0.0, 0.0), (2.0, 1.0))
TDOM = BoxDomain((0.0,), (1.0,), time_horizon=2.0)


def without_forms(field, wrap=None):
    """``field`` rebuilt as a leaf through the public constructors from its
    evaluators, each passed through ``wrap(name, evaluator)`` if given: it
    carries no form, so its norms are taken on the full grid."""
    ev = {name: field.evaluator(name) for name in field.capabilities}
    if wrap is not None:
        ev = {name: wrap(name, fn) for name, fn in ev.items()}
    if isinstance(field, ScalarField):
        return ScalarField(**ev, dim=field.dim,
                           time_dependent=field.time_dependent,
                           vanishes_on_boundary=field.vanishes_on_boundary)
    return VectorField(**ev, dim=field.dim, time_dependent=field.time_dependent)


def _capabilities(field):
    return {name for name in ("value", "grad", "laplacian", "dt", "div")
            if name == "value" or getattr(field, f"has_{name}", False)}


def test_box_domain_validation():
    with pytest.raises(ValueError):
        BoxDomain((0.0,), (0.0,))  # degenerate axis
    with pytest.raises(ValueError):
        BoxDomain((1.0,), (0.0,))  # inverted
    with pytest.raises(ValueError):
        BoxDomain((0.0,), (1.0,), time_horizon=0.0)
    with pytest.raises(ValueError):
        BoxDomain((0.0, 0.0), (1.0,))


def test_box_domain_properties():
    assert DOM2.dim == 2
    assert DOM2.sides == (2.0, 1.0)
    assert not DOM2.is_parabolic
    assert TDOM.is_parabolic
    assert TDOM.spatial().time_horizon is None
    assert TDOM.spatial().lower == TDOM.lower


def test_spatial_box_is_built_once_per_box():
    dom = BoxDomain((0.0, -1.0), (1.0, 2.0), time_horizon=0.5)
    before = repr(dom), hash(dom)
    space = dom.spatial()
    assert space is dom.spatial()
    fresh = BoxDomain((0.0, -1.0), (1.0, 2.0))
    assert space == fresh and hash(space) == hash(fresh)
    assert repr(space) == repr(fresh)
    # the box it holds is no field: equality, hash and repr do not see it
    assert (repr(dom), hash(dom)) == before
    assert dom == BoxDomain((0.0, -1.0), (1.0, 2.0), time_horizon=0.5)
    assert DOM2.spatial() is DOM2 and fresh.spatial() is fresh


def test_scalar_field_evaluation_and_flags():
    u = scalar_field("sin(pi*x)", DOM1)
    X = np.array([[0.25], [0.5]])
    assert u.value(X) == pytest.approx(np.sin(np.pi * X[:, 0]))
    assert u.grad(X)[:, 0] == pytest.approx(np.pi * np.cos(np.pi * X[:, 0]))
    assert u.vanishes_on_boundary
    v = scalar_field("cos(pi*x)", DOM1)
    assert not v.vanishes_on_boundary


def test_capability_errors():
    u = scalar_field("sin(pi*x)", DOM1).restricted(boundary_flag=True)
    X = np.array([[0.5]])
    assert u.value(X) == pytest.approx([1.0])
    for getter in (u.grad, u.laplacian):
        with pytest.raises(CapabilityError):
            getter(X)
    assert not u.has_grad and not u.has_laplacian
    with pytest.raises(CapabilityError):
        u.gradient_field()
    p = vector_field(["x"], DOM1).restricted()
    with pytest.raises(CapabilityError):
        p.div(X)


def test_field_algebra():
    u = scalar_field("sin(pi*x)", DOM1)
    v = scalar_field("sin(2*pi*x)", DOM1)
    X = np.linspace(0.05, 0.95, 7)[:, None]
    w = 2.0 * u - v
    assert w.value(X) == pytest.approx(2 * u.value(X) - v.value(X))
    assert w.grad(X) == pytest.approx(2 * u.grad(X) - v.grad(X))
    assert w.laplacian(X) == pytest.approx(2 * u.laplacian(X) - v.laplacian(X))
    assert w.vanishes_on_boundary  # AND of both flags
    nc = scalar_field("cos(pi*x)", DOM1)
    assert not (u + nc).vanishes_on_boundary
    assert (-u).value(X) == pytest.approx(-u.value(X))


def test_vector_field_algebra():
    p = vector_field(["x*y", "y**2"], DOM2)
    q = vector_field(["y", "x"], DOM2)
    X = np.array([[0.5, 0.25], [1.5, 0.75]])
    r = p - 3.0 * q
    assert r.value(X) == pytest.approx(p.value(X) - 3 * q.value(X))
    assert r.div(X) == pytest.approx(p.div(X) - 3 * q.div(X))


def test_derived_fields_consistent():
    u = scalar_field("sin(pi*x)*sin(pi*y)", DOM2)
    X = np.array([[0.3, 0.4], [1.1, 0.9]])
    g = u.gradient_field()
    assert g.value(X) == pytest.approx(u.grad(X))
    assert g.div(X) == pytest.approx(u.laplacian(X))
    assert u.laplacian_field().value(X) == pytest.approx(u.laplacian(X))


def test_at_time_slices():
    u = scalar_field("exp(-t)*sin(pi*x)", TDOM)
    s = u.at_time(1.0)
    X = np.array([[0.5]])
    assert not s.time_dependent
    assert s.value(X) == pytest.approx(math.exp(-1.0) * np.array([1.0]))
    assert s.grad(X)[:, 0] == pytest.approx([0.0], abs=1e-12)
    assert s.vanishes_on_boundary


def test_dt_field():
    u = scalar_field("t**2*sin(pi*x)", TDOM)
    t = np.array([0.5, 1.0])
    X = np.array([[0.5], [0.5]])
    assert u.dt_field().value(t, X) == pytest.approx(2 * t)


def test_constant_and_zero_helpers():
    X = np.array([[0.2], [0.8]])
    c = constant_scalar(3.0, DOM1)
    assert c.value(X) == pytest.approx([3.0, 3.0])
    assert c.grad(X)[:, 0] == pytest.approx([0.0, 0.0])
    z = zero_scalar(DOM1)
    assert z.value(X) == pytest.approx([0.0, 0.0])
    assert z.vanishes_on_boundary
    zv = zero_vector(DOM1)
    assert zv.value(X)[:, 0] == pytest.approx([0.0, 0.0])
    assert zv.div(X) == pytest.approx([0.0, 0.0])


def test_gradient_field_constructor():
    g = gradient_field("sin(pi*x)*y", DOM2)
    X = np.array([[0.5, 0.5]])
    assert g.value(X)[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert g.value(X)[0, 1] == pytest.approx(1.0)


# --------------------------------------------------------------------------
# one evaluator map: capabilities under the shared algebra
# --------------------------------------------------------------------------

def test_scalar_capabilities_intersect_under_sum_and_scale():
    u = scalar_field("(1+t)*sin(pi*x)", TDOM)
    v = u.restricted(grad=True)
    w = u + 2.0 * v
    assert (w.has_grad, w.has_laplacian, w.has_dt) == (True, False, False)
    s = -3.0 * v
    assert (s.has_grad, s.has_laplacian, s.has_dt) == (True, False, False)
    assert (u * 0.5).has_laplacian and (u - u).has_dt
    with pytest.raises(CapabilityError, match="scalar field carries no "
                                              "laplacian evaluator"):
        w.laplacian_field()
    with pytest.raises(CapabilityError, match="scalar field carries no "
                                              "time-derivative evaluator"):
        w.dt_field()


def test_vector_capabilities_intersect_under_sum_and_scale():
    p = vector_field(["(1+t)*x"], TDOM)
    q = p.restricted(dt=True)
    r = p - 2.0 * q
    assert (r.has_div, r.has_dt) == (False, True)
    assert (p * 0.5).has_div and (p + p).has_dt
    with pytest.raises(CapabilityError, match="vector field carries no "
                                              "divergence evaluator"):
        r.div_field()
    with pytest.raises(CapabilityError, match="vector field carries no "
                                              "time-derivative evaluator"):
        p.restricted(div=True).dt_field()


def test_fields_combine_only_with_their_rank():
    u = scalar_field("sin(pi*x)", DOM1)
    p = vector_field(["x"], DOM1)
    with pytest.raises(TypeError, match="ScalarField with ScalarField"):
        u + p
    with pytest.raises(TypeError, match="VectorField with VectorField"):
        p + u
    with pytest.raises(ValueError, match="incompatible domains"):
        u + scalar_field("(1+t)*sin(pi*x)", TDOM)
    with pytest.raises(TypeError):
        u.restricted(div=True)
    with pytest.raises(TypeError):
        p.restricted(boundary_flag=True)


@pytest.mark.parametrize("fields_, coefs, counts", [
    (2, [1.0], "got 2 and 1"), (1, [1.0, 2.0], "got 1 and 2"),
    (0, [], "got 0 and 0"), (0, [1.0], "got 0 and 1")])
def test_combination_refuses_unequal_or_empty_lists(fields_, coefs, counts):
    # a field without its coefficient would be dropped from the sum
    u, v = scalar_field("sin(pi*x)", DOM1), scalar_field("x*(1 - x)", DOM1)
    with pytest.raises(ValueError, match=counts):
        fields.combination([u, v][:fields_], coefs)


def test_at_time_drops_dt_and_keeps_the_rest():
    u = scalar_field("(1+t)*sin(pi*x)", TDOM)
    s = u.at_time(0.5)
    assert (s.has_grad, s.has_laplacian, s.has_dt) == (True, True, False)
    assert s.vanishes_on_boundary and not s.time_dependent
    p = vector_field(["(1+t)*x"], TDOM).at_time(0.5)
    assert (p.has_div, p.has_dt, p.time_dependent) == (True, False, False)
    X = np.array([[0.25]])
    assert p.value(X)[0, 0] == pytest.approx(0.375)
    with pytest.raises(ValueError):
        s.at_time(0.0)


def test_restricted_keeps_value_only_by_default():
    u = scalar_field("(1+t)*sin(pi*x)", TDOM)
    t, X = np.array([0.5]), np.array([[0.25]])
    r = u.restricted()
    assert not (r.has_grad or r.has_laplacian or r.has_dt)
    assert not r.vanishes_on_boundary
    assert np.array_equal(r.value(t, X), u.value(t, X))
    assert u.restricted(boundary_flag=True).vanishes_on_boundary
    p = vector_field(["(1+t)*x"], TDOM)
    q = p.restricted()
    assert not (q.has_div or q.has_dt)
    assert np.array_equal(q.value(t, X), p.value(t, X))


def test_dt_field_of_a_vector_field():
    p = vector_field(["t**2*x"], TDOM)
    t = np.array([0.5, 1.0])
    X = np.array([[0.5], [0.25]])
    d = p.dt_field()
    assert not (d.has_div or d.has_dt)
    assert d.value(t, X)[:, 0] == pytest.approx(2 * t * X[:, 0])


# --------------------------------------------------------------------------
# the node algebra against the eager algebra it replaced
# --------------------------------------------------------------------------
#
# A reference is what the eager algebra built for a field: its rank, its
# capabilities, its boundary flag and, per capability, an evaluator and a
# form made at once from those of the operands. Trees of +, -, scalar *,
# views, at_time and restricted over sympy fields (one of them not
# separable) and fields that are their forms must give the same
# capabilities, flags, CapabilityError messages, evaluator bits and raw
# form terms.

NODE_DOMS = [BoxDomain((0.0, 0.0), (2.0, 1.0)),
             BoxDomain((0.0, 0.0), (1.0, 1.0), time_horizon=1.0)]
NODE_RULE = QuadratureRule(space_order=3, time_order=3)
NOUNS = {"grad": "gradient", "laplacian": "laplacian",
         "dt": "time-derivative", "div": "divergence"}
RANKS = {"scalar": ("value", "grad", "laplacian", "dt"),
         "vector": ("value", "div", "dt")}


class Refused(Exception):
    """Both algebras refused a tree, with one message."""


class Ref:
    def __init__(self, rank, td, vanishes, ev, forms):
        self.rank, self.td, self.vanishes = rank, td, vanishes
        self.ev, self.forms = ev, forms  # name -> callable, name -> form


def _each(op, form):
    return None if form is None else (
        tuple(map(op, form)) if isinstance(form, tuple) else op(form))


def _eager_forms(rank, value, dim, td, **given):
    """The forms the eager algebra derived from a leaf's value form."""
    o = int(td)

    def div(v):
        return None if v is None else SeparatedSum.combination(
            [vj.derivative(o + j) for j, vj in enumerate(v)], [1.0] * len(v))

    forms = {"value": value, "dt": _each(lambda s: s.derivative(0), value)}
    if rank == "scalar":
        grad = None if value is None else tuple(
            value.derivative(o + j) for j in range(dim))
        forms.update(grad=grad, laplacian=div(grad))
    else:
        forms["div"] = div(value)
    forms.update(given)
    return forms


def _leaf_ref(field, forms, is_forms):
    rank = "scalar" if isinstance(field, ScalarField) else "vector"
    caps = field.capabilities
    forms = {k: f for k, f in forms.items() if k in caps}
    if is_forms:
        ev = {k: (lambda *a, f=f: form_values(f, a, field.dim))
              for k, f in forms.items()}
    else:
        ev = {k: field.evaluator(k) for k in caps}
    vanishes = rank == "scalar" and field.vanishes_on_boundary
    return Ref(rank, field.time_dependent, vanishes, ev, forms)


def _node_leaves(dom):
    td = dom.is_parabolic
    ts = _random_trig(dom, np.random.default_rng(4))
    gx, gy = (ts.derivative(int(td) + j) for j in range(2))
    rot = (SeparatedSum.combination([gy], [-1.0]), gx)
    u = scalar_field(("(1+t)*" if td else "") + "sin(pi*x)*sin(pi*y)", dom)
    w = scalar_field("sin(pi*x*y)", dom)
    d = data_field(parse("x*y + 1", 2, td), 2, td)
    p = vector_field(["x*y", "sin(pi*x*y)"], dom)
    const = constant_scalar(0.5, dom)
    fields = {
        "u": (u, u.separated(), False), "w": (w, None, False),
        "d": (d, d.separated(), False), "p": (p, None, False),
        "s": (_scalar(ts, dom, True), ts, True),
        "c": (const, const.separated(), True),
        "g": (_gradient(ts, dom), (gx, gy), True),
        "r": (_rotgrad(ts, dom), rot, True),
        "z": (zero_vector(dom), (SeparatedSum((), ()),) * 2, True),
    }
    leaves = {}
    for name, (field, value, is_forms) in fields.items():
        rank = "scalar" if isinstance(field, ScalarField) else "vector"
        given = {}
        if name == "r":  # rotated: the gradient's dt rotated, div empty
            gdt = [g.derivative(0) for g in (gx, gy)] if td else [gx, gy]
            given = {"div": SeparatedSum((), ()),
                     "dt": (SeparatedSum.combination([gdt[1]], [-1.0]),
                            gdt[0])}
        forms = _eager_forms(rank, value, 2, td, **given)
        leaves[name] = (field, _leaf_ref(field, forms, is_forms))
    return leaves


def _sum_ref(refs, coefs):
    caps = set.intersection(*(set(r.ev) for r in refs))

    def evaluator(name):
        def evaluate(*args):
            out = None
            for c, r in zip(coefs, refs):
                v = r.ev[name](*args) if c == 1.0 else c * r.ev[name](*args)
                out = v if out is None else out + v
            return out
        return evaluate

    def form(name):
        forms = [r.forms.get(name) for r in refs]
        if any(f is None for f in forms):
            return None
        if isinstance(forms[0], tuple):
            return tuple(SeparatedSum.combination(c, coefs)
                         for c in zip(*forms))
        return SeparatedSum.combination(forms, coefs)

    return Ref(refs[0].rank, refs[0].td, all(r.vanishes for r in refs),
               {k: evaluator(k) for k in caps}, {k: form(k) for k in caps})


def _view_ref(ref, rank, vanishes=False, t0=None, **names):
    first = names["value"]
    if first not in ref.ev:
        raise CapabilityError(f"{ref.rank} field carries no {NOUNS[first]} "
                              "evaluator")
    names = {k: n for k, n in names.items() if n in ref.ev}
    ev = {k: ref.ev[n] for k, n in names.items()}
    forms = {k: ref.forms.get(n) for k, n in names.items()}
    if t0 is not None:
        ev = {k: (lambda X, f=f: f(np.full(X.shape[0], t0), X))
              for k, f in ev.items()}
        forms = {k: _each(lambda s: s.at(t0), f) for k, f in forms.items()}
    return Ref(rank, ref.td and t0 is None, vanishes, ev, forms)


def _build(spec, leaves):
    """The node of ``spec`` and the eager algebra's reference for it."""
    op, *rest = spec
    if op == "leaf":
        return leaves[rest[0]]
    if op in ("+", "-"):
        (a, ra), (b, rb) = (_build(s, leaves) for s in rest)
        sign = 1.0 if op == "+" else -1.0
        return (a + b if op == "+" else a - b), _sum_ref([ra, rb], [1.0, sign])
    if op == "*":
        a, ra = _build(rest[1], leaves)
        return rest[0] * a, _sum_ref([ra], [rest[0]])
    a, ra = _build(rest[-1], leaves)
    if op == "at":
        if not ra.td:
            with pytest.raises(ValueError, match="requires a space-time"):
                a.at_time(rest[0])
            raise Refused
        names = {k: k for k in ra.ev if k != "dt"}
        return a.at_time(rest[0]), _view_ref(ra, ra.rank, ra.vanishes,
                                             rest[0], **names)
    if op == "restricted":
        keep = rest[0]
        names = {k: k for k in ra.ev if k == "value" or keep.get(k)}
        return a.restricted(**keep), _view_ref(
            ra, ra.rank, ra.vanishes and keep.get("boundary_flag", False),
            **names)
    views = {"grad": ("gradient_field", "vector",
                      {"value": "grad", "div": "laplacian"}),
             "lap": ("laplacian_field", "scalar", {"value": "laplacian"}),
             "div": ("div_field", "scalar", {"value": "div"}),
             "dt": ("dt_field", ra.rank, {"value": "dt"})}
    method, rank, names = views[op]
    try:
        ref = _view_ref(ra, rank, **names)
    except CapabilityError as exc:
        with pytest.raises(CapabilityError) as got:
            getattr(a, method)()
        assert str(got.value) == str(exc)
        raise Refused from None
    return getattr(a, method)(), ref


def L(name):
    return ("leaf", name)


NODE_TREES = {
    "scalar sum": ("+", L("u"), L("s")),
    "sum without a form": ("-", L("s"), L("w")),
    "scaled sum": ("*", -2.5, ("+", L("u"), L("c"))),
    "gradient of a difference": ("grad", ("-", L("u"), L("s"))),
    "laplacian of a sum": ("lap", ("+", ("*", 3.0, L("s")), L("u"))),
    "restricted difference": ("+", ("restricted", {"grad": True,
                                                   "boundary_flag": True},
                                    ("-", L("u"), L("s"))), L("s")),
    "restriction without the flag": ("-", ("restricted", {"grad": True,
                                                          "laplacian": True},
                                            ("+", L("u"), L("s"))), L("s")),
    "gradient of a restriction": ("grad", ("+", ("restricted", {}, L("u")),
                                           L("w"))),
    "laplacian of data": ("lap", ("+", L("d"), L("u"))),
    "slice of a difference": ("at", 0.3, ("-", L("u"), L("s"))),
    "gradient of a slice": ("grad", ("at", 0.3, ("+", L("s"), L("w")))),
    "time derivative of a sum": ("dt", ("+", L("u"), ("*", 2.0, L("s")))),
    "vector sum": ("+", L("g"), L("r")),
    "divergence of a difference": ("div", ("-", L("g"), ("*", 0.5, L("r")))),
    "vector sum without a form": ("-", L("p"), L("z")),
    "gradient view in a sum": ("+", ("grad", L("u")), L("g")),
    "restricted vector sum": ("restricted", {"dt": True},
                              ("+", L("g"), L("r"))),
    "vector slice": ("at", 0.7, ("+", L("g"), L("p"))),
    "time derivative of a vector sum": ("dt", ("+", L("g"), L("r"))),
    "divergence of a restriction": ("div", ("restricted", {},
                                            ("+", L("g"), L("z")))),
}


def _raw(form):
    return [(list(map(float.hex, s.coefs)), s.factors)
            for s in (form if isinstance(form, tuple) else (form,))]


def _bytes(values):
    return values.shape, values.dtype, values.tobytes()


@pytest.mark.parametrize("dom", NODE_DOMS, ids=["elliptic", "parabolic"])
@pytest.mark.parametrize("tree", NODE_TREES)
def test_nodes_match_the_eager_algebra(tree, dom):
    try:
        node, ref = _build(NODE_TREES[tree], _node_leaves(dom))
    except Refused:
        return
    rank = "scalar" if isinstance(node, ScalarField) else "vector"
    assert rank == ref.rank and node.time_dependent == ref.td
    assert node.capabilities == set(ref.ev)
    assert _capabilities(node) == set(ref.ev)
    if rank == "scalar":
        assert node.vanishes_on_boundary is ref.vanishes
    box = dom if node.time_dependent else dom.spatial()
    args = (spacetime_nodes(box, NODE_RULE)[:2] if node.time_dependent
            else space_nodes(box, NODE_RULE)[:1])
    copies = tuple(a.copy() for a in args)
    for name in RANKS[rank]:
        if name not in ref.ev:
            with pytest.raises(CapabilityError) as got:
                getattr(node, name)(*args)
            assert str(got.value) == (f"{rank} field carries no "
                                      f"{NOUNS[name]} evaluator")
            continue
        form, expected = node.form(name), ref.forms[name]
        assert (form is None) == (expected is None), name
        if form is not None:
            assert _raw(form) == _raw(expected), name
        for on in (args, copies, args):
            values = getattr(node, name)(*on)
            assert _bytes(values) == _bytes(ref.ev[name](*on)), name
            if form is not None:
                assert _bytes(form_values(form, on, dom.dim)) == _bytes(
                    form_values(expected, on, dom.dim)), name


def test_a_warm_suite_pass_builds_no_evaluator(monkeypatch, tmp_path):
    # every norm of the default suite integrates forms: once its cases and
    # directions exist, a pass asks no field for an evaluator, so none is
    # built and no combination makes its evaluator
    config = default_suite_config()
    run(config)
    built = []
    build = fields._Field._build_evaluator
    combined = fields._combined
    monkeypatch.setattr(fields._Field, "_build_evaluator",
                        lambda self, name: built.append(name) or
                        build(self, name))
    monkeypatch.setattr(fields, "_combined", lambda *args: built.append(
        "combined") or combined(*args))
    report = run(config)
    emit(report, ["json", "csv", "plotdata"], tmp_path)
    assert len(report.records) == 180
    assert all(r["status"] == "ok" for r in report.records)
    assert built == []


def test_a_box_and_a_rule_hash_as_the_tuple_of_their_fields():
    # the hash is kept beside the fields: equal boxes hash equal, as the
    # tuple of their fields, and equality, repr and replace are the fields'
    import dataclasses

    from errbounds.quadrature import QuadratureRule
    box = BoxDomain((0, -1), (1, 0.5), time_horizon=2)
    same = BoxDomain([0.0, -1.0], [1.0, 0.5], 2.0)
    assert box == same and hash(box) == hash(same)
    assert hash(box) == hash(((0.0, -1.0), (1.0, 0.5), 2.0))
    assert hash(box.spatial()) == hash(((0.0, -1.0), (1.0, 0.5), None))
    assert repr(box) == ("BoxDomain(lower=(0.0, -1.0), upper=(1.0, 0.5), "
                         "time_horizon=2.0)")
    assert [f.name for f in dataclasses.fields(box)] == [
        "lower", "upper", "time_horizon"]
    other = dataclasses.replace(box, time_horizon=1.0)
    assert hash(other) == hash(((0.0, -1.0), (1.0, 0.5), 1.0)) and other != box
    rule = QuadratureRule(3, 2)
    assert hash(rule) == hash((3, 2)) == hash(QuadratureRule(3, 2))
    assert hash(dataclasses.replace(rule, time_order=5)) == hash((3, 5))


# the views a node of each capability can take
_VIEWS = {"grad": "gradient_field", "laplacian": "laplacian_field",
          "dt": "dt_field", "div": "div_field"}
_FLAT_DOM = BoxDomain((0.0, 0.0), (2.0, 1.0), time_horizon=0.5)
_FLAT_LEAVES = [
    scalar_field("(1+t)*sin(pi*x)*sin(pi*y)", _FLAT_DOM),
    _scalar(_random_trig(_FLAT_DOM, np.random.default_rng(4)), _FLAT_DOM),
    _gradient(_random_trig(_FLAT_DOM, np.random.default_rng(5)), _FLAT_DOM),
    _rotgrad(_random_trig(_FLAT_DOM, np.random.default_rng(6)), _FLAT_DOM)]


@st.composite
def _flat_nodes(draw, depth=3):
    """A node of leaves with forms, nested sums at coefficients +-1, 0.5,
    0.0 and -0.0, time slices and derivative views."""
    kind = draw(st.sampled_from(["leaf", "sum", "slice", "view"] if depth
                                else ["leaf"]))
    if kind == "leaf":
        return draw(st.sampled_from(_FLAT_LEAVES))
    base = draw(_flat_nodes(depth - 1))
    if kind == "slice":
        return base.at_time(0.3) if base.time_dependent else base
    if kind == "view":
        names = sorted(set(_VIEWS) & base.capabilities)
        return getattr(base, _VIEWS[draw(st.sampled_from(names))])() if (
            names) else base
    fields_ = [base] + [f for f in draw(st.lists(_flat_nodes(depth - 1),
                                                 max_size=2))
                        if type(f) is type(base)
                        and f.time_dependent == base.time_dependent]
    coefs = st.sampled_from([1.0, -1.0, 0.5, 0.0, -0.0])
    return fields.combination(fields_, [draw(coefs) for _ in fields_])


@given(_flat_nodes())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_flat_flag_is_the_scan_of_the_leaf_multipliers(node):
    # set when the node is made, the flag says what a scan of its leaf
    # terms would: every multiplier is 1.0 or -1.0
    for name in node.capabilities:
        terms = node.leaf_terms(name)
        assert terms is not None
        assert node.flat == all(m in (1.0, -1.0) for m in terms[0]), name
