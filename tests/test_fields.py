import math

import numpy as np
import pytest

from errbounds import (
    BoxDomain,
    CapabilityError,
    constant_scalar,
    gradient_field,
    scalar_field,
    vector_field,
    zero_scalar,
    zero_vector,
)

DOM1 = BoxDomain((0.0,), (1.0,))
DOM2 = BoxDomain((0.0, 0.0), (2.0, 1.0))
TDOM = BoxDomain((0.0,), (1.0,), time_horizon=2.0)


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
