import json
from importlib import import_module
from types import SimpleNamespace

import numpy as np
import pytest

from swsos.backend import _SQRT2, FEASIBLE, INFEASIBLE, SdpSolution, svec_layout
from swsos.poly import (Polynomial, lie_derivative, monomial_basis,
                        parse_polynomial, parse_vector)
from swsos.sos import (DegreeBookkeepingError, GramRepresentation, LinPoly,
                       NumericalInfeasibility, PositivityConstraint,
                       SosCertificate, assemble, certificate_from_solution,
                       extract_sos_split, gram_basis, mono_from_tag, solve,
                       sos_decompose)

from program_corpus import corpus_digest, problem_digest, shipped

# swsos.certify the attribute is the function; these are the modules
certify_module = import_module("swsos.certify")
sos_module = import_module("swsos.sos")


def test_gram_basis_half_degree():
    assert gram_basis(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert gram_basis(2, 1, min_half_deg=1) == [(1, 0), (0, 1)]
    assert len(gram_basis(2, 3)) == 10


def test_linpoly_decision_and_instantiate():
    lp = LinPoly.decision(2, "c", [(2, 0), (0, 2)])
    p = lp.instantiate({"c[2,0]": 1.5, "c[0,2]": -2.0})
    assert p == parse_polynomial("1.5*x1^2 - 2*x2^2", 2)
    assert mono_from_tag("2,0") == (2, 0)


def test_linpoly_lie_matches_polynomial_lie():
    V = parse_polynomial("x1^2 + 3*x2^2", 2)
    F = parse_vector(["-x2", "x1^3"], 2)
    lp = lie_derivative(LinPoly.from_poly(V), F)
    assert isinstance(lp, LinPoly)
    assert lp.instantiate({}) == lie_derivative(V, F)


def test_sos_decompose_perfect_square():
    p = parse_polynomial("x1^2 + 2*x1*x2 + x2^2", 2)  # (x1 + x2)^2
    cert = sos_decompose(p)
    assert cert.status == FEASIBLE
    assert cert.residual_norm < 1e-6


def test_sos_decompose_motzkin_infeasible():
    # nonnegative but not SOS: the canonical conservatism example
    motzkin = parse_polynomial("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", 2)
    cert = sos_decompose(motzkin)
    assert cert.status == INFEASIBLE


def test_sos_decompose_rejects_odd_degree():
    with pytest.raises(ValueError):
        sos_decompose(parse_polynomial("x1^3", 1))
    with pytest.raises(ValueError):
        sos_decompose(Polynomial.zero(1))


def test_extract_sos_split_roundtrip():
    p = parse_polynomial("2*x1^4 + 2*x1^3*x2 - x1^2*x2^2 + 5*x2^4", 2)
    cert = sos_decompose(p)
    assert cert.status == FEASIBLE
    squares = extract_sos_split(cert, "sos:s0")
    recon = Polynomial.zero(2)
    for q in squares:
        recon = recon + q * q
    assert (recon - p).coeff_norm() < 1e-6


@pytest.mark.parametrize("min_eig, psd", [(-1e-6, True), (-2e-5, False)])
def test_quality_and_split_share_one_gram_psd_rule(min_eig, psd):
    # ||Q||_F = 100 (to rounding): the tolerance is 1e-7 * 100 = 1e-5, so
    # -1e-6 is PSD for both and -2e-5 for neither
    Q = np.diag([100.0, min_eig])
    cert = SosCertificate(
        gram_blocks={"b": GramRepresentation(basis=[(1, 0), (0, 1)], gram=Q)},
        residual_norm=0.0, min_eigenvalues={"b": min_eig})
    assert cert.quality() == ("ok" if psd else "marginal")
    if psd:
        assert len(extract_sos_split(cert, "b")) == 1
    else:
        with pytest.raises(NumericalInfeasibility):
            extract_sos_split(cert, "b")


def test_extract_sos_split_unknown_block():
    cert = sos_decompose(parse_polynomial("x1^2", 1))
    with pytest.raises(KeyError):
        extract_sos_split(cert, "nope")


def test_positivstellensatz_with_inequality_generator():
    # x1 >= 1 on the set {x1 - 1 >= 0}: x1 - 1 = 0 + 1*(x1 - 1)
    g = parse_polynomial("x1 - 1", 1)
    cons = PositivityConstraint(cid="c", target=LinPoly.from_poly(g),
                                inequality_generators=[g])
    sol = solve(assemble([cons]))
    assert sol.status == FEASIBLE


def test_positivstellensatz_infeasible_on_constraint_set():
    # -x1 >= 0 cannot hold on {x1 - 1 >= 0} with degree-0 multipliers
    g = parse_polynomial("x1 - 1", 1)
    target = parse_polynomial("-x1", 1)
    cons = PositivityConstraint(cid="c", target=LinPoly.from_poly(target),
                                inequality_generators=[g])
    sol = solve(assemble([cons]))
    assert sol.status == INFEASIBLE


def test_equality_generator_above_target_degree_is_dropped():
    # constant target with a degree-1 equality generator: the only valid
    # multiplier is zero, so assembly must not error out
    cons = PositivityConstraint(
        cid="c", target=LinPoly.from_poly(Polynomial.constant(2, 1.0)),
        equality_generators=[parse_polynomial("x2", 2)])
    sol = solve(assemble([cons]))
    assert sol.status == FEASIBLE


def test_inequality_generator_above_target_degree_errors():
    # x2^2 has higher degree than the target x1: its SOS multiplier would
    # need a negative degree
    cons = PositivityConstraint(
        cid="c", target=LinPoly.from_poly(parse_polynomial("x1", 2)),
        inequality_generators=[parse_polynomial("x2^2", 2)])
    with pytest.raises(DegreeBookkeepingError):
        assemble([cons])


def test_assemble_rejects_duplicate_constraint_ids():
    # each is feasible alone; sharing cid "c" would share their multiplier
    # scalars and Gram block ids
    g = parse_polynomial("x1", 1)
    cons = [PositivityConstraint(cid="c", target=parse_polynomial(t, 1),
                                 equality_generators=[g])
            for t in ("x1^2 + x1", "x1^2 - x1")]
    for c in cons:
        assert solve(assemble([c])).status == FEASIBLE
    with pytest.raises(ValueError, match="duplicate"):
        assemble(cons)


def test_identity_rows_enforced_exactly():
    # find c with c*x1 - 2*x1 = 0; solvable only by c = 2
    lp = LinPoly.decision(1, "c", [(1,)]) - LinPoly.from_poly(
        parse_polynomial("2*x1", 1))
    cons = PositivityConstraint(
        cid="pd", target=LinPoly.from_poly(parse_polynomial("x1^2", 1)))
    problem = assemble([cons], identities=[lp])
    sol = solve(problem)
    assert sol.status == FEASIBLE
    assert abs(sol.scalar_values["c[1]"] - 2.0) < 1e-6


def test_certificate_from_solution_groups_multipliers(systems_dir):
    g = parse_polynomial("x1", 1)
    target = LinPoly.from_poly(parse_polynomial("x1^2 + x1", 1))
    cons = PositivityConstraint(cid="c", target=target,
                                equality_generators=[g])
    problem = assemble([cons])
    sol = solve(problem)
    assert sol.status == FEASIBLE
    cert = certificate_from_solution(problem, sol, 1)
    assert "c:s0" in cert.gram_blocks
    assert "c:r0" in cert.free_multipliers
    # the reconstruction identity target = s0 + r0 * g must hold
    s0 = cert.gram_blocks["c:s0"].polynomial(1)
    resid = (s0 + cert.free_multipliers["c:r0"] * g
             - parse_polynomial("x1^2 + x1", 1)).coeff_norm()
    assert resid < 1e-6
    # the certify program's V and glue scalars are bracketed too, but only
    # <cid>:r<k>[...] names are multipliers of equality generators
    problem, _ = _feasibility(systems_dir, "quadrant-cubic", 2, None)
    sol = SdpSolution(FEASIBLE, scalar_values=dict.fromkeys(problem.free_scalars, 1.0))
    cert = certificate_from_solution(problem, sol, 2)
    assert sorted(cert.free_multipliers) == ["cross1_2v0:r0", "cross2_1v0:r0",
                                             "cross2_1v1:r0"]
    assert not any(k.startswith(("V", "p")) for k in cert.free_multipliers)
    assert all(set(p.terms.values()) == {1.0} for p in cert.free_multipliers.values())


def _ref_sum_entries(key, per_group, vals):
    # dicts keep first-appearance order and add in entry order, from 0.0
    # as the dict-of-dicts LinPoly did (so 0.0 + -0.0 is 0.0)
    groups = {}
    for i, (k, v) in enumerate(zip(key.tolist(), vals.tolist())):
        group = groups.setdefault(k // per_group, {})
        group.setdefault(k, [i, 0.0])[1] += v
    first, sums = zip(*(e for group in groups.values() for e in group.values()))
    return list(first), list(sums)


@pytest.mark.parametrize("per_group", [1, 3, 7])
def test_sum_entries_matches_dict_sums(per_group):
    rng = np.random.default_rng(per_group)
    for n in (1, 5, 40, 400):
        key = rng.integers(0, max(2, n // 3), n) * per_group + rng.integers(0, per_group, n)
        vals = rng.normal(size=n)
        vals[rng.random(n) < 0.2] = -0.0
        # an exact cancellation: a key whose entries add to 0.0
        if n >= 5:
            key[:2] = key[-1] + per_group
            vals[:2] = (0.75, -0.75)
        first, sums = sos_module._sum_entries(key, per_group, vals)
        ref_first, ref_sums = _ref_sum_entries(key, per_group, vals)
        assert first.tolist() == ref_first
        assert sums.tobytes() == np.array(ref_sums).tobytes()


# -- assembly against the straightforward reference --------------------------
#
# _ref_assemble and the _ref_* LinPoly arithmetic are the plain loops that
# sos.assemble and LinPoly replaced: every coefficient goes through a
# (terms, rhs) row tuple keyed by ("s", name) and ("e", block, i, j), or a
# cleaning LinPoly(...) constructor.  _ref_dense_rows is the conversion of
# those rows into the solver's arrays that the array form replaced.  The
# array form must densify to the very same A, F, b and c, bit for bit,
# with the same rows in the same order and the same entries in each row.

def _ref_add(self, other):
    if isinstance(other, Polynomial):
        other = _ref_from_poly(other)
    if self.dim != other.dim:
        raise ValueError("dimension mismatch")
    t = {m: dict(e) for m, e in self.terms.items()}
    for m, expr in other.terms.items():
        acc = t.setdefault(m, {})
        for k, v in expr.items():
            acc[k] = acc.get(k, 0.0) + v
    return LinPoly(self.dim, t)


def _ref_sub(self, other):
    if isinstance(other, Polynomial):
        other = _ref_from_poly(other)
    return self + other.scale(-1.0)


def _ref_scale(self, c):
    return LinPoly(self.dim, {m: {k: v * c for k, v in e.items()}
                              for m, e in self.terms.items()})


def _ref_mul_poly(self, p):
    t = {}
    for m1, expr in self.terms.items():
        for m2, c in p.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            acc = t.setdefault(m, {})
            for k, v in expr.items():
                acc[k] = acc.get(k, 0.0) + v * c
    return LinPoly(self.dim, t)


def _ref_diff(self, k):
    t = {}
    for m, expr in self.terms.items():
        if m[k] == 0:
            continue
        dm = list(m)
        dm[k] -= 1
        dm = tuple(dm)
        acc = t.setdefault(dm, {})
        for key, v in expr.items():
            acc[key] = acc.get(key, 0.0) + v * m[k]
    return LinPoly(self.dim, t)


def _ref_lie(V, F):
    # the LinPoly.lie loop that lie_derivative replaced, a sum from the
    # empty LinPoly; a Polynomial V goes to lie_derivative, as it did
    if isinstance(V, Polynomial):
        return lie_derivative(V, F)
    out = LinPoly(V.dim)
    for k in range(V.dim):
        out = out + V.diff(k).mul_poly(F[k])
    return out


def _ref_from_poly(p):
    return LinPoly(p.dim, {m: {None: c} for m, c in p.terms.items()})


def _ref_assemble(constraints, identities=()):
    from swsos.poly import grlex_key
    from swsos.sos import _even_up, _mono_tag

    problem = SimpleNamespace(psd_blocks=[], free_scalars=[], equality_rows=[],
                              objective={})
    scalars = {}

    def declare_scalar(name):
        if name not in scalars:
            scalars[name] = True
            problem.free_scalars.append(name)

    gram_layout = {}
    for cons in constraints:
        dim = cons.dim
        target = cons.as_linpoly()
        for v in sorted(target.variables()):
            declare_scalar(v)
        d_t = target.degree()
        d0 = _even_up(d_t)
        rows = {}

        def row(mono):
            if mono not in rows:
                rows[mono] = ({}, 0.0)
            return mono

        def add_var(mono, key, coef):
            terms, rhs = rows[row(mono)]
            terms[key] = terms.get(key, 0.0) + coef
            rows[mono] = (terms, rhs)

        def add_const(mono, value):
            terms, rhs = rows[row(mono)]
            rows[mono] = (terms, rhs - value)

        for mono, expr in target.terms.items():
            for k, v in expr.items():
                if k is None:
                    add_const(mono, v)
                else:
                    add_var(mono, ("s", k), v)
        for idx, a in enumerate(cons.equality_generators):
            cap = d_t - a.degree()
            if cap < 0:
                continue
            for mono_r in monomial_basis(dim, cap):
                var = ("s", f"{cons.cid}:r{idx}[{_mono_tag(mono_r)}]")
                declare_scalar(var[1])
                for mono_a, ca in a.terms.items():
                    m = tuple(x + y for x, y in zip(mono_r, mono_a))
                    add_var(m, var, -ca)
        zero_mono = (0,) * dim
        zt = rows.get(zero_mono)
        origin_forced = (
            (zt is None or (not zt[0] and zt[1] == 0.0))
            and all(a.terms.get(zero_mono, 0.0) == 0.0 for a in cons.equality_generators)
            and all(b.terms.get(zero_mono, 0.0) >= 0.0 for b in cons.inequality_generators))
        for idx, b in enumerate(cons.inequality_generators):
            sdeg = d_t - b.degree()
            sdeg -= sdeg % 2
            if sdeg < 0:
                raise DegreeBookkeepingError(cons.cid)
            bid = f"{cons.cid}:s{idx + 1}"
            lo_j = 1 if (origin_forced and b.terms.get(zero_mono, 0.0) > 0.0) else 0
            basis = gram_basis(dim, sdeg // 2, min_half_deg=min(lo_j, sdeg // 2))
            gram_layout[bid] = basis
            problem.psd_blocks.append((bid, len(basis)))
            for i in range(len(basis)):
                for j in range(i, len(basis)):
                    mz = tuple(x + y for x, y in zip(basis[i], basis[j]))
                    w = 1.0 if i == j else 2.0
                    for mono_b, cb in b.terms.items():
                        m = tuple(x + y for x, y in zip(mz, mono_b))
                        add_var(m, ("e", bid, i, j), -w * cb)
        support_min = min((sum(m) for m in rows), default=0)
        lo = (support_min + 1) // 2
        bid0 = f"{cons.cid}:s0"
        basis0 = gram_basis(dim, d0 // 2, min_half_deg=min(lo, d0 // 2))
        gram_layout[bid0] = basis0
        problem.psd_blocks.append((bid0, len(basis0)))
        for i in range(len(basis0)):
            for j in range(i, len(basis0)):
                m = tuple(x + y for x, y in zip(basis0[i], basis0[j]))
                add_var(m, ("e", bid0, i, j), -1.0 if i == j else -2.0)
        for mono in sorted(rows, key=grlex_key):
            problem.equality_rows.append(rows[mono])
    for ident in identities:
        for v in sorted(ident.variables()):
            declare_scalar(v)
        for mono in sorted(ident.terms, key=grlex_key):
            expr = ident.terms[mono]
            terms = {("s", k): v for k, v in expr.items() if k is not None}
            problem.equality_rows.append((terms, -expr.get(None, 0.0)))
    problem.gram_layout = gram_layout
    # build_feasibility writes its objective into c; the reference
    # objective is the dict _ref_trace_objective fills
    problem.c = np.zeros(svec_layout(problem.psd_blocks)[1] + len(problem.free_scalars))
    return problem


def _ref_trace_objective(problem):
    """build_feasibility's trace objective on a reference problem."""
    for bid, size in problem.psd_blocks:
        for k in range(size):
            problem.objective[("e", bid, k, k)] = 1.0


def _ref_dense_rows(problem, layout, nx):
    """(A, F, b, cx, cs): PSD entries as svec columns of A, free scalars as
    columns of F, objective split the same way."""
    where = {bid: (sl.start, n) for bid, n, sl, _, _ in layout}
    sidx = {name: k for k, name in enumerate(problem.free_scalars)}
    m, f = len(problem.equality_rows), len(problem.free_scalars)
    A, F = np.zeros((m, nx)), np.zeros((m, f))
    cx, cs = np.zeros(nx), np.zeros(f)

    def put(xrow, srow, terms):
        for key, coef in terms.items():
            if key[0] == "s":
                srow[sidx[key[1]]] += coef
            else:
                _, bid, i, j = key
                off, n = where[bid]
                k = off + i * (2 * n - i + 1) // 2 + j - i
                xrow[k] += coef if i == j else coef / _SQRT2

    for r, (terms, _) in enumerate(problem.equality_rows):
        put(A[r], F[r], terms)
    put(cx, cs, problem.objective)
    b = np.array([float(rhs) for _, rhs in problem.equality_rows])
    return A, F, b, cx, cs


def _use_reference(mp):
    """Swap the reference assembly and LinPoly arithmetic in on mp."""
    for name, fn in (("__add__", _ref_add), ("__sub__", _ref_sub),
                     ("scale", _ref_scale), ("mul_poly", _ref_mul_poly),
                     ("diff", _ref_diff),
                     ("from_poly", staticmethod(_ref_from_poly))):
        mp.setattr(LinPoly, name, fn)
    mp.setattr(certify_module, "lie_derivative", _ref_lie)
    mp.setattr(sos_module, "assemble", _ref_assemble)
    mp.setattr(certify_module, "assemble", _ref_assemble)


def _both(monkeypatch, build):
    """(build() as it runs, build() on the reference code)."""
    new = build()
    with monkeypatch.context() as mp:
        _use_reference(mp)
        ref = build()
    return new, ref


def _bits(items) -> str:
    # repr tells every pair of floats apart, signed zeros included
    return repr(list(items))


def _assert_same_linpoly(a, b):
    assert a.dim == b.dim
    assert _bits((m, _bits(e.items())) for m, e in a.terms.items()) == \
        _bits((m, _bits(e.items())) for m, e in b.terms.items())


def _assert_same_problem(new, ref):
    layout, nx = svec_layout(ref.psd_blocks)
    A, F, b, cx, cs = _ref_dense_rows(ref, layout, nx)
    m = len(new.b)
    assert m == len(ref.equality_rows)
    new_A, new_F = np.zeros((m, nx)), np.zeros((m, len(new.free_scalars)))
    np.add.at(new_A, new.A[:2], new.A[2])
    np.add.at(new_F, new.F[:2], new.F[2])
    for k in range(m):
        assert new_A[k].tobytes() == A[k].tobytes(), f"A row {k}"
        assert new_F[k].tobytes() == F[k].tobytes(), f"F row {k}"
    assert new.b.tobytes() == b.tobytes()
    # the objective lives on the svec columns; the reference's free-scalar
    # part is all zero
    assert new.c.tobytes() == cx.tobytes()
    assert not cs.any()
    # the same entries in each row, explicit zeros included
    where = {bid: (sl.start, n) for bid, n, sl, _, _ in layout}
    sidx = {name: nx + k for k, name in enumerate(ref.free_scalars)}

    def column(key):
        if key[0] == "s":
            return sidx[key[1]]
        off, n = where[key[1]]
        return off + key[2] * (2 * n - key[2] + 1) // 2 + key[3] - key[2]

    for k, ((terms, _), (ref_terms, _)) in enumerate(
            zip(new.equality_rows, ref.equality_rows)):
        assert sorted(terms) == sorted(map(column, ref_terms)), f"entries of row {k}"
    assert new.psd_blocks == ref.psd_blocks
    assert new.free_scalars == ref.free_scalars
    assert new.gram_layout == ref.gram_layout


SHIPPED = ["quadrant-cubic", "opposing-fields", "aligned-fields", "unstable-scalar",
           "twisting", "tilted-relay", "branicky-a"]
MOTZKIN = "x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1"


def _feasibility(systems_dir, name, degree, cross_pairs):
    from swsos.certify import CertificationConfig, build_feasibility
    from swsos.system import load_system
    sys_ = load_system(systems_dir / f"{name}.sys")
    return build_feasibility(sys_, CertificationConfig(lyapunov_degree=degree),
                             cross_pairs=cross_pairs)


@pytest.mark.parametrize("degree", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("name", SHIPPED)
def test_build_feasibility_matches_reference(monkeypatch, systems_dir, name, degree):
    (new, plan), (ref, ref_plan) = _both(
        monkeypatch, lambda: _feasibility(systems_dir, name, degree, None))
    _ref_trace_objective(ref)
    _assert_same_problem(new, ref)
    for key in ("V", "glue"):
        for k in plan[key]:
            _assert_same_linpoly(plan[key][k], ref_plan[key][k])
    for c, ref_c in zip(plan["constraints"], ref_plan["constraints"]):
        _assert_same_linpoly(c.as_linpoly(), ref_c.as_linpoly())


@pytest.mark.parametrize("name", SHIPPED)
def test_build_feasibility_matches_reference_on_certify_cross_pairs(
        monkeypatch, systems_dir, name):
    from swsos.certify import NOT_ATTRACTIVE, check_attractivity
    from swsos.system import load_system
    sys_ = load_system(systems_dir / f"{name}.sys")
    # the boundaries certify keeps cross conditions on
    pairs = [b.pair for b in sys_.boundaries
             if check_attractivity(sys_, b.pair) != NOT_ATTRACTIVE]
    for degree in (2, 4, 6):
        (new, _), (ref, _) = _both(
            monkeypatch, lambda: _feasibility(systems_dir, name, degree, pairs))
        _ref_trace_objective(ref)
        _assert_same_problem(new, ref)


def test_shipped_lists_every_system_file():
    assert sorted(SHIPPED) == shipped()


def test_quadrant_cubic_degree_6_certify_program_has_210_rows(systems_dir):
    problem, _ = _feasibility(systems_dir, "quadrant-cubic", 6, [])
    assert len(problem.b) == 210


@pytest.mark.parametrize("name", SHIPPED)
def test_attractivity_programs_match_reference(monkeypatch, systems_dir, name):
    from swsos.system import load_system
    sys_ = load_system(systems_dir / f"{name}.sys")

    def programs():
        seen = []
        with monkeypatch.context() as mp:
            # an optimal answer makes check_attractivity try every vertex pair
            mp.setattr(certify_module, "solve",
                       lambda pr: seen.append(pr) or SdpSolution(
                           FEASIBLE, solver_status="native:optimal:1"))
            for b in sys_.boundaries:
                certify_module.check_attractivity(sys_, (b.i, b.j))
        return seen

    new, ref = _both(monkeypatch, programs)
    assert len(new) == len(ref) == sum(
        len(sys_.regions[b.i].vertices) * len(sys_.regions[b.j].vertices)
        for b in sys_.boundaries)
    for p, r in zip(new, ref):
        _assert_same_problem(p, r)


def test_motzkin_programs_match_reference(monkeypatch):
    motzkin = parse_polynomial(MOTZKIN, 2)
    new, ref = _both(monkeypatch, lambda: sos_module.assemble(
        [PositivityConstraint(cid="sos", target=motzkin)]))
    _assert_same_problem(new, ref)

    def decomposed():
        seen = []
        with monkeypatch.context() as mp:
            mp.setattr(sos_module, "solve",
                       lambda pr: seen.append(pr) or SdpSolution(INFEASIBLE))
            assert sos_decompose(motzkin).status == INFEASIBLE
        return seen[0]

    new, ref = _both(monkeypatch, decomposed)
    _assert_same_problem(new, ref)


@pytest.mark.parametrize("degree", [4, 6])
def test_three_variable_programs_match_reference(monkeypatch, degree):
    # every shipped system is planar; this keeps the row numbering honest
    # in three variables, with the box generators and an equality generator
    box = [parse_polynomial(f"16 - x{k}^2", 3) for k in (1, 2, 3)]
    eq = parse_polynomial("x1*x2 - x3", 3)

    def build():
        target = LinPoly.decision(3, "v", monomial_basis(3, degree)[1:]) - \
            parse_polynomial("x1^2 + x2*x3 - 0.5*x3^3", 3)
        return sos_module.assemble([PositivityConstraint(
            cid="c3", target=target, equality_generators=[eq],
            inequality_generators=box)])

    new, ref = _both(monkeypatch, build)
    _assert_same_problem(new, ref)
    assert problem_digest(new) == THREE_VARIABLE_DIGESTS[degree]
    # the identity has no constant term, so every basis leaves out 1 and
    # the constant monomial has no row
    assert len(new.psd_blocks) == 4
    assert len(new.b) == len(monomial_basis(3, degree)) - 1


def test_target_scalar_named_like_a_multiplier_matches_reference(monkeypatch):
    # the target's scalars c:r0[0] and c:r0[1] are also the names of the
    # free multiplier of x1 - 1: their entries in a row add up
    def build():
        target = LinPoly.decision(1, "c:r0", [(0,), (1,), (2,)]) - \
            parse_polynomial("x1^2 + 1", 1)
        return sos_module.assemble([PositivityConstraint(
            cid="c", target=target, equality_generators=[parse_polynomial("x1 - 1", 1)],
            inequality_generators=[parse_polynomial("4 - x1^2", 1)])])

    new, ref = _both(monkeypatch, build)
    _assert_same_problem(new, ref)
    assert new.F[2].tolist() == [2.0, 2.0, -1.0, 1.0, -1.0]


def test_linpoly_arithmetic_matches_reference(monkeypatch):
    rng = np.random.default_rng(7)
    monos = monomial_basis(2, 3)

    def rand_linpoly(names):
        terms = {}
        for m in monos:
            if rng.random() < 0.7:
                terms[m] = {k: float(rng.normal()) for k in names if rng.random() < 0.6}
        return LinPoly(2, terms)

    a = rand_linpoly([None, "a", "b", "c"])
    b = rand_linpoly([None, "b", "c", "d"])
    p = Polynomial(2, {m: float(rng.normal()) for m in monos[:6]})
    F = parse_vector(["-x1 + 0.5*x2^2", "x1^3 - x2"], 2)
    # the name build_feasibility calls, which the reference run swaps
    lie = lambda V: certify_module.lie_derivative(V, F)
    cases = [
        lambda: a + b, lambda: a - b, lambda: a - a, lambda: a + p, lambda: a - p,
        lambda: a.scale(-1.5), lambda: a.scale(0.0), lambda: a.scale(1e-320),
        lambda: a.mul_poly(p), lambda: a.diff(0), lambda: a.diff(1),
        lambda: lie(a), lambda: lie(a - b) + b.mul_poly(p),
        lambda: LinPoly.from_poly(p), lambda: lie(LinPoly(2)),
        # one case per summing rule: an unsummed polynomial is summed before
        # mul_poly, diff and scale, and a right operand before + and -
        lambda: (a - b).mul_poly(p), lambda: (a + b).diff(0),
        lambda: (a - b).scale(3.0), lambda: a + b.mul_poly(p),
        lambda: (a + b.mul_poly(p)).scale(-1.0),
    ]
    for k, case in enumerate(cases):
        new, ref = _both(monkeypatch, case)
        _assert_same_linpoly(new, ref)
    assert (a - a).terms == {}
    assert (a - a).degree() == 0
    assert (a - a).variables() == set()


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_sos_decompose_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="non-finite"):
        sos_decompose(Polynomial(2, {(2, 0): bad, (0, 2): 1.0}))


# -- the certify program, pinned byte for byte --------------------------------
#
# _assert_same_problem densifies, so it cannot see the order of the
# triplets; these digests cover the arrays as they are built.

QUADRANT_CUBIC_DIGESTS = {
    4: "4e3022e19400af70897370c3a30a7c0beccb1f3b9aa8905ab265cb015f543019",
    10: "406aba9b23fc92fa52d767d7b1ef20d02c12353ad008870a7840c434b56010da",
}
# the first attractivity program, L_f chi * L_g chi - l*chi SOS
QUADRANT_CUBIC_ATTRACTIVITY_DIGEST = (
    "f504b84b5e1302ec6495798a8ce3df6ee1c05b0ae1001295d0e77bb7ba8b9e96")
# test_three_variable_programs_match_reference's programs, as the
# dict-of-dicts LinPoly and per-row dict assembly built them
THREE_VARIABLE_DIGESTS = {
    4: "f1765b7a3df82e606532ea07281b8acb958cc68677d757a82e1477833f5cfd8f",
    6: "5800f6bfb105d2f1f04fdf738a8abd8b1b8b18ac9b1b78b355f1bc67b58173ff",
}
# tests/program_corpus.py: every shipped system's certify programs at
# degrees 2-10 with all and with no cross conditions, and every
# attractivity program
PINNED_PROGRAM_CORPUS_DIGEST = (
    "c9e1361af66e86ae9410e37de4377b9750d6190d18fcdc79b07757d6af0a6ead")


def test_program_corpus_digest():
    assert corpus_digest() == PINNED_PROGRAM_CORPUS_DIGEST


@pytest.mark.parametrize("degree", sorted(QUADRANT_CUBIC_DIGESTS))
def test_quadrant_cubic_certify_program_digest(systems_dir, degree):
    problem, _ = _feasibility(systems_dir, "quadrant-cubic", degree, None)
    assert problem_digest(problem) == QUADRANT_CUBIC_DIGESTS[degree]


def test_vacuous_xi_leaves_the_certify_program_as_it_was(systems_dir,
                                                         small_oracle):
    # xi = 0 holds everywhere: build_feasibility leaves it out of the
    # generators, as it leaves out a zero chi (assemble used to fail on a
    # generator with no terms)
    from swsos.certify import CERTIFIED, CertificationConfig, certify
    from swsos.system import parse_system
    doc = json.loads((systems_dir / "quadrant-cubic.sys").read_text())
    doc["regions"][0]["xi"] = ["x1*x2", "0"]
    sys_ = parse_system(doc)
    cfg = CertificationConfig(lyapunov_degree=4)
    problem, _ = certify_module.build_feasibility(sys_, cfg)
    assert problem_digest(problem) == QUADRANT_CUBIC_DIGESTS[4]
    assert certify(sys_, cfg).status == CERTIFIED


def test_quadrant_cubic_attractivity_program_digest(monkeypatch, systems_dir):
    from swsos.system import load_system
    sys_ = load_system(systems_dir / "quadrant-cubic.sys")
    seen = []
    monkeypatch.setattr(certify_module, "solve",
                        lambda pr: seen.append(pr) or SdpSolution(FEASIBLE))
    certify_module.check_attractivity(sys_, (1, 2))
    assert len(seen) == 1
    assert problem_digest(seen[0]) == QUADRANT_CUBIC_ATTRACTIVITY_DIGEST
