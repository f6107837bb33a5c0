"""Hot numeric kernels: polynomial evaluation and RK4 segment runs.

Each polynomial compiles once into a term list of (coefficient, variable
indices), one index per unit of exponent, and `eval_terms` is its one
evaluator: one multiply per factor, in plain Python floats at one point,
which avoids numpy's per-call overhead on polynomials of a few terms, or
elementwise on one column per variable at many points, with the same
multiplies and adds.  The two RK4 segment kernels, one for a smooth
stretch inside a region and one for a Filippov sliding stretch on a
boundary variety, are generated from the term lists each `Polynomial`
caches: `smooth_kernel` and `sliding_kernel` emit the whole segment loop
as straight-line Python source, unrolled over the dimension, with each
coefficient a parameter name.  The source depends only on the terms'
exponents, so it is compiled once per exponent structure into a
module-level dict, and each call binds its term lists' coefficients to a
copy of that code as parameter defaults; the dict grows with the number
of distinct field shapes, not with theta or coefficient values.  The
structure also tells which term lists are constant (no term reads a
variable, as for a hyperplane's gradient or a relay's field): the source
binds those once, before the segment loop, together with every value that
depends only on them (the sliding normal and its squared norm; with two
constant fields also sliding_field's denominator, weight and slope, so
all four RK4 slopes are one), and leaves out the stage points no stage
reads.  Every exit test stays in the loop, in its place and order.
Both kernels take their header, ball exit and box exit from `_frame`,
their time grid from `_clock` and their watch of boundary varieties from
`_watch`.  The smooth kernel watches its region's boundary varieties; the
sliding kernel of (i, j) watches the varieties of the other boundaries of
regions i and j but its own, which end the piece of its variety between
the two regions (STOP_OTHER_BOUNDARY + b), and where there are none it
emits no watch line.  The caller passes each variety once.  The box
exit is one chained comparison, lo0 <= y0 <= hi0 and ...; a parsed box
is finite, so nan and +-inf fail it and need no isfinite.
A step runs no inner loop and builds no list: the sliding projection's
three Newton steps are unrolled into nested `if not ...` blocks, the
step's end is rebound one name at a time (x0 = y0), and a row is added
with one flat.append per coordinate.  The emitted arithmetic is
`eval_terms`' and `sliding_field`'s, in the same order, so the values are
those of interpreting the term lists, bit for bit.
A step keeps to CPython's specialised float operations, with the bits
of the plain forms: every literal in its arithmetic is a float (2.0 *
k2_0; an int 2 converts exactly), the step count i is a float (exact
below 2**53, so t0 + i * h is unchanged), the ball exit takes sqrt only
behind a guard on the squared norm that no state inside the ball fails
(see _frame), and no abs() is called: abs(q) > b is q > b or q < nb and
abs(q) <= b is nb <= q <= b, with nb = -b bound before the loop (a
literal for TANGENCY_TOL), which agree with abs() on nan, +-inf and
+-0.0.
"""
from __future__ import annotations

import math
from types import FunctionType

import numpy as np

# No compiled (numba) twin exists; the benchmark's environment record still
# reads this flag to name the kernel that ran, so it stays, always False.
USE_NUMBA = False

# termination codes of rk4_smooth_run and rk4_sliding_run
STOP_MAXSTEPS = 0           # t_end reached
STOP_CONVERGED = 1
STOP_ESCAPED = 2
STOP_BOUNDARY = 3
# further exits of rk4_sliding_run
STOP_OFF_VARIETY = 4        # |chi| above the sliding band
STOP_TANGENCY = 5           # |<n, F_j - F_i>| under TANGENCY_TOL
STOP_ALPHA = 6              # the sliding weight left [0, 1]
STOP_OTHER_BOUNDARY = 7     # + b: the b-th watched variety changed sign

TANGENCY_TOL = 1e-12
T_END_SLACK = 1e-15         # a run this close to t_end ends on it; see _clock


# -- term lists: the one polynomial evaluator --------------------------------

def compile_terms(coeffs, exps) -> tuple:
    """Coefficients and exponent rows -> ((c, (k, ...)), ...).

    x1^3*x2 -> (c, (0, 0, 0, 1)): one variable index per unit of exponent.
    """
    return tuple(
        (float(c), tuple(k for k, e in enumerate(row) for _ in range(e)))
        for c, row in zip(coeffs, exps))


def eval_terms(terms, x):
    """Evaluate a compiled term list at x, one entry per variable.

    Entries of x are Python floats (one point; returns a float) or equal
    length float arrays (one column per variable; returns an array, or a
    float when no term reads a variable).  Either way every value comes
    from the same multiplies and adds in the same order.  Repeated
    multiplication overflows to inf, where `float ** int` would raise
    OverflowError.
    """
    total = 0.0
    for c, idx in terms:
        for k in idx:
            c *= x[k]
        total += c
    return total


# -- generated RK4 segment kernels ---------------------------------------------

# The globals of every kernel: the names generated source reads besides its
# own locals and parameters.
_NAMESPACE = {"sqrt": math.sqrt}

# (generator name, dimension, exponent structure) -> code object of the
# generated kernel, whose trailing parameters c0, c1, ... are the coefficients
_CODES = {}


def _layout(term_lists):
    """(exponent structure, coefficients, index of each list's first one).

    The structure is one tuple of variable-index tuples per term list; the
    coefficients run over all term lists in order, and generated source
    names coefficient k as c<k>.
    """
    shape, coeffs, first = [], [], []
    for terms in term_lists:
        first.append(len(coeffs))
        shape.append(tuple(idx for _, idx in terms))
        coeffs += [float(c) for c, _ in terms]
    return tuple(shape), tuple(coeffs), first


def _expr(idxs, var, first=0) -> str:
    """Source of eval_terms(terms, [var0, var1, ...]) as one expression.

    idxs: the terms' variable-index tuples; term k's coefficient is the
    name c<first + k>.  ((0, 0, 1), (1,)) with var "x" -> "0.0 +
    c0*x0*x0*x1 + c1*x1": the same multiplications and additions in the
    same order as eval_terms.  The compiler nests one level per term, so a
    list of several thousand terms does not compile.
    """
    return "0.0" + "".join(
        " + " + "*".join([f"c{first + t}"] + ["%s%d" % (var, k) for k in idx])
        for t, idx in enumerate(idxs))


def _names(var, n) -> str:
    return ", ".join(f"{var}{k}" for k in range(n))


def _dot(template, n) -> str:
    """'0.0 + ...' summing template.format(k=k) over k: sum()'s order."""
    return "0.0" + "".join(" + " + template.format(k=k) for k in range(n))


def _compile(lines):
    """The code object of the function `kernel` that lines define."""
    defined = {}
    exec(compile("\n".join(lines) + "\n", "<swsos rk4 kernel>", "exec"),
         _NAMESPACE, defined)
    return defined["kernel"].__code__


def _bind(generate, n, term_lists):
    """The kernel of term_lists in n variables, compiled once per shape.

    generate(n, shape, first) gives the kernel's source lines, whose
    trailing parameters are the coefficient names; the returned function
    has this field's coefficients as their defaults, so calls pass only
    the rest.
    """
    shape, coeffs, first = _layout(term_lists)
    key = (generate.__name__, n, shape)
    code = _CODES.get(key)
    if code is None:
        code = _CODES[key] = _compile(generate(n, shape, first))
    return FunctionType(code, _NAMESPACE, "kernel", coeffs)


def _params(shape) -> str:
    return "".join(f", c{k}" for k in range(sum(map(len, shape))))


def _constant(idxs) -> bool:
    """Whether a term list of these variable-index tuples reads no variable."""
    return not any(idxs)


def _reads(idx_lists) -> list:
    """The variables, in index order, that any of these term lists reads."""
    return sorted({k for idxs in idx_lists for idx in idxs for k in idx})


def _rk4_lines(n, stage, h, reads, fixed):
    """Lines of one RK4 step from x0.. to y0.. with step `h` (a name).

    stage(var, s) gives the lines that set ks_k to the field at var0.. for
    each component k not in `fixed`.  A component in `fixed` has the one
    slope k1_k at every stage, bound before the loop with its stage sum
    r<k> = k1 + 2*k1 + 2*k1 + k1.  Stage points are set only for the
    variables in `reads`, the ones the stages read.  hh = h/2 and h6 = h/6
    must be bound.
    """
    lines = stage("x", 1)
    for s, hk in ((2, "hh"), (3, "hh"), (4, h)):
        lines += [f"y{k} = x{k} + {hk} * k{1 if k in fixed else s - 1}_{k}"
                  for k in reads]
        lines += stage("y", s)
    return lines + [f"y{k} = x{k} + h6 * r{k}" if k in fixed else
                    f"y{k} = x{k} + h6 * ({_stage_sum(k, 2, 3, 4)})"
                    for k in range(n)]


def _stage_sum(k, s2, s3, s4) -> str:
    """RK4's k1 + 2*k2 + 2*k3 + k4 of component k, with slopes s2, s3 and
    s4 in place of k2, k3 and k4; the 2 is the float 2.0."""
    return f"k1_{k} + 2.0 * k{s2}_{k} + 2.0 * k{s3}_{k} + k{s4}_{k}"


def _rebind(n) -> list:
    """x0 = y0, x1 = y1, ...: the step's end becomes its start, one name at
    a time, with no list built."""
    return [f"x{k} = y{k}" for k in range(n)]


def _append(var, n) -> list:
    """flat.append(var0), ...: one accepted row added to the flat states."""
    return [f"flat.append({var}{k})" for k in range(n)]


def _indent(lines, depth):
    return ["    " * depth + line for line in lines]


def _clock(reads):
    """(set-up, step, end) lines of the one time grid of both kernels.

    Step i ends at tn = t0 + i*h, or, if that would pass t_end, takes
    hs = t_end - t and ends at tn = t + hs; the kernel sets t = tn after
    it.  The count i is a float, exact below 2**53, so i * h has the bits
    of the int count's product.  hh = hs/2 is bound only if some stage
    `reads` a stage point.  A run stops once t >= t_end - T_END_SLACK; the
    end lines put it on t_end.
    """
    hh = ["hh = 0.5 * hs"] if reads else []
    setup = ["t0 = t", "i = 0.0", "hs = h", *hh, "h6 = hs / 6.0",
             f"t_stop = t_end - {T_END_SLACK!r}"]
    step = ["i += 1.0", "tn = t0 + i * h", "if tn > t_end:",
            *_indent(["hs = t_end - t", *hh, "h6 = hs / 6.0", "tn = t + hs"], 1)]
    return setup, step, ["t = t_end", "if times:", "    times[-1] = t"]


def _frame(n, var, stop):
    """(header, ball exit, box exit) lines of both kernels: unpack x, lo
    and hi and bind ball_lim; stop(STOP_CONVERGED) once |x| <= ball_stop;
    stop(STOP_ESCAPED) unless var0.. is in the box.

    The ball exit sums the squares ss with no 0.0 seed, as a sum of
    squares is never -0.0, and takes sqrt(ss) only when ss <= ball_lim =
    4.0 * ball_stop * ball_stop.  The guard never skips a true exit: sqrt
    is correctly rounded, so sqrt(ss) <= ball_stop puts ss under
    ball_stop**2 * (1 + 2**-52)**2 < 4 * ball_stop**2 as reals, and
    rounding is monotone, so the float ss is at most ball_lim, 4.0 *
    ball_stop being exact (or inf).  That holds for every ball_stop >= 0,
    tiny and subnormal ones included, where ball_lim rounds into the
    subnormals or to 0.0; a nan ss or ball_stop fails both forms.
    """
    inside = " and ".join(f"lo{k} <= {var}{k} <= hi{k}" for k in range(n))
    squares = " + ".join(f"x{k} * x{k}" for k in range(n))
    return ([*(f"[{_names(v, n)}] = {v}" for v in ("x", "lo", "hi")),
             "ball_lim = 4.0 * ball_stop * ball_stop"],
            [f"ss = {squares}",
             "if ss <= ball_lim and sqrt(ss) <= ball_stop:",
             stop(STOP_CONVERGED)],
            [f"if not ({inside}):", stop(STOP_ESCAPED)])


def _watch(chis, var, stop):
    """(start, step) lines that watch each variety of chis for an event.

    chis: (variety index tuples, first coefficient) pairs.  The start lines
    set chi b's sign memory p<b> from x0..: 0 within `band` of zero, where
    the state has no side yet, else chi(x).  The step lines test chi b at
    var0.. by the one event rule, q * p<b> < 0.0 or q == 0.0 != p<b>, run
    stop(b) on an event and keep q as the memory otherwise.
    """
    start, step = [], []
    for b, (chi, c) in enumerate(chis):
        start += [f"q = {_expr(chi, 'x', c)}",
                  f"p{b} = 0.0 if abs(q) <= band else q"]
        step += [f"q = {_expr(chi, var, c)}",
                 f"if q * p{b} < 0.0 or q == 0.0 != p{b}:",
                 stop(b),
                 f"p{b} = q"]
    return start, step


def smooth_kernel(fields, chis):
    """The smooth RK4 segment loop of xdot = F(x) for rk4_smooth_run.

    fields: one term list per component of F; chis: one term list per
    boundary variety.  The kernel is
    kernel(x, t, t_end, h, ball_stop, lo, hi, band) -> (flat, times, hs,
    code), with x, lo and hi lists of floats, band the |chi| under which a
    boundary has no side at the start, and flat the accepted states row
    after row; see rk4_smooth_run for the rules.  Its code is compiled
    once per exponent structure of fields and chis.
    """
    return _bind(_smooth_lines, len(fields), (*fields, *chis))


def _smooth_lines(n, shape, first):
    X = _names("x", n)
    fields = list(zip(shape[:n], first[:n]))
    chis = list(zip(shape[n:], first[n:]))
    # a constant component's slope is one value at every stage: bound once
    fixed = [k for k, (f, _) in enumerate(fields) if _constant(f)]
    hoisted = [f"k1_{k} = {_expr(f, 'x', c)}" for k, (f, c) in enumerate(fields)
               if k in fixed]
    hoisted += [f"r{k} = {_stage_sum(k, 1, 1, 1)}" for k in fixed]

    def stage(var, s):
        return [f"k{s}_{k} = {_expr(f, var, c)}"
                for k, (f, c) in enumerate(fields) if k not in fixed]

    def stop(code):
        return f"    return flat, times, hs, {code}"

    reads = _reads(f for f, _ in fields)
    setup, clock, end = _clock(reads)
    header, ball, box = _frame(n, "y", stop)
    # a boundary within `band` of the start has no side yet: sign 0
    start, watch = _watch(chis, "y", lambda b: stop(STOP_BOUNDARY))
    step = [
        *ball,
        *clock,
        *_rk4_lines(n, stage, "hs", reads, fixed),
        "t = tn",
        *_append("y", n),
        "times.append(t)",
        *box,
        *watch,
        *_rebind(n),
    ]
    return [
        f"def kernel(x, t, t_end, h, ball_stop, lo, hi, band{_params(shape)}):",
        *_indent(header, 1),
        f"    flat = [{X}]",
        "    times = [t]",
        *_indent(start, 1),
        *_indent(hoisted, 1),
        *_indent(setup, 1),
        "    while t < t_stop:",
        *_indent(step, 2),
        *_indent(end, 1),
        stop(STOP_MAXSTEPS),
    ]


def _run(kernel, x0, t0, t_end, h, ball_stop, box_lo, box_hi, *rest):
    """kernel on float lists and floats, its flat states reshaped (m, n)."""
    flat, *out = kernel(
        np.asarray(x0, dtype=np.float64).tolist(), float(t0), float(t_end),
        float(h), ball_stop, np.asarray(box_lo, dtype=np.float64).tolist(),
        np.asarray(box_hi, dtype=np.float64).tolist(), *rest)
    return np.array(flat).reshape(-1, len(x0)), *out


def rk4_smooth_run(kernel, x0, t0, t_end, h, ball_stop, box_lo, box_hi, band):
    """Fixed-step RK4 on xdot = F(x) from (x0, t0) until the segment stops.

    kernel: smooth_kernel(fields, chis) of F and the boundary varieties.
    Step i ends at t0 + i*h; a step that would end past t_end ends on it;
    a run that stops within T_END_SLACK of t_end has its last row on t_end.
    Each step starts with |x| <= ball_stop
    (STOP_CONVERGED); the new state is accepted, and a non-finite or
    out-of-box one is STOP_ESCAPED (box_lo and box_hi are finite); a step
    over which some boundary's chi changes sign, chi(x_prev) *
    chi(x_next) < 0, or reaches 0 from a nonzero value is STOP_BOUNDARY;
    reaching t_end is STOP_MAXSTEPS.  A
    boundary with |chi(x0)| <= band has no side at the start: its sign
    memory starts at 0, so the first step cannot flag it.  Returns
    (states, times, hs, code): the accepted states from x0 on, one row
    each, and their times, the last step's size and the STOP_* code.  The
    escaping or boundary-flagged state is the last row.
    """
    return _run(kernel, x0, t0, t_end, h, ball_stop, box_lo, box_hi, band)


# -- RK4 sliding segment --------------------------------------------------------

def sliding_field(n, fi, fj):
    """Filippov sliding field (F_s, alpha) at one point, or None.

    n, fi, fj: the boundary normal and both fields' values, lists of
    floats.  alpha = <n, F_j> / <n, F_j - F_i> and F_s = alpha*F_i +
    (1-alpha)*F_j, the convex combination tangent to {chi = 0}.  None
    when |<n, F_j - F_i>| < TANGENCY_TOL: both fields are tangent and
    alpha is undefined.  sliding_kernel emits this formula inline.
    """
    num = den = 0.0
    for nk, u, v in zip(n, fi, fj):
        num += nk * v
        den += nk * (v - u)
    if -TANGENCY_TOL < den < TANGENCY_TOL:
        return None
    a = num / den
    b = 1.0 - a
    return [a * u + b * v for u, v in zip(fi, fj)], a


def sliding_kernel(grad, fi, fj, chi, *others):
    """The sliding RK4 segment loop on {chi = 0} for rk4_sliding_run.

    grad, fi, fj: one term list per component of the variety's gradient,
    F_i and F_j; chi: the variety's term list; others: the term lists of
    the varieties that bound the piece of {chi = 0} between the two
    regions, none of which the kernel may cross: one per distinct variety
    of the regions' other boundaries, chi itself left out, since a
    boundary on it continues the piece.  With no others it emits no watch
    line.  The kernel is
    kernel(x, t, t_end, h, ball_stop, lo, hi, event_tol, band)
    -> (flat, times, alphas, x, t, code), with x, lo and hi lists of floats
    and flat the accepted states row after row; see rk4_sliding_run for the
    rules.  Its code is compiled once per exponent structure of them all.
    """
    return _bind(_sliding_lines, len(fi), (*grad, *fi, *fj, chi, *others))


def _sliding_lines(n, shape, first):
    cols = range(n)
    X = _names("x", n)
    terms = list(zip(shape, first))
    grad, fi, fj = terms[:n], terms[n:2 * n], terms[2 * n:3 * n]
    chi, chi_first = terms[3 * n]
    others = terms[3 * n + 1:]
    vectors = (("n", grad), ("u", fi), ("v", fj))
    # constant term lists are bound once, before the loop; when all of them
    # are, so are sliding_field's denominator, weight and slope, with the
    # weight guarded by the negation of the in-loop tangency test, so a
    # tangency (or a nan) still exits at the same place in the loop
    hoisted = [f"{name}{k} = {_expr(p, 'x', c)}" for name, vec in vectors
               for k, (p, c) in enumerate(vec) if _constant(p)]
    whole = all(_constant(p) for _, vec in vectors for p, _ in vec)
    fixed_normal = all(_constant(p) for p, _ in grad)

    def stop(code):
        return f"    return flat, times, alphas, [{X}], t, {code}"

    den = f"den = {_dot('n{k} * (v{k} - u{k})', n)}"
    # |den| < TANGENCY_TOL, written as sliding_field tests it
    tangent = f"{-TANGENCY_TOL!r} < den < {TANGENCY_TOL!r}"
    tangency = [f"if {tangent}:", stop(STOP_TANGENCY)]
    weight = f"a = ({_dot('n{k} * v{k}', n)}) / den"
    alpha = ["if not 0.0 <= a <= 1.0:", stop(STOP_ALPHA), "alpha = a"]

    def slope(s):
        return ["w = 1.0 - a"] + [f"k{s}_{k} = a * u{k} + w * v{k}" for k in cols]

    def stage(var, s):
        # sliding_field at var0..: tangency exits the run; the first stage's
        # weight is the step's alpha, and outside [0, 1] it exits too.  When
        # every value is bound before the loop, only the first stage's exits
        # are left: the later stages would repeat them.
        if whole:
            return tangency + alpha if s == 1 else []
        return [*(f"{name}{k} = {_expr(p, var, c)}" for name, vec in vectors
                  for k, (p, c) in enumerate(vec) if not _constant(p)),
                den, *tangency, weight, *(alpha if s == 1 else ()), *slope(s)]

    if whole:
        hoisted += [den, f"if not {tangent}:",
                    *_indent([weight, *slope(1)], 1),
                    *(f"    r{k} = {_stage_sum(k, 1, 1, 1)}" for k in cols)]
    hoisted += [f"g{k} = {_expr(p, 'x', c)}" for k, (p, c) in enumerate(grad)
                if _constant(p)]
    nn = f"nn = {_dot('g{k} * g{k}', n)}"
    hoisted += [nn] if fixed_normal else []
    # up to three Newton steps onto chi = 0, each nested in the branch of
    # the one before: a step is taken while not |c| <= event_tol and not
    # nn == 0.0, the negations, so a nan c or nn takes it as well
    project = []
    for _ in range(3):
        project = [
            f"c = {_expr(chi, 'y', chi_first)}",
            "if not nevent_tol <= c <= event_tol:",
            *_indent([*(f"g{k} = {_expr(p, 'y', c)}"
                        for k, (p, c) in enumerate(grad) if not _constant(p)),
                      *([] if fixed_normal else [nn]),
                      "if not nn == 0.0:",
                      *_indent(["s = c / nn",
                                *(f"y{k} = y{k} - s * g{k}" for k in cols),
                                *project], 1)], 1)]
    reads = _reads(p for _, vec in vectors for p, _ in vec)
    setup, clock, end = _clock(reads)
    header, ball, box = _frame(n, "x", stop)
    # a step that takes the state across another variety leaves the piece:
    # the run stops at the step's start
    start, watch = _watch(others, "y",
                          lambda b: stop(STOP_OTHER_BOUNDARY + b))
    step = [
        *ball,
        # |chi| > band
        f"q = {_expr(chi, 'x', chi_first)}",
        "if q > band or q < nband:", stop(STOP_OFF_VARIETY),
        *clock,
        *_rk4_lines(n, stage, "hs", reads, cols if whole else ()),
        *project,
        *watch,
        "t = tn",
        *_rebind(n),
        *box,
        *_append("x", n),
        "times.append(t)",
        "alphas.append(alpha)",
    ]
    return [
        "def kernel(x, t, t_end, h, ball_stop, lo, hi, event_tol, band"
        f"{_params(shape)}):",
        *_indent(header, 1),
        *_indent(hoisted, 1),
        *_indent(start, 1),
        *_indent(setup, 1),
        "    nband = -band",
        "    nevent_tol = -event_tol",
        "    flat, times, alphas = [], [], []",
        "    while t < t_stop:",
        *_indent(step, 2),
        *_indent(end, 1),
        stop(STOP_MAXSTEPS),
    ]


def rk4_sliding_run(kernel, x0, t0, t_end, h, ball_stop, box_lo, box_hi,
                    event_tol, band):
    """Fixed-step RK4 on the sliding field of one boundary until an exit.

    kernel: sliding_kernel(grad, fi, fj, chi, *others) of the variety,
    both fields and the other varieties it watches.  Each step starts at (x, t) with the exits, in this order:
    |x| <= ball_stop (STOP_CONVERGED), |chi(x)| > band (STOP_OFF_VARIETY),
    tangency at x (STOP_TANGENCY) and alpha outside [0, 1] (STOP_ALPHA).
    Step i then ends at t0 + i*h; a step that would end past t_end ends
    on it; a run that stops within T_END_SLACK of t_end has its last row
    and stop time on t_end.  Tangency at a later stage is STOP_TANGENCY too.
    Up to three Newton steps go back onto chi = 0, stopping once |chi| <=
    event_tol or the gradient vanishes; a nan chi or gradient norm takes
    the step.  A step over which one of the kernel's other varieties
    changes sign, by the smooth kernel's rule with sign 0 for a variety
    within band of zero at x0, ends the run at the step's start with
    STOP_OTHER_BOUNDARY + b, b that variety's index in `others` (each
    distinct variety of the regions' other boundaries but chi): the state
    has reached the end of the piece of {chi = 0} between the two regions.
    A non-finite or out-of-box state
    (box_lo and box_hi are finite) ends the run (STOP_ESCAPED); reaching
    t_end is STOP_MAXSTEPS.

    Returns (states, times, alphas, x, t, code): the accepted states
    (m, n) with their times and the alpha of each step's start, and the
    state and time the run stopped at.  The escaping state is that stop
    state and not an accepted row.
    """
    return _run(kernel, x0, t0, t_end, h, ball_stop, box_lo, box_hi,
                event_tol, band)
