"""Model files: JSON documents describing a regime-switching diffusion.

Schema overview (all 1-based regime/state indices in files)::

    {
      "regimes": <int> | "infinite",
      "q": {"kind": "matrix", "entries": [[...], ...]}
         | {"kind": "rates", "entries": [{"i":1,"j":2,"expr":"...",
                                          "inf": ..?, "sup": ..?}, ...],
            "scan": {"lo":..,"hi":..,"points": <int >= 2>?,
                     "spacing": "geometric"|"linear"?}}    # hi > lo; geometric: lo > 0
         | {"kind": "birth-death", "a": <down>, "b": <up>}
         | {"kind": "birth-death", "up": [...], "down": [...]}
                   # lists of one length, constant beyond it; "regimes": "infinite" only
      "drift"?:  {"kind": "power", "b": [...], "delta": <float>}
               | {"kind": "ou", "b": [...]}               # power with delta 1
               | {"kind": "radial", "delta": <float>,
                  "radial_component": [[...per regime...], ...]},
                   # cor31 and thm33 conclude only for delta > -1: at -1 the
                   # verdict depends on sigma, and both are inconclusive
      "sigma"?: <float> | [<float>, ...],
      "lyapunov"?: {"beta": [...], "tag": "to-infinity"|"to-zero", "r0"?: ..}
                 | {"preset": "abs", "r0"?: ..}            # V = |x|
                 | {"preset": "inverse-abs", "r0"?: 10}   # V = 1/|x|
                   (presets need a linear drift: ou, or power with delta 1;
                    r0 must be positive, and only inverse-abs reads it)
                 | {"beta_values": [...], "beta_tail_limit": <float>,
                    "tag": ...}                             # infinite chains
      "two_function"?: {"beta": [...], "h_limit": "to-infinity"|"to-zero"},
                                  # beta_i with L_i h <= beta_i g, limit of h
      "partition"?: {"cutpoints": [...]},
      "boundary"?: "none" | "reflect",
      "dimension"?: <int>                  # 1 for rates or boundary "reflect"
    }

Unknown keys are rejected anywhere in the document and all numbers must be
finite.  Rate expressions are arithmetic in the single variable ``x`` with
exp/log/sqrt/sin/cos/tanh/abs and the constants pi and e; their parts free of
``x`` must evaluate to finite real numbers.  Every rate is read on the scan
grid that a ``rates`` document must give, and each (i, j) pair is listed once.
An ``inf``/``sup`` hint needs ``0 <= inf <= sup`` and must contain every value
its expression takes on that grid.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .criteria import Limit, LyapunovBehavior
from .errors import CriterionNotApplicable, EmptyGrid, ParseError, SchemaError
from .markov import BetaSequence, QMatrix, ScanGrid, StateDependentRates, \
    TailHomogeneousChain, bound_rates, validate_qmatrix
from .simulate import SdeModel, power_drift, regime_sigma

_ALLOWED_FUNCS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt,
                  "sin": np.sin, "cos": np.cos, "tanh": np.tanh, "abs": np.abs}
_ALLOWED_NAMES = {"pi": math.pi, "e": math.e}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def compile_rate_expr(expr: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an arithmetic expression in x into a vectorised callable.

    Every subexpression free of x is evaluated here, in floats, and must be a
    finite real number, so ``10**400``, ``9**9**9``, ``1/0`` or ``log(-1)``
    is a ParseError at load time, not an overflow (or, for integer powers, a
    computation without end) when the rate is first used.  A float constant
    gives numpy the same operands as the integer it replaces.
    """
    namespace = {"__builtins__": {}}
    namespace.update(_ALLOWED_FUNCS)
    namespace.update(_ALLOWED_NAMES)

    def fold(node):
        """Check a node against the whitelist and replace every x-free subtree
        by its float value; only a fully checked subtree is evaluated."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            node.left, node.right = fold(node.left), fold(node.right)
            operands = (node.left, node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            node.operand = fold(node.operand)
            operands = (node.operand,)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _ALLOWED_FUNCS and len(node.args) == 1
              and not node.keywords):
            node.args = [fold(node.args[0])]
            operands = tuple(node.args)
        elif isinstance(node, ast.Name) and node.id == "x":
            return node
        elif ((isinstance(node, ast.Constant) and type(node.value) in (int, float))  # no bool
              or (isinstance(node, ast.Name) and node.id in _ALLOWED_NAMES)):
            operands = ()
        else:
            raise ParseError(f"disallowed construct in rate expression {expr!r}")
        if not all(isinstance(op, ast.Constant) for op in operands):
            return node
        try:
            with np.errstate(all="raise"):
                value = float(eval(compile(ast.Expression(node), "<rate-expr>", "eval"),  # noqa: S307
                                   dict(namespace)))
            if not math.isfinite(value):
                raise OverflowError(f"it evaluates to {value}")
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ParseError(f"constant {ast.get_source_segment(expr, node)} in rate "
                             f"expression {expr!r} has no finite real value: {exc}") from None
        return ast.copy_location(ast.Constant(value), node)

    try:
        tree = ast.parse(expr, mode="eval")
        tree.body = fold(tree.body)
        code = compile(tree, "<rate-expr>", "eval")
    except SyntaxError as exc:
        raise ParseError(f"bad rate expression {expr!r}: {exc}") from None
    except (RecursionError, MemoryError):  # the parser's and fold's depth limits
        raise ParseError(f"rate expression of {len(expr)} characters nests too "
                         "deeply to parse") from None

    def fn(x: np.ndarray) -> np.ndarray:
        try:  # x is the one local name; the namespace is never written
            return np.asarray(eval(code, namespace, {"x": x}), dtype=float)  # noqa: S307
        except ArithmeticError as exc:
            raise ParseError(f"rate expression {expr!r} failed to evaluate: {exc}") from None

    return fn


# ---------------------------------------------------------------------------
# schema validation helpers
# ---------------------------------------------------------------------------

def _require_keys(doc: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number")
    v = float(value)
    if not math.isfinite(v):
        raise SchemaError(f"{where} must be finite")
    return v


def _finite_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where} must be a nonempty array of numbers")
    return np.array([_finite_number(v, f"{where}[{k}]") for k, v in enumerate(value)])


def _finite_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where} must be a nonempty array of rows")
    rows = [_finite_vector(r, f"{where}[{k}]") for k, r in enumerate(value)]
    if len({r.size for r in rows}) != 1:
        raise SchemaError(f"{where} rows have uneven lengths")
    return np.vstack(rows)


def _limit_tag(value, where: str) -> Limit:
    try:
        return Limit(value)
    except ValueError:
        raise SchemaError(f"{where} must be 'to-infinity' or 'to-zero'") from None


# ---------------------------------------------------------------------------
# the parsed model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RegimeModel:
    """A fully parsed model document plus the derived library objects."""

    switching: QMatrix | StateDependentRates | TailHomogeneousChain
    scan: Optional[ScanGrid]
    drift_b: Optional[np.ndarray]  # power drift b_i sign(x)|x|^delta; ou has delta 1
    delta: Optional[float]
    radial_component: Optional[np.ndarray]
    sigma: Optional[np.ndarray]
    dim: int
    boundary: str
    lyapunov: Optional[LyapunovBehavior]
    beta_seq: Optional[BetaSequence]
    cutpoints: Optional[tuple]
    two_function: Optional[LyapunovBehavior]  # tag: the limit of h

    @cached_property
    def q_tilde(self) -> QMatrix:
        """The bounding generator of state-dependent rates, from one
        :func:`bound_rates` call however many criteria read it."""
        return bound_rates(self.switching, self.scan)

    def sde(self) -> SdeModel:
        """The Monte Carlo model: the power drift, sigma, switching and
        boundary of the document, which needs a drift and a sigma section."""
        if self.drift_b is None:
            raise CriterionNotApplicable("simulation needs a power or ou drift section")
        if self.sigma is None:
            raise CriterionNotApplicable("simulation needs a sigma section")
        return SdeModel(dim=self.dim, drift=power_drift(self.drift_b, self.delta),
                        sigma=regime_sigma(self.sigma), rates=self.switching,
                        boundary=self.boundary)


def _parse_q(doc, n_regimes):
    _require_keys(doc, "q", ("kind",),
                  ("entries", "scan", "a", "b", "up", "down"))
    kind = doc.get("kind")
    if kind == "matrix":
        _require_keys(doc, "q(matrix)", ("kind", "entries"))
        if n_regimes is None:
            raise SchemaError("q.kind 'matrix' needs a finite regime count")
        m = _finite_matrix(doc["entries"], "q.entries")
        if m.shape != (n_regimes, n_regimes):
            raise SchemaError("q.entries must be n x n for the declared regime count")
        return validate_qmatrix(m), None
    if kind == "rates":
        _require_keys(doc, "q(rates)", ("kind", "entries", "scan"))
        if n_regimes is None:
            raise SchemaError("q.kind 'rates' needs a finite regime count")
        table = doc["entries"]
        if not isinstance(table, list) or not table:
            raise SchemaError("q.entries must be a nonempty array of rate entries")
        fns, rows, hints = {}, {}, {}  # text -> callable; i -> {j: text}
        for k, ent in enumerate(table):
            _require_keys(ent, f"q.entries[{k}]", ("i", "j", "expr"), ("inf", "sup"))
            i, j = ent["i"], ent["j"]
            if not (_is_int(i) and _is_int(j)
                    and 1 <= i <= n_regimes and 1 <= j <= n_regimes and i != j):
                raise SchemaError(f"q.entries[{k}]: bad index pair ({i},{j})")
            if j - 1 in rows.get(i - 1, ()):
                raise SchemaError(f"q.entries[{k}]: pair ({i},{j}) is listed twice")
            text = ent["expr"]
            if not isinstance(text, str):
                raise SchemaError(f"q.entries[{k}].expr must be a string")
            if text not in fns:
                fns[text] = compile_rate_expr(text)
            rows.setdefault(i - 1, {})[j - 1] = text
            if "inf" in ent and "sup" in ent:
                lo = _finite_number(ent["inf"], f"q.entries[{k}].inf")
                hi = _finite_number(ent["sup"], f"q.entries[{k}].sup")
                if lo > hi:
                    raise SchemaError(f"q.entries[{k}]: hint inf {lo:g} exceeds sup {hi:g}")
                if lo < 0:
                    raise SchemaError(f"q.entries[{k}]: hint inf {lo:g} is negative")
                hints[(i - 1, j - 1)] = (lo, hi)
            elif "inf" in ent or "sup" in ent:
                raise SchemaError(f"q.entries[{k}]: give both inf and sup hints or neither")

        if n_regimes == 2:
            # each distinct expression runs once on the whole batch, placed
            # by one mask: ufuncs act element by element, so each path gets its
            # own bits, and a value where no path of its regime sits is dropped
            q12, q21 = rows.get(0, {}).get(1), rows.get(1, {}).get(0)

            def rate_fn(x, lam):
                vals = {text: f(x) for text, f in fns.items()}
                at = lam == 0
                q = np.empty((2, x.shape[0]))
                q[1] = 0.0 if q12 is None else np.where(at, vals[q12], 0.0)
                q[0] = 0.0 if q21 is None else np.where(at, 0.0, vals[q21])
                return q
        else:
            def rate_fn(x, lam):
                # each source regime's expressions run on its own paths'
                # positions; pairs absent from the table stay 0
                q = np.zeros((n_regimes, x.shape[0]))
                for i, row in rows.items():
                    at = lam == i
                    if at.any():
                        xi = x[at]
                        for j, text in row.items():
                            q[j, at] = fns[text](xi)
                return q
        # evaluate judges what reaches the table; numpy's warnings are noise
        rate_fn = np.errstate(all="ignore")(rate_fn)

        sc = doc["scan"]
        _require_keys(sc, "q.scan", ("lo", "hi"), ("points", "spacing"))
        points, spacing = sc.get("points", 129), sc.get("spacing", "geometric")
        if not _is_int(points) or points < 2:
            raise SchemaError("q.scan.points must be an integer >= 2")
        if spacing not in ("geometric", "linear"):
            raise SchemaError("q.scan.spacing must be 'geometric' or 'linear'")
        scan = ScanGrid(lo=_finite_number(sc["lo"], "q.scan.lo"),
                        hi=_finite_number(sc["hi"], "q.scan.hi"),
                        points=points, spacing=spacing)
        try:
            scan.build()
        except EmptyGrid as exc:
            raise SchemaError(f"q.scan: {exc}") from None
        return StateDependentRates(n=n_regimes, rate_fn=rate_fn, hints=hints or None), scan
    if kind == "birth-death":
        # one form: constant rates a (down) and b (up), or per-state lists
        lists = "up" in doc or "down" in doc
        if lists and ("a" in doc or "b" in doc):
            raise SchemaError("q(birth-death) takes either a and b or up and down, not both")
        rates = ("up", "down") if lists else ("a", "b")
        _require_keys(doc, "q(birth-death)", ("kind",) + rates)
        if n_regimes is not None:
            raise SchemaError("q.kind 'birth-death' needs regimes 'infinite'")
        if lists:
            up = tuple(_finite_vector(doc["up"], "q.up"))
            down = tuple(_finite_vector(doc["down"], "q.down"))
            if len(up) != len(down):
                raise SchemaError(f"q.up and q.down must have one length, got "
                                  f"{len(up)} and {len(down)}")
        else:
            up, down = (_finite_number(doc["b"], "q.b"),), (_finite_number(doc["a"], "q.a"),)
        return TailHomogeneousChain(up_rates=up, down_rates=down), None
    raise SchemaError(f"q.kind must be matrix | rates | birth-death, got {kind!r}")


def _parse_drift(doc, n_regimes):
    if doc is None:
        return None, None, None
    _require_keys(doc, "drift", ("kind",), ("b", "delta", "radial_component"))
    kind = doc.get("kind")
    if kind in ("power", "ou"):
        if kind == "power":
            _require_keys(doc, "drift(power)", ("kind", "b", "delta"))
            delta = _finite_number(doc["delta"], "drift.delta")
        else:  # an ou drift is the linear power drift
            _require_keys(doc, "drift(ou)", ("kind", "b"))
            delta = 1.0
        b = _finite_vector(doc["b"], "drift.b")
        if n_regimes is not None and b.size != n_regimes:
            raise SchemaError("drift.b must have one entry per regime")
        if not -1.0 <= delta <= 1.0:
            raise SchemaError("drift.delta must lie in [-1, 1]")
        return b, delta, None
    if kind == "radial":
        _require_keys(doc, "drift(radial)", ("kind", "delta", "radial_component"))
        comp = _finite_matrix(doc["radial_component"], "drift.radial_component")
        delta = _finite_number(doc["delta"], "drift.delta")
        if n_regimes is not None and comp.shape[1] != n_regimes:
            raise SchemaError("drift.radial_component columns must match the regime count")
        if not -1.0 <= delta < 1.0:
            raise SchemaError("drift.delta must lie in [-1, 1) for radial profiles")
        return None, delta, comp
    raise SchemaError(f"drift.kind must be power | ou | radial, got {kind!r}")


def _parse_lyapunov(doc, n_regimes, drift_b, delta, sigma):
    if doc is None:
        return None, None
    _require_keys(doc, "lyapunov", (),
                  ("beta", "tag", "preset", "r0", "beta_values", "beta_tail_limit"))
    if "r0" in doc and not _finite_number(doc["r0"], "lyapunov.r0") > 0:
        raise SchemaError("lyapunov.r0 must be positive")
    if "preset" in doc:
        preset = doc["preset"]
        # the presets' bounds L_i V <= beta_i V hold for a linear drift only
        if drift_b is None or delta != 1.0:
            raise SchemaError("lyapunov presets need a linear drift section "
                              "(ou, or power with delta 1)")
        if preset == "abs":
            # V = |x|: L_i V = b_i V for large |x|
            return LyapunovBehavior(tag=Limit.TO_INFINITY, beta=drift_b), None
        if preset == "inverse-abs":
            sig = np.broadcast_to(sigma if sigma is not None else np.array([1.0]),
                                  drift_b.shape)
            beta = -drift_b + (sig ** 2) / float(doc.get("r0", 10.0)) ** 2
            return LyapunovBehavior(tag=Limit.TO_ZERO, beta=beta), None
        raise SchemaError(f"unknown lyapunov preset {preset!r}")
    if n_regimes is None:
        _require_keys(doc, "lyapunov(sequence)", ("beta_values", "beta_tail_limit", "tag"))
        head = tuple(_finite_vector(doc["beta_values"], "lyapunov.beta_values"))
        limit = _finite_number(doc["beta_tail_limit"], "lyapunov.beta_tail_limit")
        tag = _limit_tag(doc["tag"], "lyapunov.tag")
        seq = BetaSequence(head=head, tail_limit=limit)
        return LyapunovBehavior(tag=tag, beta=np.array(head)), seq
    _require_keys(doc, "lyapunov", ("beta", "tag"), ("r0",))
    beta = _finite_vector(doc["beta"], "lyapunov.beta")
    if n_regimes is not None and beta.size != n_regimes:
        raise SchemaError("lyapunov.beta must have one entry per regime")
    return LyapunovBehavior(tag=_limit_tag(doc["tag"], "lyapunov.tag"), beta=beta), None


def parse_model(doc: dict, source: str = "<dict>") -> RegimeModel:
    """Validate a model document and build the derived library objects."""
    _require_keys(doc, f"model {source}", ("regimes", "q"),
                  ("drift", "sigma", "lyapunov", "two_function", "partition",
                   "boundary", "dimension"))
    regimes = doc["regimes"]
    if regimes == "infinite":
        n_regimes = None
    elif _is_int(regimes) and regimes >= 1:
        n_regimes = regimes
    else:
        raise SchemaError("regimes must be a positive integer or 'infinite'")

    switching, scan = _parse_q(doc["q"], n_regimes)
    drift_b, delta, radial = _parse_drift(doc.get("drift"), n_regimes)

    sigma = None
    if "sigma" in doc:
        raw = doc["sigma"]
        sigma = (_finite_vector(raw, "sigma") if isinstance(raw, list)
                 else np.array([_finite_number(raw, "sigma")]))
        if n_regimes is not None and sigma.size not in (1, n_regimes):
            raise SchemaError("sigma must be a scalar or one value per regime")
        if np.abs(sigma).min() == 0:
            raise SchemaError("sigma entries must be nonzero")

    lyap, beta_seq = _parse_lyapunov(doc.get("lyapunov"), n_regimes, drift_b, delta, sigma)

    two = None
    if "two_function" in doc:
        td = doc["two_function"]
        _require_keys(td, "two_function", ("beta", "h_limit"))
        beta = _finite_vector(td["beta"], "two_function.beta")
        if n_regimes is not None and beta.size != n_regimes:
            raise SchemaError("two_function.beta must have one entry per regime")
        two = LyapunovBehavior(tag=_limit_tag(td["h_limit"], "two_function.h_limit"),
                               beta=beta)

    cutpoints = None
    if "partition" in doc:
        pd = doc["partition"]
        _require_keys(pd, "partition", ("cutpoints",))
        cutpoints = tuple(_finite_vector(pd["cutpoints"], "partition.cutpoints"))

    boundary = doc.get("boundary", "none")
    if boundary not in ("none", "reflect"):
        raise SchemaError("boundary must be 'none' or 'reflect'")
    dim = doc.get("dimension", 1)
    if not _is_int(dim) or dim < 1:
        raise SchemaError("dimension must be a positive integer")
    if boundary == "reflect" and dim != 1:
        raise SchemaError("boundary 'reflect' needs dimension 1")
    if isinstance(switching, StateDependentRates) and dim != 1:
        raise SchemaError("q.kind 'rates' needs dimension 1")

    return RegimeModel(switching=switching, scan=scan, drift_b=drift_b, delta=delta,
                       radial_component=radial, sigma=sigma, dim=dim,
                       boundary=boundary, lyapunov=lyap, beta_seq=beta_seq,
                       cutpoints=cutpoints, two_function=two)


def load_model(path) -> RegimeModel:
    """Parse a model file; ParseError for bad JSON, SchemaError for bad shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} nests too deeply to parse") from None
    return parse_model(doc, source=str(path))


def _reject_constant(name: str):
    raise ParseError(f"non-finite JSON literal {name!r} is not allowed")
