"""Expected outcomes and an independent replay of flat parametrizations.

Nothing here imports flatcheck or sympy.  Model text and the infix
strings flatcheck writes are evaluated by a small arithmetic evaluator
over Python floats (for replays) or Fractions (for exact checks), so a
verdict or a parametrization is judged against an answer that does not
come from the program under test.
"""

import ast
import random
from fractions import Fraction

# Hand-written from README.md (the model table, the exit-code table and
# the flat4 JSON example): exit codes of `analyze` and `extract`,
# verdict, kbar and sfl.  kbar is the length of the distribution
# sequence: one step per state of a single-input delay chain, and 0 for
# a sequence that stalls at the first step.  Models that stop with
# exit 2 have no verdict.  `inputs` rewrites the original
# inputs of a model that is reduced before analysis in terms of the
# reduced input and the extra flat-output component: for
# redundant_input, uhat_1 is the update x2+ = u1 + u2 and y2 = u2.
BUNDLED = {
    "chain2": {"analyze": 0, "extract": 0, "verdict": "FLAT", "kbar": 2, "sfl": True},
    "shift1": {"analyze": 0, "extract": 0, "verdict": "FLAT", "kbar": 1, "sfl": True},
    "sfl_quadratic": {"analyze": 0, "extract": 0, "verdict": "FLAT", "kbar": 2, "sfl": True},
    "nonflat_bilinear": {
        "analyze": 1, "extract": 1, "verdict": "NOT_FLAT", "kbar": 0, "sfl": False,
    },
    "quad_chain": {"analyze": 0, "extract": 3, "verdict": "FLAT", "kbar": 2, "sfl": True},
    "quad_integrator": {"analyze": 2, "extract": 2, "verdict": None},
    "redundant_input": {
        "analyze": 0, "extract": 0, "verdict": "FLAT", "kbar": 2, "sfl": True,
        "inputs": {"u1": "uhat_1 - y2", "u2": "y2"},
    },
    "flat4": {"analyze": 0, "extract": 0, "verdict": "FLAT", "kbar": 3, "sfl": False},
}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
}


class Expr:
    """An arithmetic expression in the model grammar (+ - * / ^, numbers, names)."""

    def __init__(self, text):
        self.text = text
        self._tree = ast.parse(text.replace("^", "**"), mode="eval").body
        self.names = {n.id for n in ast.walk(self._tree) if isinstance(n, ast.Name)}

    def __call__(self, env):
        return self._eval(self._tree, env)

    def _eval(self, node, env):
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            if isinstance(node.op, ast.Pow):
                exponent = self._eval(node.right, env)
                if exponent != int(exponent):
                    raise ValueError("non-integer power in %r" % self.text)
                return left ** int(exponent)
            return _BINOPS[type(node.op)](left, self._eval(node.right, env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = self._eval(node.operand, env)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            if isinstance(node.value, float):
                return Fraction(str(node.value))
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return env[node.id]
        raise ValueError("unsupported syntax in %r" % self.text)


class Model:
    """The parts of a model file the replay needs: names, dynamics, equilibrium."""

    def __init__(self, text):
        self.states, self.inputs, self.update = [], [], {}
        eq_text = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("states:"):
                self.states = _names(line[len("states:"):])
            elif line.startswith("inputs:"):
                self.inputs = _names(line[len("inputs:"):])
            elif line.startswith("equilibrium:"):
                eq_text = line[len("equilibrium:"):].strip()
            elif line.startswith("next "):
                lhs, rhs = line[len("next "):].split("=", 1)
                self.update[lhs.strip()] = Expr(rhs.strip())
        self.equilibrium = {v: Fraction(0) for v in self.states + self.inputs}
        if eq_text and eq_text != "all zero":
            for item in eq_text.split(","):
                name, value = item.split("=")
                self.equilibrium[name.strip()] = Expr(value.strip())({})

    def step(self, env):
        return [self.update[s](env) for s in self.states]


def _names(text):
    return text.replace(",", " ").split()


def _jet_env(ys, t, horizon):
    """Jet variables y<i>, y<i>_p<k> at time t from sampled output sequences."""
    env = {}
    for i, seq in enumerate(ys, start=1):
        env["y%d" % i] = seq[t]
        for k in range(1, horizon + 1):
            env["y%d_p%d" % (i, k)] = seq[t + k]
    return env


def _max_shift(exprs):
    top = 0
    for e in exprs:
        for name in e.names:
            if "_p" in name:
                top = max(top, int(name.rsplit("_p", 1)[1]))
    return top


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def replay_parametrization(model, doc, expected, rng, trials=5, steps=6, box=0.05, tol=1e-8):
    """Check an `extract --json` parametrization on random flat-output jets.

    Each trial samples output sequences near the equilibrium value of the
    document's flat output, maps every time step through Fx and Fu, and
    requires x(t+1) = f(x(t), u(t)) and y(t) = h(x(t), u(t)).  Returns None when
    every check holds, else a one-line reason.
    """
    param = doc["parametrization"]
    fx = {s: Expr(e) for s, e in param["Fx"].items()}
    fu = {u: Expr(e) for u, e in param["Fu"].items()}
    outputs = [Expr(c) for c in doc["flat_output"]["components"]]
    if doc["flat_output"]["q"] != 0:
        return "flat output depends on inputs (q=%d); replay covers q=0" % doc["flat_output"]["q"]
    if set(fx) != set(model.states):
        return "Fx names %s, model states %s" % (sorted(fx), model.states)
    to_inputs = {u: Expr(e) for u, e in expected.get("inputs", {}).items()}
    if not to_inputs and set(fu) != set(model.inputs):
        return "Fu names %s, model inputs %s" % (sorted(fu), model.inputs)
    horizon = _max_shift(list(fx.values()) + list(fu.values()) + list(to_inputs.values()))
    y_eq = [float(h(model.equilibrium)) for h in outputs]
    for _ in range(trials):
        ys = [[c + rng.uniform(-box, box) for _ in range(steps + horizon + 1)] for c in y_eq]
        envs = [_jet_env(ys, t, horizon) for t in range(steps + 1)]
        xs = [{s: float(fx[s](env)) for s in model.states} for env in envs]
        for t in range(steps):
            u = {name: float(e(envs[t])) for name, e in fu.items()}
            if to_inputs:
                u = {name: float(e({**envs[t], **u})) for name, e in to_inputs.items()}
            point = {**xs[t], **u}
            for i, h in enumerate(outputs):
                got = float(h(point))
                if not _close(got, ys[i][t], tol):
                    return "y%d(t=%d): h(x, u) = %.17g, jet %.17g" % (i + 1, t, got, ys[i][t])
            nxt = model.step(point)
            for s, want in zip(model.states, nxt):
                if not _close(xs[t + 1][s], float(want), tol):
                    return "%s(t=%d): Fx %.17g, f(x,u) %.17g" % (s, t + 1, xs[t + 1][s], want)
    return None


def replay_candidate(model, components, fu_text, rng, trials=5, steps=6, box=0.05, tol=1e-8):
    """Check the F_u that `verify` printed for a candidate output y = h(x).

    Random input sequences near the equilibrium drive the model forward;
    the candidate is evaluated along the trajectory and F_u of its jets
    must give back the input that was applied.  Returns None or a reason.
    """
    outputs = [Expr(c) for c in components]
    fu = {u: Expr(e) for u, e in fu_text.items()}
    if set(fu) != set(model.inputs):
        return "F_u names %s, model inputs %s" % (sorted(fu), model.inputs)
    horizon = _max_shift(list(fu.values()))
    eq = {k: float(v) for k, v in model.equilibrium.items()}
    for _ in range(trials):
        x = {s: eq[s] + rng.uniform(-box, box) for s in model.states}
        us, ys = [], []
        for _ in range(steps + horizon + 1):
            u = {name: eq[name] + rng.uniform(-box, box) for name in model.inputs}
            env = {**x, **u}
            ys.append([float(h(env)) for h in outputs])
            us.append(u)
            x = dict(zip(model.states, (float(v) for v in model.step(env))))
        seqs = [[row[i] for row in ys] for i in range(len(outputs))]
        for t in range(steps):
            env = _jet_env(seqs, t, horizon)
            for name, e in fu.items():
                got = float(e(env))
                if not _close(got, us[t][name], tol):
                    return "%s(t=%d): F_u %.17g, applied %.17g" % (name, t, got, us[t][name])
    return None


def new_rng(seed, label):
    """A replay generator that depends only on the run seed and the operation."""
    return random.Random("%d:%s" % (seed, label))
