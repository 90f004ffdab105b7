"""A tiny evaluator for the QF_BV subset crow emits, at width 32.

It stands in for a solver when none is installed: instead of deciding a
script, it evaluates the asserted formula under concrete values of the
declared constants. Terms are 32-bit bitvectors (Python ints in
[0, 2**32)) or booleans; `let` binds in parallel, as SMT-LIB defines it.
"""

import re

W = 32
MASK = (1 << W) - 1

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse(text: str) -> list:
    """All top-level s-expressions of `text`, as nested lists of atoms."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    assert len(stack) == 1, "unbalanced parentheses"
    return stack[0]


def _signed(v: int) -> int:
    return v - (1 << W) if v >> (W - 1) else v


def _shift(v: int, s: int, left: bool) -> int:
    if s >= W:
        return 0
    return (v << s) & MASK if left else v >> s


_BV = {
    "bvadd": lambda x, y: (x + y) & MASK,
    "bvsub": lambda x, y: (x - y) & MASK,
    "bvmul": lambda x, y: (x * y) & MASK,
    "bvand": lambda x, y: x & y,
    "bvor": lambda x, y: x | y,
    "bvxor": lambda x, y: x ^ y,
    "bvshl": lambda x, s: _shift(x, s, True),
    "bvlshr": lambda x, s: _shift(x, s, False),
    "bvashr": lambda x, s: (_signed(x) >> s) & MASK,
    "bvult": lambda x, y: x < y,
    "bvugt": lambda x, y: x > y,
    "bvule": lambda x, y: x <= y,
    "bvuge": lambda x, y: x >= y,
    "bvslt": lambda x, y: _signed(x) < _signed(y),
    "bvsgt": lambda x, y: _signed(x) > _signed(y),
    "bvsle": lambda x, y: _signed(x) <= _signed(y),
    "bvsge": lambda x, y: _signed(x) >= _signed(y),
    "=": lambda x, y: x == y,
    "distinct": lambda x, y: x != y,
}


def evaluate(term, env: dict):
    if isinstance(term, str):
        if term.startswith("#x"):
            assert len(term) == 2 + W // 4, term
            return int(term[2:], 16)
        if term.startswith("#b"):
            assert len(term) == 2 + W, term
            return int(term[2:], 2)
        return env[term]
    head, *args = term
    if head == "let":
        bindings, body = args
        inner = dict(env)
        inner.update((name, evaluate(t, env)) for name, t in bindings)
        return evaluate(body, inner)
    if head == "ite":
        cond, then, other = args
        return evaluate(then, env) if evaluate(cond, env) else evaluate(other, env)
    fn = _BV[head]
    return fn(*(evaluate(a, env) for a in args))


def eval_script(script: str, values) -> bool:
    """The asserted formula of a crow script with `in<i>` = values[i]; the
    script is sat exactly when this is true for some values."""
    forms = parse(script)
    assert forms[0] == ["set-logic", "QF_BV"]
    env = {}
    asserted = []
    for form in forms[1:]:
        if form[0] == "declare-const":
            assert form[2] == ["_", "BitVec", str(W)]
            env[form[1]] = values[int(form[1][2:])] & MASK
        elif form[0] == "assert":
            asserted.append(form[1])
        else:
            assert form in (["check-sat"], ["get-model"]), form
    assert len(asserted) == 1
    return evaluate(asserted[0], env)
