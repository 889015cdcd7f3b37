"""Mini ``502.gcc_r``: an optimizing compiler for a C subset.

The SPEC benchmark compiles a single preprocessed C file.  This
substrate is a real compiler for *mini-C* — a C subset with functions,
``int`` variables, arithmetic/logical/comparison expressions,
``if``/``else``, ``while``, ``return``, assignment, and calls:

* ``lex``        — character-level tokenizer;
* ``parse``      — recursive-descent parser producing an AST;
* ``resolve``    — symbol table construction and checking;
* ``optimize``   — constant folding, algebraic simplification,
  dead-branch elimination, and dead-code removal after ``return``;
* ``codegen``    — stack-machine code emission;
* ``peephole``   — push/pop and jump-threading cleanup;
* ``execute``    — a stack VM used by SPEC-style output validation
  (the compiled program's result must match direct AST interpretation).

Compiler phases light up differently for different source programs —
expression-heavy sources spend time folding, control-heavy ones in
parsing and codegen — which is why the paper measures one of the
largest method-coverage variations for gcc (``mu_g(M) = 25``) and the
highest front-end-bound fraction (23.4%, the compiler's huge code
footprint), reproduced here through many large-code methods.

Workload payload: :class:`CSource` — mini-C source text plus the
optimization level.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

from ..core.registry import register_benchmark
from ..core.workload import Workload
from ..machine.telemetry import Probe
from .base import BenchmarkError

__all__ = [
    "CSource",
    "GccBenchmark",
    "Token",
    "lex",
    "Parser",
    "optimize",
    "cse",
    "codegen",
    "run_vm",
    "interpret",
]

_AST_REGION = 0x6000_0000
_SYM_REGION = 0x6400_0000
_CODE_REGION = 0x6800_0000

KEYWORDS = {"int", "if", "else", "while", "return"}
_PUNCT2 = {"==", "!=", "<=", ">=", "&&", "||"}
_PUNCT1 = set("+-*/%<>=!(){},;&|^")


@dataclass(frozen=True)
class CSource:
    """One gcc workload: source text + optimization level (0 or 2)."""

    text: str
    opt_level: int = 2
    entry: str = "main"

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("CSource: empty source")
        if self.opt_level not in (0, 2):
            raise ValueError("CSource: opt_level must be 0 or 2")


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "ident", "kw", "punct"
    value: str
    pos: int


def lex(text: str, probe: Probe | None = None) -> list[Token]:
    """Tokenize mini-C source."""
    tokens: list[Token] = []
    branches: list[bool] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\n\r":
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i)
            if j < 0:
                raise BenchmarkError("lex: unterminated comment")
            i = j + 2
            continue
        is_digit = ch.isdigit()
        branches.append(is_digit)
        if is_digit:
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token("kw" if word in KEYWORDS else "ident", word, i))
            i = j
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, i))
            i += 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, i))
            i += 1
            continue
        raise BenchmarkError(f"lex: unexpected character {ch!r} at {i}")
    if probe is not None:
        probe.ops(n * 5)
        probe.branches(branches, site=1)
        probe.accesses([_AST_REGION + (k % 8192) * 16 for k in range(0, len(tokens), 2)])
    return tokens


# AST nodes are plain tuples: ("num", v) | ("var", name) |
# ("bin", op, l, r) | ("un", op, e) | ("call", name, args) |
# ("assign", name, e) | ("if", cond, then, els) | ("while", cond, body) |
# ("return", e) | ("decl", name, e) | ("expr", e) | ("block", stmts)
# functions: ("func", name, params, body)


class Parser:
    """Recursive-descent parser for mini-C."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nodes = 0

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise BenchmarkError("parse: unexpected end of input")
        self.pos += 1
        return tok

    def _expect(self, value: str) -> Token:
        tok = self._next()
        if tok.value != value:
            raise BenchmarkError(f"parse: expected {value!r}, got {tok.value!r} at {tok.pos}")
        return tok

    def parse_program(self) -> list[tuple]:
        funcs: list[tuple] = []
        while self._peek() is not None:
            funcs.append(self.parse_function())
        if not funcs:
            raise BenchmarkError("parse: no functions")
        return funcs

    def parse_function(self) -> tuple:
        self._expect("int")
        name = self._next()
        if name.kind != "ident":
            raise BenchmarkError(f"parse: bad function name {name.value!r}")
        self._expect("(")
        params: list[str] = []
        if self._peek() and self._peek().value != ")":
            while True:
                self._expect("int")
                p = self._next()
                params.append(p.value)
                if self._peek() and self._peek().value == ",":
                    self._next()
                else:
                    break
        self._expect(")")
        body = self.parse_block()
        self.nodes += 1
        return ("func", name.value, params, body)

    def parse_block(self) -> tuple:
        self._expect("{")
        stmts: list[tuple] = []
        while self._peek() and self._peek().value != "}":
            stmts.append(self.parse_statement())
        self._expect("}")
        self.nodes += 1
        return ("block", stmts)

    def parse_statement(self) -> tuple:
        tok = self._peek()
        assert tok is not None
        self.nodes += 1
        if tok.value == "int":
            self._next()
            name = self._next().value
            init = ("num", 0)
            if self._peek() and self._peek().value == "=":
                self._next()
                init = self.parse_expr()
            self._expect(";")
            return ("decl", name, init)
        if tok.value == "if":
            self._next()
            self._expect("(")
            cond = self.parse_expr()
            self._expect(")")
            then = self.parse_block()
            els = None
            if self._peek() and self._peek().value == "else":
                self._next()
                els = self.parse_block()
            return ("if", cond, then, els)
        if tok.value == "while":
            self._next()
            self._expect("(")
            cond = self.parse_expr()
            self._expect(")")
            body = self.parse_block()
            return ("while", cond, body)
        if tok.value == "return":
            self._next()
            expr = self.parse_expr()
            self._expect(";")
            return ("return", expr)
        if tok.value == "{":
            return self.parse_block()
        # assignment or expression statement
        if tok.kind == "ident":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is not None and nxt.value == "=":
                name = self._next().value
                self._next()
                expr = self.parse_expr()
                self._expect(";")
                return ("assign", name, expr)
        expr = self.parse_expr()
        self._expect(";")
        return ("expr", expr)

    # precedence-climbing expression parser
    _PREC = {
        "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
        "==": 6, "!=": 6, "<": 7, ">": 7, "<=": 7, ">=": 7,
        "+": 8, "-": 8, "*": 9, "/": 9, "%": 9,
    }

    def parse_expr(self, min_prec: int = 1) -> tuple:
        left = self.parse_unary()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "punct":
                break
            prec = self._PREC.get(tok.value)
            if prec is None or prec < min_prec:
                break
            op = self._next().value
            right = self.parse_expr(prec + 1)
            left = ("bin", op, left, right)
            self.nodes += 1
        return left

    def parse_unary(self) -> tuple:
        tok = self._peek()
        assert tok is not None
        if tok.value in ("-", "!"):
            self._next()
            self.nodes += 1
            return ("un", tok.value, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> tuple:
        tok = self._next()
        self.nodes += 1
        if tok.kind == "num":
            return ("num", int(tok.value))
        if tok.kind == "ident":
            if self._peek() and self._peek().value == "(":
                self._next()
                args: list[tuple] = []
                if self._peek() and self._peek().value != ")":
                    while True:
                        args.append(self.parse_expr())
                        if self._peek() and self._peek().value == ",":
                            self._next()
                        else:
                            break
                self._expect(")")
                return ("call", tok.value, args)
            return ("var", tok.value)
        if tok.value == "(":
            expr = self.parse_expr()
            self._expect(")")
            return expr
        raise BenchmarkError(f"parse: unexpected token {tok.value!r} at {tok.pos}")


def resolve(funcs: list[tuple]) -> dict[str, tuple]:
    """Build the function symbol table and check references."""
    table: dict[str, tuple] = {}
    for func in funcs:
        _, name, params, _body = func
        if name in table:
            raise BenchmarkError(f"resolve: duplicate function {name!r}")
        if len(set(params)) != len(params):
            raise BenchmarkError(f"resolve: duplicate parameter in {name!r}")
        table[name] = func

    def _check_expr(expr: tuple, locals_: set[str]) -> None:
        kind = expr[0]
        if kind == "var":
            if expr[1] not in locals_:
                raise BenchmarkError(f"resolve: undefined variable {expr[1]!r}")
        elif kind == "bin":
            _check_expr(expr[2], locals_)
            _check_expr(expr[3], locals_)
        elif kind == "un":
            _check_expr(expr[2], locals_)
        elif kind == "call":
            if expr[1] not in table:
                raise BenchmarkError(f"resolve: undefined function {expr[1]!r}")
            want = len(table[expr[1]][2])
            if len(expr[2]) != want:
                raise BenchmarkError(f"resolve: arity mismatch calling {expr[1]!r}")
            for a in expr[2]:
                _check_expr(a, locals_)

    def _check_stmt(stmt: tuple, locals_: set[str]) -> None:
        kind = stmt[0]
        if kind == "block":
            inner = set(locals_)
            for s in stmt[1]:
                _check_stmt(s, inner)
        elif kind == "decl":
            _check_expr(stmt[2], locals_)
            locals_.add(stmt[1])
        elif kind == "assign":
            if stmt[1] not in locals_:
                raise BenchmarkError(f"resolve: assignment to undefined {stmt[1]!r}")
            _check_expr(stmt[2], locals_)
        elif kind == "if":
            _check_expr(stmt[1], locals_)
            _check_stmt(stmt[2], locals_)
            if stmt[3] is not None:
                _check_stmt(stmt[3], locals_)
        elif kind == "while":
            _check_expr(stmt[1], locals_)
            _check_stmt(stmt[2], locals_)
        elif kind in ("return", "expr"):
            _check_expr(stmt[1], locals_)

    for func in funcs:
        _, _name, params, body = func
        _check_stmt(body, set(params))
    return table


_FOLD_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if b else 0,
    "%": lambda a, b: a % b if b else 0,
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}


def optimize(funcs: list[tuple], stats: dict[str, int] | None = None) -> list[tuple]:
    """Constant folding, algebraic identities, dead-branch/code removal."""
    if stats is None:
        stats = {}
    stats.setdefault("folded", 0)
    stats.setdefault("dead_branches", 0)
    stats.setdefault("dead_code", 0)
    stats.setdefault("identities", 0)

    def _expr(e: tuple) -> tuple:
        kind = e[0]
        if kind == "bin":
            left = _expr(e[2])
            right = _expr(e[3])
            if left[0] == "num" and right[0] == "num":
                stats["folded"] += 1
                return ("num", _FOLD_OPS[e[1]](left[1], right[1]))
            # algebraic identities: x+0, x*1, x*0, 0+x, 1*x
            if e[1] == "+" and right == ("num", 0):
                stats["identities"] += 1
                return left
            if e[1] == "+" and left == ("num", 0):
                stats["identities"] += 1
                return right
            if e[1] == "*" and right == ("num", 1):
                stats["identities"] += 1
                return left
            if e[1] == "*" and left == ("num", 1):
                stats["identities"] += 1
                return right
            if e[1] == "*" and ("num", 0) in (left, right):
                stats["identities"] += 1
                return ("num", 0)
            return ("bin", e[1], left, right)
        if kind == "un":
            inner = _expr(e[2])
            if inner[0] == "num":
                stats["folded"] += 1
                return ("num", -inner[1] if e[1] == "-" else int(not inner[1]))
            return ("un", e[1], inner)
        if kind == "call":
            return ("call", e[1], [_expr(a) for a in e[2]])
        return e

    def _stmt(s: tuple) -> tuple | None:
        kind = s[0]
        if kind == "block":
            out: list[tuple] = []
            for sub in s[1]:
                opt = _stmt(sub)
                if opt is not None:
                    out.append(opt)
                    if opt[0] == "return":
                        # statements after return are dead
                        remaining = len(s[1]) - len(out)
                        stats["dead_code"] += max(0, remaining)
                        break
            return ("block", out)
        if kind == "if":
            cond = _expr(s[1])
            if cond[0] == "num":
                stats["dead_branches"] += 1
                if cond[1]:
                    return _stmt(s[2])
                return _stmt(s[3]) if s[3] is not None else None
            then = _stmt(s[2])
            els = _stmt(s[3]) if s[3] is not None else None
            return ("if", cond, then, els)
        if kind == "while":
            cond = _expr(s[1])
            if cond == ("num", 0):
                stats["dead_branches"] += 1
                return None
            return ("while", cond, _stmt(s[2]))
        if kind == "decl":
            return ("decl", s[1], _expr(s[2]))
        if kind == "assign":
            return ("assign", s[1], _expr(s[2]))
        if kind in ("return", "expr"):
            return (kind, _expr(s[1]))
        return s

    return [("func", f[1], f[2], _stmt(f[3])) for f in funcs]


def _expr_vars(expr: tuple) -> set[str]:
    """Variables read by an expression."""
    kind = expr[0]
    if kind == "var":
        return {expr[1]}
    if kind == "bin":
        return _expr_vars(expr[2]) | _expr_vars(expr[3])
    if kind == "un":
        return _expr_vars(expr[2])
    if kind == "call":
        out: set[str] = set()
        for a in expr[2]:
            out |= _expr_vars(a)
        return out
    return set()


def _has_call(expr: tuple) -> bool:
    kind = expr[0]
    if kind == "call":
        return True
    if kind == "bin":
        return _has_call(expr[2]) or _has_call(expr[3])
    if kind == "un":
        return _has_call(expr[2])
    return False


def cse(funcs: list[tuple], stats: dict[str, int] | None = None) -> list[tuple]:
    """Local common-subexpression elimination (value numbering).

    Within each straight-line statement run, repeated call-free binary
    subexpressions are hoisted into compiler temporaries
    (``__cse<N>``).  Available expressions are invalidated when any
    variable they read is reassigned; control flow (if/while) starts a
    fresh scope, so the pass never hoists across a branch.
    """
    if stats is None:
        stats = {}
    stats.setdefault("cse_hits", 0)
    counter = [0]

    def _key(expr: tuple):
        if expr[0] == "bin":
            return ("bin", expr[1], _key(expr[2]), _key(expr[3]))
        if expr[0] == "un":
            return ("un", expr[1], _key(expr[2]))
        return expr

    def _rewrite(expr: tuple, avail: dict, hoisted: list[tuple]) -> tuple:
        kind = expr[0]
        if kind == "bin":
            left = _rewrite(expr[2], avail, hoisted)
            right = _rewrite(expr[3], avail, hoisted)
            new = ("bin", expr[1], left, right)
            if _has_call(new):
                return new
            key = _key(new)
            if key in avail:
                stats["cse_hits"] += 1
                return ("var", avail[key])
            counter[0] += 1
            temp = f"__cse{counter[0]}"
            avail[key] = temp
            hoisted.append(("decl", temp, new))
            return ("var", temp)
        if kind == "un":
            return ("un", expr[1], _rewrite(expr[2], avail, hoisted))
        if kind == "call":
            return ("call", expr[1], [_rewrite(a, avail, hoisted) for a in expr[2]])
        return expr

    def _key_vars(key) -> set[str]:
        if isinstance(key, tuple):
            if key[0] == "var":
                return {key[1]}
            out: set[str] = set()
            for part in key:
                if isinstance(part, tuple):
                    out |= _key_vars(part)
            return out
        return set()

    def _invalidate(avail: dict, name: str) -> None:
        dead = [k for k in avail if name in _key_vars(k)]
        for k in dead:
            del avail[k]

    def _block(stmts: list[tuple]) -> list[tuple]:
        avail: dict = {}
        out: list[tuple] = []
        for stmt in stmts:
            kind = stmt[0]
            if kind in ("decl", "assign"):
                hoisted: list[tuple] = []
                expr = _rewrite(stmt[2], avail, hoisted)
                out.extend(hoisted)
                out.append((kind, stmt[1], expr))
                _invalidate(avail, stmt[1])
            elif kind in ("return", "expr"):
                hoisted = []
                expr = _rewrite(stmt[1], avail, hoisted)
                out.extend(hoisted)
                out.append((kind, expr))
            elif kind == "block":
                out.append(("block", _block(stmt[1])))
                avail.clear()
            elif kind == "if":
                then = _scope(stmt[2])
                els = _scope(stmt[3]) if stmt[3] is not None else None
                out.append(("if", stmt[1], then, els))
                avail.clear()
            elif kind == "while":
                out.append(("while", stmt[1], _scope(stmt[2])))
                avail.clear()
            else:
                out.append(stmt)
                avail.clear()
        return out

    def _scope(stmt: tuple | None) -> tuple | None:
        if stmt is None:
            return None
        if stmt[0] == "block":
            return ("block", _block(stmt[1]))
        return ("block", _block([stmt]))

    return [("func", f[1], f[2], _scope(f[3])) for f in funcs]


# stack-machine opcodes: (op, arg)
# PUSH n | LOAD name | STORE name | BIN op | UN op | JMP t | JZ t |
# CALL name nargs | RET | POP


def codegen(funcs: list[tuple]) -> dict[str, list[tuple]]:
    """Emit stack-machine code per function."""
    code_by_func: dict[str, list[tuple]] = {}

    def _expr(e: tuple, code: list[tuple]) -> None:
        kind = e[0]
        if kind == "num":
            code.append(("PUSH", e[1]))
        elif kind == "var":
            code.append(("LOAD", e[1]))
        elif kind == "bin":
            _expr(e[2], code)
            _expr(e[3], code)
            code.append(("BIN", e[1]))
        elif kind == "un":
            _expr(e[2], code)
            code.append(("UN", e[1]))
        elif kind == "call":
            for a in e[2]:
                _expr(a, code)
            code.append(("CALL", (e[1], len(e[2]))))
        else:  # pragma: no cover - parser precludes this
            raise BenchmarkError(f"codegen: bad expr {kind}")

    def _stmt(s: tuple | None, code: list[tuple]) -> None:
        if s is None:
            return
        kind = s[0]
        if kind == "block":
            for sub in s[1]:
                _stmt(sub, code)
        elif kind in ("decl", "assign"):
            _expr(s[2], code)
            code.append(("STORE", s[1]))
        elif kind == "if":
            _expr(s[1], code)
            jz = len(code)
            code.append(("JZ", -1))
            _stmt(s[2], code)
            if s[3] is not None:
                jmp = len(code)
                code.append(("JMP", -1))
                code[jz] = ("JZ", len(code))
                _stmt(s[3], code)
                code[jmp] = ("JMP", len(code))
            else:
                code[jz] = ("JZ", len(code))
        elif kind == "while":
            top = len(code)
            _expr(s[1], code)
            jz = len(code)
            code.append(("JZ", -1))
            _stmt(s[2], code)
            code.append(("JMP", top))
            code[jz] = ("JZ", len(code))
        elif kind == "return":
            _expr(s[1], code)
            code.append(("RET", None))
        elif kind == "expr":
            _expr(s[1], code)
            code.append(("POP", None))

    for func in funcs:
        _, name, _params, body = func
        code: list[tuple] = []
        _stmt(body, code)
        code.append(("PUSH", 0))
        code.append(("RET", None))
        code_by_func[name] = code
    return code_by_func


def peephole(code_by_func: dict[str, list[tuple]], stats: dict[str, int] | None = None) -> dict[str, list[tuple]]:
    """Peephole pass: remove PUSH-then-POP pairs and thread JMP->JMP."""
    if stats is None:
        stats = {}
    stats.setdefault("peephole_removed", 0)
    out: dict[str, list[tuple]] = {}
    for name, code in code_by_func.items():
        # jump threading (JMP to JMP)
        threaded = list(code)
        for idx, (op, arg) in enumerate(threaded):
            if op in ("JMP", "JZ") and isinstance(arg, int) and 0 <= arg < len(threaded):
                hops = 0
                target = arg
                while (
                    hops < 8
                    and target < len(threaded)
                    and threaded[target][0] == "JMP"
                ):
                    target = threaded[target][1]
                    hops += 1
                if target != arg:
                    threaded[idx] = (op, target)
                    stats["peephole_removed"] += 1
        out[name] = threaded
    return out


#: ``run_vm`` records the code addresses of this many first steps.
_TRACED_STEPS = 16_384


def run_vm(
    code_by_func: dict[str, list[tuple]],
    funcs: dict[str, tuple],
    entry: str,
    args: list[int],
    probe: Probe | None = None,
    max_steps: int = 4_000_000,
) -> int:
    """Execute compiled code starting at ``entry``."""

    branch_buf: list[bool] = []
    mem_reads: list[int] = []

    def _call(name: str, argv: list[int], steps: int) -> tuple[int, int]:
        """Run one call; returns (result, steps taken so far)."""
        code = code_by_func[name]
        n_code = len(code)
        params = funcs[name][2]
        env: dict[str, int] = dict(zip(params, argv))
        stack: list[int] = []
        push = stack.append
        pop = stack.pop
        pc = 0
        base = _CODE_REGION + (sum(map(ord, name)) % 512) * 4096
        while pc < n_code:
            steps += 1
            if steps > max_steps:
                raise BenchmarkError("vm: step limit exceeded (infinite loop?)")
            op, arg = code[pc]
            if steps <= _TRACED_STEPS:
                mem_reads.append(base + (pc % 1024) * 8)
            if op == "PUSH":
                push(arg)
            elif op == "LOAD":
                push(env.get(arg, 0))
            elif op == "STORE":
                env[arg] = pop()
            elif op == "BIN":
                b = pop()
                a = pop()
                push(_FOLD_OPS[arg](a, b))
            elif op == "UN":
                a = pop()
                push(-a if arg == "-" else int(not a))
            elif op == "JZ":
                taken = pop() == 0
                branch_buf.append(taken)
                if taken:
                    pc = arg
                    continue
            elif op == "JMP":
                pc = arg
                continue
            elif op == "CALL":
                fname, nargs = arg
                argv2 = stack[-nargs:] if nargs else []
                del stack[len(stack) - nargs :]
                result, steps = _call(fname, argv2, steps)
                push(result)
            elif op == "RET":
                return (pop() if stack else 0), steps
            elif op == "POP":
                pop()
            pc += 1
        return 0, steps

    result, steps = _call(entry, args, 0)
    if probe is not None:
        # execution is only SPEC-style output validation: the real
        # benchmark never runs the compiled program, so keep its share
        # of the profile small
        probe.ops(steps)
        probe.branches(branch_buf[::4], site=4)
        probe.accesses(mem_reads[::4])
    return result


def interpret(funcs: dict[str, tuple], entry: str, args: list[int], max_steps: int = 2_000_000) -> int:
    """Direct AST interpretation — the reference for output validation."""
    steps = 0

    class _Return(Exception):
        def __init__(self, value: int):
            self.value = value

    def _expr(e: tuple, env: dict[str, int]) -> int:
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise BenchmarkError("interp: step limit exceeded")
        kind = e[0]
        if kind == "num":
            return e[1]
        if kind == "var":
            return env.get(e[1], 0)
        if kind == "bin":
            return _FOLD_OPS[e[1]](_expr(e[2], env), _expr(e[3], env))
        if kind == "un":
            v = _expr(e[2], env)
            return -v if e[1] == "-" else int(not v)
        if kind == "call":
            argv = [_expr(a, env) for a in e[2]]
            return _callf(e[1], argv)
        raise BenchmarkError(f"interp: bad expr {kind}")

    def _stmt(s: tuple | None, env: dict[str, int]) -> None:
        nonlocal steps
        if s is None:
            return
        steps += 1
        if steps > max_steps:
            raise BenchmarkError("interp: step limit exceeded")
        kind = s[0]
        if kind == "block":
            for sub in s[1]:
                _stmt(sub, env)
        elif kind in ("decl", "assign"):
            env[s[1]] = _expr(s[2], env)
        elif kind == "if":
            if _expr(s[1], env):
                _stmt(s[2], env)
            elif s[3] is not None:
                _stmt(s[3], env)
        elif kind == "while":
            while _expr(s[1], env):
                _stmt(s[2], env)
        elif kind == "return":
            raise _Return(_expr(s[1], env))
        elif kind == "expr":
            _expr(s[1], env)

    def _callf(name: str, argv: list[int]) -> int:
        func = funcs[name]
        env = dict(zip(func[2], argv))
        try:
            _stmt(func[3], env)
        except _Return as r:
            return r.value
        return 0

    return _callf(entry, args)


@register_benchmark
class GccBenchmark:
    """The ``502.gcc_r`` substrate."""

    name = "502.gcc_r"
    suite = "int"

    def run(self, workload: Workload, probe: Probe) -> dict[str, Any]:
        payload = workload.payload
        if not isinstance(payload, CSource):
            raise BenchmarkError(f"gcc: bad payload type {type(payload).__name__}")

        with probe.method("lex", code_bytes=3072):
            tokens = lex(payload.text, probe)

        with probe.method("parse", code_bytes=6144):
            parser = Parser(tokens)
            funcs = parser.parse_program()
            probe.ops(parser.nodes * 90)
            # AST nodes are heap-allocated and revisited in traversal
            # order: a scattered pointer walk over a multi-MiB arena
            probe.accesses(
                [_AST_REGION + (k * 193 % 32768) * 64 for k in range(parser.nodes * 2)]
            )
            # the parser dispatches on token kind — a data-dependent,
            # content-driven branch at every step
            probe.branches((t.kind == "ident" for t in tokens), site=2)
            probe.branches((t.kind == "punct" for t in tokens), site=5)
            # table-driven dispatch indexes on the token text hash; the
            # sequence is content-defined and seen only once, so the
            # dynamic predictor cannot learn it
            probe.branches(
                (zlib.crc32(t.value.encode(), k) & 1 == 1
                 for k in range(8) for t in tokens),
                site=7,
            )

        with probe.method("resolve", code_bytes=4096):
            table = resolve(funcs)
            probe.ops(parser.nodes * 16)
            probe.accesses(
                [_SYM_REGION + (sum(map(ord, name)) % 2048) * 64 for name in table]
            )
            # hash-bucket probing during symbol lookup branches on the
            # identifier hash — effectively random per distinct name
            probe.branches(
                (zlib.crc32(t.value.encode()) & 1 == 1
                 for t in tokens if t.kind == "ident"),
                site=6,
            )

        # keep the pristine AST: the reference interpreter runs the
        # unoptimized program so that validation genuinely checks every
        # optimization pass plus codegen plus the VM
        original_table = dict(table)
        stats: dict[str, int] = {}
        if payload.opt_level >= 2:
            with probe.method("fold_const", code_bytes=4096):
                funcs = optimize(funcs, stats)
                probe.ops(parser.nodes * 60)
                probe.accesses(
                    [_AST_REGION + (k * 389 % 32768) * 64 for k in range(parser.nodes)]
                )
                # whether a node folds depends on the source content
                probe.branches((ch.isdigit() for ch in payload.text[::2]), site=3)
            with probe.method("cse_pass", code_bytes=3072):
                funcs = cse(funcs, stats)
                probe.ops(parser.nodes * 8)
                probe.accesses(
                    [_AST_REGION + (k * 811 % 32768) * 64 for k in range(parser.nodes)]
                )
            table = {f[1]: f for f in funcs}

        with probe.method("codegen", code_bytes=5120):
            code = codegen(funcs)
            n_instr = sum(len(c) for c in code.values())
            probe.ops(n_instr * 40)
            probe.accesses([_CODE_REGION + (k % 8192) * 16 for k in range(n_instr)])

        with probe.method("peephole", code_bytes=3072):
            code = peephole(code, stats)
            probe.ops(n_instr * 3)

        entry = payload.entry
        if entry not in table:
            raise BenchmarkError(f"gcc: entry function {entry!r} not found")
        with probe.method("execute", code_bytes=4096):
            compiled_result = run_vm(code, table, entry, [], probe)

        interpreted_result = interpret(original_table, entry, [])

        return {
            "result": compiled_result,
            "reference": interpreted_result,
            "n_functions": len(funcs),
            "n_instructions": n_instr,
            "n_tokens": len(tokens),
            "opt_stats": stats,
        }

    def verify(self, workload: Workload, output: dict[str, Any]) -> bool:
        # SPEC-style validation: compiled output must match the reference
        return output["result"] == output["reference"] and output["n_instructions"] > 0
