"""Signatures, language fragments, and the sentence/action term language.

Surface grammar (ASCII, precedence low -> high: `|`, `&`, prefix operators):

    phi ::= "true" | "false" | IDENT | "~" phi | phi "&" phi | phi "|" phi
          | "<" act ">" phi | "[" act "]" phi | "@" IDENT phi
          | "down" IDENT "." phi | "exists" IDENT "." phi
          | "forall" IDENT "." phi | "(" phi ")"
    act ::= IDENT | act "+" act | act ";" act | act "*" | "(" act ")"

Derived forms (`|`, `[a]`, `forall`, `false`) are expanded while parsing and
never stored; the printer re-introduces them so that parse(print(s)) == s.
Conjunctions are kept canonical: duplicate-free, sorted by their canonical
text, and never unary. Disjunctions, conjunctions of negations under a
negation, are never unary either: a single disjunct stands for itself.

Terms are immutable and hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): while a term lives, building one with equal
fields returns it, so equal terms are one object and `==` and `hash` are
identity. Each term renders its canonical text once, on its first print.
Gameboard trees (`hdpl.gameboard`) share the intern table, and so `==` is
`is` on trees too.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable

OPS = ("diamond", "at", "store", "exists")
ACTION_CTORS = ("union", "comp", "star")

_KEYWORDS = frozenset({"true", "false", "down", "exists", "forall"})
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


class HdplError(Exception):
    """Base class for errors raised by this package."""


class ParseError(HdplError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UndeclaredSymbolError(HdplError):
    def __init__(self, symbol: str, pos: int | None = None):
        where = f" (at position {pos})" if pos is not None else ""
        super().__init__(f"undeclared symbol '{symbol}'{where}")
        self.symbol = symbol


class FragmentViolationError(HdplError):
    def __init__(self, ctor: str, pos: int | None = None):
        where = f" (at position {pos})" if pos is not None else ""
        super().__init__(f"constructor '{ctor}' is not enabled in this fragment{where}")
        self.ctor = ctor


class SignatureError(HdplError):
    pass


# ---------------------------------------------------------------------------
# Signatures and fragments


@dataclass(frozen=True)
class Signature:
    """Finite vocabulary: nominals, binary relation names, propositional
    symbols, plus the ordered list of variables added by extensions. Every
    name is an identifier and no keyword, so that a formula can refer to it."""

    nominals: tuple[str, ...] = ()
    relations: tuple[str, ...] = ()
    props: tuple[str, ...] = ()
    bound_vars: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nominals", tuple(self.nominals))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "props", tuple(self.props))
        object.__setattr__(self, "bound_vars", tuple(self.bound_vars))
        pools = self.nominals + self.relations + self.props + self.bound_vars
        if len(set(pools)) != len(pools):
            raise SignatureError(f"signature name pools are not disjoint: {pools}")
        bad = [x for x in pools if x in _KEYWORDS or not _IDENT_RE.fullmatch(x)]
        if bad:
            raise SignatureError(f"signature names that no formula can refer to: {bad}")

    def all_names(self) -> frozenset[str]:
        return frozenset(self.nominals + self.relations + self.props + self.bound_vars)

    def point_names(self) -> tuple[str, ...]:
        """Names usable as state designators: nominals plus bound variables."""
        return self.nominals + self.bound_vars

    @cached_property
    def _extension(self) -> tuple["Signature", str]:
        # the names to avoid, inherited: an extension leaves out its own x{n}
        # when n was its first try, as the searches below it start past n
        taken = self.__dict__.get("_taken") or self.all_names()
        n = first = len(self.bound_vars)
        while f"x{n}" in taken:
            n += 1
        var = f"x{n}"
        if n > first:
            taken = taken | {var}
        ext = object.__new__(Signature)  # var is fresh: no disjointness check
        # the fields alone: what `self` caches does not hold for `ext`
        ext.__dict__.update(nominals=self.nominals, relations=self.relations, props=self.props,
                            bound_vars=self.bound_vars + (var,), _taken=taken)
        return ext, var

    @cached_property
    def _basics(self) -> tuple["Sentence", ...]:
        return tuple(Nom(n) for n in self.point_names()) + tuple(Prop(p) for p in self.props)

    @classmethod
    def from_dict(cls, d: dict) -> "Signature":
        if not isinstance(d, dict):
            raise SignatureError(f"a signature must be an object, not {type(d).__name__}")
        pools = {}
        for key in ("nominals", "relations", "props", "bound_vars"):
            names = d.get(key, ())
            if not isinstance(names, (list, tuple)) or not all(isinstance(x, str) for x in names):
                raise SignatureError(f"signature field '{key}' must be a list of names")
            pools[key] = tuple(names)
        return cls(**pools)

    def to_dict(self) -> dict:
        return {
            "nominals": list(self.nominals),
            "relations": list(self.relations),
            "props": list(self.props),
            "bound_vars": list(self.bound_vars),
        }


def extend_signature(sig: Signature) -> tuple[Signature, str]:
    """Extend `sig` with a fresh variable, named x0, x1, ... by extension
    depth (skipping ahead if a declared symbol already uses the name). The
    result is computed once per signature object and then returned again."""
    return sig._extension


def extend_signature_with(sig: Signature, var: str) -> Signature:
    """Extend `sig` with an explicitly named fresh variable."""
    if var in sig.all_names():
        raise SignatureError(f"variable name '{var}' collides with a declared symbol")
    return Signature(sig.nominals, sig.relations, sig.props, sig.bound_vars + (var,))


@dataclass(frozen=True)
class FragmentConfig:
    """Which sentence operators and action constructors the language keeps.

    The Boolean core (atoms, negation, conjunction) is always present.
    """

    ops: frozenset[str] = frozenset(OPS)
    action_ctors: frozenset[str] = frozenset(ACTION_CTORS)

    def __post_init__(self):
        object.__setattr__(self, "ops", frozenset(self.ops))
        object.__setattr__(self, "action_ctors", frozenset(self.action_ctors))
        bad = self.ops - set(OPS)
        if bad:
            raise SignatureError(f"unknown sentence operators: {sorted(bad)}")
        bad = self.action_ctors - set(ACTION_CTORS)
        if bad:
            raise SignatureError(f"unknown action constructors: {sorted(bad)}")
        if self.action_ctors and "diamond" not in self.ops:
            raise SignatureError("action constructors require the diamond operator")

    @classmethod
    def full(cls) -> "FragmentConfig":
        return cls()

    @classmethod
    def parse(cls, text: str) -> "FragmentConfig":
        """Parse a comma list over diamond,at,store,exists,union,comp,star."""
        ops, ctors = set(), set()
        for item in filter(None, (p.strip() for p in text.split(","))):
            if item in OPS:
                ops.add(item)
            elif item in ACTION_CTORS:
                ctors.add(item)
            else:
                raise SignatureError(f"unknown fragment flag '{item}'")
        return cls(frozenset(ops), frozenset(ctors))

    def describe(self) -> str:
        parts = [op for op in OPS if op in self.ops]
        parts += [c for c in ACTION_CTORS if c in self.action_ctors]
        return ",".join(parts) if parts else "(boolean core)"


# ---------------------------------------------------------------------------
# Terms. The intern table maps (class, fields), a field that is a term by its
# id, to a weak reference, so it keeps no term alive; a dead term's entry is
# dropped by the callback. A live entry's ids are its live term's children's.
# A gameboard tree's key holds its children tuple, whose subtrees hash by id:
# the node holds that tuple anyway, so the entry keeps nothing alive longer.

_TABLE: dict[tuple, "_Ref"] = {}
_new, _set = object.__new__, object.__setattr__


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _drop(ref: _Ref):
    _remove_dead_weakref(_TABLE, ref.key)  # only if no live term took the key


def _make(cls, key: tuple, *values):
    """A new `cls` term with these field values, entered under `key`; or the
    live term another thread entered there first. Each table step is atomic."""
    t = _new(cls)
    for name, value in zip(cls.__slots__, values):
        _set(t, name, value)
    _set(t, "_txt", None)
    ref = _Ref(t, _drop)
    ref.key = key
    while (got := _TABLE.setdefault(key, ref)) is not ref:
        if (other := got()) is not None:
            return other
        _remove_dead_weakref(_TABLE, key)
    return t


class _Term:
    """An immutable, hash-consed term. The first print caches its canonical
    text in `_txt` and the precedence of that text's outer form in `_prec`."""

    __slots__ = ("__weakref__", "_txt", "_prec")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete '{name}': terms are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        return type(self).__name__ + "(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"


class _Named(_Term):
    __slots__ = ()

    def __new__(cls, name: str):
        key = (cls, name)
        return (ref := _TABLE.get(key)) and ref() or _make(cls, key, name)


class _Unary(_Term):
    __slots__ = ()

    def __new__(cls, body):
        key = (cls, id(body))
        return (ref := _TABLE.get(key)) and ref() or _make(cls, key, body)


class _Pair(_Term):
    __slots__ = ()

    def __new__(cls, first, second):
        key = (cls, id(first), id(second))
        return (ref := _TABLE.get(key)) and ref() or _make(cls, key, first, second)


class _Tagged(_Term):
    __slots__ = ()

    def __new__(cls, tag: str, body: "Sentence"):
        key = (cls, tag, id(body))
        return (ref := _TABLE.get(key)) and ref() or _make(cls, key, tag, body)


class Rel(_Named):
    __slots__ = ("name",)


class Union(_Pair):
    __slots__ = ("left", "right")


class Comp(_Pair):
    __slots__ = ("left", "right")


class Star(_Unary):
    __slots__ = ("body",)


Action = Rel | Union | Comp | Star

# the fragment flag of each compound action constructor
ACTION_CTOR = {Union: "union", Comp: "comp", Star: "star"}


def walk_action(a: Action, path: str = ""):
    """Yield (path, node) for every node of `a` in pre-order, left before
    right, without recursion; a child's path is its parent's plus /l, /r or
    /b."""
    stack = []
    while True:
        yield path, a
        if not isinstance(a, Rel):
            if isinstance(a, Star):
                stack.append((path + "/b", a.body))
            elif isinstance(a, (Union, Comp)):
                stack += ((path + "/r", a.right), (path + "/l", a.left))
            else:
                raise TypeError(f"not an action: {a!r}")
        if not stack:
            return
        path, a = stack.pop()


class Prop(_Named):
    __slots__ = ("name",)


class Nom(_Named):
    """A nominal or bound variable, true exactly at the state it names."""

    __slots__ = ("name",)


class And(_Term):
    __slots__ = ("items",)

    def __new__(cls, items: Iterable["Sentence"]):
        items = tuple(items)
        key = (cls, *map(id, items))
        return (ref := _TABLE.get(key)) and ref() or _make(cls, key, items)


class Neg(_Unary):
    __slots__ = ("body",)


class Dia(_Pair):
    __slots__ = ("action", "body")


class At(_Tagged):
    __slots__ = ("name", "body")


class Store(_Tagged):
    __slots__ = ("var", "body")


class Exists(_Tagged):
    __slots__ = ("var", "body")


Sentence = Prop | Nom | And | Neg | Dia | At | Store | Exists

TRUE = And(())
FALSE = Neg(TRUE)


def conj(items: Iterable[Sentence]) -> Sentence:
    """Canonical conjunction: deduplicated, sorted by the canonical text,
    singleton-collapsed."""
    items = tuple(items)
    if len(items) > 1:
        items = sorted(dict.fromkeys(items), key=print_sentence)
    return items[0] if len(items) == 1 else And(items)


def disj(items: Iterable[Sentence]) -> Sentence:
    """Canonical disjunction ~(~a & ~b & ...); one disjunct stands alone."""
    negated = conj([Neg(s) for s in items])
    return negated.body if isinstance(negated, Neg) else Neg(negated)


def box(action: Action, body: Sentence) -> Sentence:
    return Neg(Dia(action, Neg(body)))


def forall(var: str, body: Sentence) -> Sentence:
    return Neg(Exists(var, Neg(body)))


def basic_sentences(sig: Signature) -> tuple[Sentence, ...]:
    """The basic sentences of a signature, in canonical order: nominal and
    variable equations first, then propositional symbols; built once per
    signature object."""
    return sig._basics


# ---------------------------------------------------------------------------
# Printing: each distinct term renders its text once and caches it; a context
# that binds tighter than the text's outer form adds the parentheses. In
# actions `+` binds like `|`, `;` like `&` and `*` like a prefix.

_P_OR, _P_AND, _P_PREFIX, _P_ATOM = 0, 1, 2, 3


def print_action(a: Action) -> str:
    return a._txt or _print(a, _P_OR)


def print_sentence(s: Sentence) -> str:
    return s._txt or _print(s, _P_OR)


def _print(t: Action | Sentence, need: int) -> str:
    text = t._txt
    if text is None:
        prec = _P_PREFIX
        if isinstance(t, (Prop, Nom, Rel)):
            text, prec = t.name, _P_ATOM
        elif isinstance(t, And):
            if len(t.items) == 1:
                text, prec = _print(t.items[0], _P_OR), t.items[0]._prec
            elif t.items:
                text, prec = " & ".join(_print(i, _P_PREFIX) for i in t.items), _P_AND
            else:
                text, prec = "true", _P_ATOM
        elif isinstance(t, Neg):
            b = t.body
            if b is TRUE:
                text, prec = "false", _P_ATOM
            elif isinstance(b, And) and len(b.items) >= 2 and all(isinstance(i, Neg) for i in b.items):
                # disjunction sugar: ~(~a & ~b & ...)
                text, prec = " | ".join(_print(i.body, _P_AND) for i in b.items), _P_OR
            elif isinstance(b, Dia) and isinstance(b.body, Neg):
                text = f"[{print_action(b.action)}]" + _print(b.body.body, _P_PREFIX)
            elif isinstance(b, Exists) and isinstance(b.body, Neg):
                text = f"forall {b.var} . " + _print(b.body.body, _P_PREFIX)
            else:
                text = "~" + _print(b, _P_PREFIX)
        elif isinstance(t, Dia):
            text = f"<{print_action(t.action)}>" + _print(t.body, _P_PREFIX)
        elif isinstance(t, At):
            text = f"@{t.name} " + _print(t.body, _P_PREFIX)
        elif isinstance(t, Store):
            text = f"down {t.var} . " + _print(t.body, _P_PREFIX)
        elif isinstance(t, Exists):
            text = f"exists {t.var} . " + _print(t.body, _P_PREFIX)
        elif isinstance(t, Star):
            text = _print(t.body, _P_PREFIX) + "*"
        elif isinstance(t, Comp):
            text, prec = _print(t.left, _P_AND) + ";" + _print(t.right, _P_PREFIX), _P_AND
        elif isinstance(t, Union):
            text, prec = _print(t.left, _P_OR) + "+" + _print(t.right, _P_AND), _P_OR
        else:
            raise TypeError(f"not a term: {t!r}")
        _set(t, "_prec", prec)  # before `_txt`, which tells other threads both are set
        _set(t, "_txt", text)
    else:
        prec = t._prec
    return f"({text})" if need > prec else text


# ---------------------------------------------------------------------------
# Tokenizer (shared by the sentence, action and gameboard-tree parsers)

# group 1 is a token, and empty on a character no token starts with
_TOKEN_RE = re.compile(rf"({_IDENT_RE.pattern}|[()<>\[\]~&|@.;+*])|\S")


class _TokenStream:
    """The tokens of `text`, from one `findall`, then None. A token's
    character offset is worked out only for an error; parsers mark a place
    by its index `i`."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        if "" in self.tokens:  # a bad character anywhere wins over a syntax error
            m = self._match(self.tokens.index(""))
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        self.tokens.append(None)
        self.i = 0

    def _match(self, i: int) -> re.Match:
        return next(islice(_TOKEN_RE.finditer(self.text), i, None))

    def offset(self, i: int) -> int:
        return self._match(i).start() if i < len(self.tokens) - 1 else len(self.text)

    def peek(self) -> str | None:
        return self.tokens[self.i]

    def fail(self, message: str, i: int | None = None):
        raise ParseError(message, self.offset(self.i if i is None else i))

    def expect(self, tok: str):
        if self.peek() != tok:
            self.fail(f"expected {tok!r}, found {self.peek()!r}")
        self.i += 1

    def ident(self, what: str = "identifier") -> str:
        got = self.peek()
        if got is None or not _IDENT_RE.fullmatch(got):
            self.fail(f"expected {what}, found {got!r}")
        self.i += 1
        return got


# ---------------------------------------------------------------------------
# Parsing


def parse_action(text: str, sig: Signature, frag: FragmentConfig | None = None) -> Action:
    ts = _TokenStream(text)
    a = _parse_act_union(ts, sig, frag or FragmentConfig.full())
    if ts.peek() is not None:
        ts.fail(f"trailing input {ts.peek()!r}")
    return a


def _parse_act_union(ts, sig, frag) -> Action:
    a = _parse_act_comp(ts, sig, frag)
    while ts.peek() == "+":
        if "union" not in frag.action_ctors:
            raise FragmentViolationError("union", ts.offset(ts.i))
        ts.i += 1
        a = Union(a, _parse_act_comp(ts, sig, frag))
    return a


def _parse_act_comp(ts, sig, frag) -> Action:
    a = _parse_act_star(ts, sig, frag)
    while ts.peek() == ";":
        if "comp" not in frag.action_ctors:
            raise FragmentViolationError("comp", ts.offset(ts.i))
        ts.i += 1
        a = Comp(a, _parse_act_star(ts, sig, frag))
    return a


def _parse_act_star(ts, sig, frag) -> Action:
    a = _parse_act_atom(ts, sig, frag)
    while ts.peek() == "*":
        if "star" not in frag.action_ctors:
            raise FragmentViolationError("star", ts.offset(ts.i))
        ts.i += 1
        a = Star(a)
    return a


def _parse_act_atom(ts, sig, frag) -> Action:
    if ts.peek() == "(":
        ts.i += 1
        a = _parse_act_union(ts, sig, frag)
        ts.expect(")")
        return a
    i = ts.i
    name = ts.ident("relation name")
    if name not in sig.relations:
        raise UndeclaredSymbolError(name, ts.offset(i))
    return Rel(name)


def parse_sentence(text: str, sig: Signature, frag: FragmentConfig | None = None) -> Sentence:
    """Parse the surface syntax into a term, checking symbol declarations and
    fragment gating as the text is consumed."""
    frag = frag or FragmentConfig.full()
    ts = _TokenStream(text)
    s = _parse_or(ts, sig, frag)
    if ts.peek() is not None:
        ts.fail(f"trailing input {ts.peek()!r}")
    return s


def _parse_or(ts, sig, frag) -> Sentence:
    items = [_parse_and(ts, sig, frag)]
    while ts.peek() == "|":
        ts.i += 1
        items.append(_parse_and(ts, sig, frag))
    return items[0] if len(items) == 1 else disj(items)


def _parse_and(ts, sig, frag) -> Sentence:
    items = [_parse_prefix(ts, sig, frag)]
    while ts.peek() == "&":
        ts.i += 1
        items.append(_parse_prefix(ts, sig, frag))
    return items[0] if len(items) == 1 else conj(items)


def _parse_binder_var(ts, sig) -> str:
    i = ts.i
    var = ts.ident("variable name")
    if var in _KEYWORDS:
        ts.fail(f"keyword {var!r} cannot name a variable", i)
    if var in sig.all_names():
        ts.fail(f"variable {var!r} collides with a symbol in scope", i)
    ts.expect(".")
    return var


# each binder keyword: the operator it needs, and what it builds
_BINDERS = {"down": ("store", Store), "exists": ("exists", Exists), "forall": ("exists", forall)}


def _parse_prefix(ts, sig, frag) -> Sentence:
    tok = ts.peek()
    i = ts.i
    if tok is None:
        ts.fail("unexpected end of input")
    if tok == "(":
        ts.i += 1
        s = _parse_or(ts, sig, frag)
        ts.expect(")")
        return s
    if tok == "~":
        ts.i += 1
        return Neg(_parse_prefix(ts, sig, frag))
    if tok == "<" or tok == "[":
        ts.i += 1
        if "diamond" not in frag.ops:
            raise FragmentViolationError("diamond", ts.offset(i))
        a = _parse_act_union(ts, sig, frag)
        ts.expect(">" if tok == "<" else "]")
        return (Dia if tok == "<" else box)(a, _parse_prefix(ts, sig, frag))
    if tok == "@":
        ts.i += 1
        if "at" not in frag.ops:
            raise FragmentViolationError("at", ts.offset(i))
        name = ts.ident("nominal or variable")
        if name not in sig.point_names():
            raise UndeclaredSymbolError(name, ts.offset(ts.i - 1))
        return At(name, _parse_prefix(ts, sig, frag))
    if tok in _BINDERS:
        op, make = _BINDERS[tok]
        ts.i += 1
        if op not in frag.ops:
            raise FragmentViolationError(op, ts.offset(i))
        var = _parse_binder_var(ts, sig)
        return make(var, _parse_prefix(ts, extend_signature_with(sig, var), frag))
    if tok == "true":
        ts.i += 1
        return TRUE
    if tok == "false":
        ts.i += 1
        return FALSE
    if _IDENT_RE.fullmatch(tok):
        ts.i += 1
        if tok in sig.props:
            return Prop(tok)
        if tok in sig.point_names():
            return Nom(tok)
        raise UndeclaredSymbolError(tok, ts.offset(i))
    ts.fail(f"unexpected token {tok!r}", i)


# ---------------------------------------------------------------------------
# Well-formedness and fragment validation


def check_action(a: Action, sig: Signature):
    for _, node in walk_action(a):
        if isinstance(node, Rel) and node.name not in sig.relations:
            raise UndeclaredSymbolError(node.name)


_COMPOUND = (And, Neg, Dia, At, Store, Exists)  # terms are never subclassed: type tests are exact


def check_sentence(s: Sentence, sig: Signature, checked: dict):
    """Raise if `s` is not well-formed over `sig` (undeclared symbols or
    colliding binder names). `checked` maps each set of point names in scope
    to the compound subterms that passed there, and the signature's own set
    also holds the actions that passed; none is walked again, and a node that
    raises is recorded with none of its ancestors. Calls over one signature
    may share one dict, as `satisfies` does per model."""
    top = frozenset(sig.point_names())
    actions = checked.setdefault(top, set())

    def check(s: Sentence, points: frozenset[str], seen: set):
        tp = type(s)
        if tp is Prop:
            if s.name not in sig.props:
                raise UndeclaredSymbolError(s.name)
        elif tp is Nom:
            if s.name not in points:
                raise UndeclaredSymbolError(s.name)
        elif tp not in _COMPOUND:
            raise TypeError(f"not a sentence: {s!r}")
        elif s not in seen:
            if tp is And:
                for i in s.items:
                    check(i, points, seen)
            elif tp is Neg:
                check(s.body, points, seen)
            elif tp is Dia:
                if s.action not in actions:
                    check_action(s.action, sig)
                    actions.add(s.action)
                check(s.body, points, seen)
            elif tp is At:
                if s.name not in points:
                    raise UndeclaredSymbolError(s.name)
                check(s.body, points, seen)
            else:
                if s.var in points or s.var in sig.props or s.var in sig.relations:
                    raise SignatureError(f"variable name '{s.var}' collides with a declared symbol")
                check(s.body, inner := points | {s.var}, checked.setdefault(inner, set()))
            seen.add(s)

    check(s, top, actions)


@dataclass(frozen=True)
class FragmentReport:
    ok: bool
    violations: tuple[tuple[str, str], ...]  # (path, constructor)

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(f"{ctor} at {path}" for path, ctor in self.violations)


# the fragment operator of each prefix sentence constructor, and its path step
_OP_STEP = {Dia: ("diamond", "/<>"), At: ("at", "/@"), Store: ("store", "/down"), Exists: ("exists", "/exists")}


def validate_in_fragment(s: Sentence, frag: FragmentConfig) -> FragmentReport:
    """Report every constructor of `s` that the fragment does not enable."""
    out: list[tuple[str, str]] = []

    def walk(t: Sentence, path: str):
        if isinstance(t, And):
            for i, item in enumerate(t.items):
                walk(item, f"{path}/{i}")
        elif isinstance(t, Neg):
            walk(t.body, path + "/~")
        elif isinstance(t, (Dia, At, Store, Exists)):
            op, step = _OP_STEP[type(t)]
            if op not in frag.ops:
                out.append((path, op))
            if isinstance(t, Dia):
                for apath, a in walk_action(t.action, path + "/act"):
                    ctor = ACTION_CTOR.get(type(a))
                    if ctor is not None and ctor not in frag.action_ctors:
                        out.append((apath, ctor))
            walk(t.body, path + step)

    walk(s, "root")
    return FragmentReport(not out, tuple(out))
