"""Recursive-descent parser for the XPath fragment ``X``.

Accepted syntax (a superset of the paper's abstract grammar, matching the
concrete queries the paper writes down):

* absolute or relative paths: ``/sites/site``, ``client/name``,
  ``//broker/name`` (a leading ``/`` is dropped — evaluation is always from
  the document root, so ``/a`` and ``a`` are the same query);
* steps: names, ``*``, ``.``, ``//`` between (or before / after) steps;
* qualifiers ``[...]`` on any step, containing a Boolean combination
  (``and``, ``or``, ``not(...)``, parentheses) of path conditions;
* path conditions: a relative path, optionally finished by

  - ``/text() = "str"`` or ``/text() != "str"``,
  - ``/val() op num`` with op in ``= != < <= > >=``,
  - the sugar ``path = "str"`` (text comparison) and ``path op num``
    (value comparison), as used by the paper's benchmark queries Q3/Q4.
"""

from __future__ import annotations

from repro.xpath.ast import (
    AndQual,
    ChildStep,
    DescendantStep,
    LabelTest,
    NotQual,
    OrQual,
    PathExistsQual,
    PathExpr,
    Qualifier,
    QualifiedStep,
    SelfStep,
    Step,
    TextCompareQual,
    ValCompareQual,
    WildcardTest,
)
from repro.xpath.errors import XPathSyntaxError
from repro.xpath.lexer import Token, TokenKind, tokenize

__all__ = ["MAX_QUERY_DEPTH", "parse_xpath"]

_KEYWORDS = {"and", "or", "not"}

#: How deep a query's qualifiers may nest.  A ``[``, a ``(`` and a ``not(``
#: each open a level, and each ``and`` / ``or`` adds one to its group (a
#: chain nests left-deep), so parsing, normalizing, compiling and evaluating
#: the query stay far inside Python's recursion limit.
MAX_QUERY_DEPTH = 64


class _Parser:
    def __init__(self, query: str):
        self.query = query
        self.tokens = tokenize(query)
        self.index = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != TokenKind.EOF:
            self.index += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise XPathSyntaxError(
                f"expected {kind} but found {token.kind} ({token.value!r})",
                token.position,
                self.query,
            )
        return self.advance()

    def error(self, message: str) -> XPathSyntaxError:
        token = self.peek()
        return XPathSyntaxError(message, token.position, self.query)

    # -- grammar -----------------------------------------------------------

    def check_depth(self) -> None:
        """Refuse a query nesting deeper than :data:`MAX_QUERY_DEPTH`, in one
        scan of the tokens before any recursive descent.

        Per open group: its ``and`` / ``or`` count and the deepest group it
        closed; ``depth`` is the sum over open groups of one plus their
        operator count, plus the innermost group's deepest closed group.
        """
        groups = [[0, 0]]
        depth = 1
        for token in self.tokens:
            if token.kind in (TokenKind.LBRACKET, TokenKind.LPAREN):
                groups.append([0, 0])
                depth += 1
            elif token.kind in (TokenKind.RBRACKET, TokenKind.RPAREN) and len(groups) > 1:
                operators, deepest = groups.pop()
                depth -= 1 + operators
                groups[-1][1] = max(groups[-1][1], 1 + operators + deepest)
            elif token.kind == TokenKind.NAME and token.value in ("and", "or"):
                groups[-1][0] += 1
                depth += 1
            if depth + groups[-1][1] > MAX_QUERY_DEPTH:
                raise XPathSyntaxError(
                    f"query nests deeper than {MAX_QUERY_DEPTH} levels of qualifiers,"
                    f" parentheses and and/or operands",
                    token.position,
                    self.query,
                )

    def parse(self) -> PathExpr:
        self.check_depth()
        path = self.parse_path(top_level=True)
        token = self.peek()
        if token.kind != TokenKind.EOF:
            raise self.error(f"unexpected trailing input {token.value!r}")
        return path

    def parse_path(self, top_level: bool = False) -> PathExpr:
        """Parse a (possibly absolute) path expression."""
        steps: list[Step] = []
        absolute = False
        token = self.peek()
        if token.kind == TokenKind.SLASH:
            # Leading '/': absolute path, evaluated from the document node.
            self.advance()
            absolute = True
        elif token.kind == TokenKind.DSLASH:
            self.advance()
            absolute = True
            steps.append(DescendantStep())

        self.parse_step(steps)
        while True:
            token = self.peek()
            if token.kind == TokenKind.SLASH:
                self.advance()
                self.parse_step(steps)
            elif token.kind == TokenKind.DSLASH:
                self.advance()
                steps.append(DescendantStep())
                if self._starts_step(self.peek()):
                    self.parse_step(steps)
                else:
                    break
            else:
                break
        return PathExpr(tuple(steps), absolute=absolute)

    @staticmethod
    def _starts_step(token: Token) -> bool:
        return token.kind in (TokenKind.NAME, TokenKind.STAR, TokenKind.DOT)

    def parse_step(self, steps: list[Step]) -> None:
        """Parse one step (name, ``*`` or ``.``) plus its qualifiers."""
        token = self.peek()
        if token.kind == TokenKind.NAME:
            if token.value in _KEYWORDS:
                raise self.error(f"{token.value!r} cannot be used as an element name here")
            self.advance()
            steps.append(ChildStep(LabelTest(token.value)))
        elif token.kind == TokenKind.STAR:
            self.advance()
            steps.append(ChildStep(WildcardTest()))
        elif token.kind == TokenKind.DOT:
            self.advance()
            steps.append(SelfStep())
        else:
            raise self.error("expected an element name, '*' or '.'")
        while self.peek().kind == TokenKind.LBRACKET:
            self.advance()
            qualifier = self.parse_or()
            self.expect(TokenKind.RBRACKET)
            steps.append(QualifiedStep(qualifier))

    # -- qualifier grammar ---------------------------------------------------

    def parse_or(self) -> Qualifier:
        left = self.parse_and()
        while self.peek().kind == TokenKind.NAME and self.peek().value == "or":
            self.advance()
            right = self.parse_and()
            left = OrQual(left, right)
        return left

    def parse_and(self) -> Qualifier:
        left = self.parse_unary()
        while self.peek().kind == TokenKind.NAME and self.peek().value == "and":
            self.advance()
            right = self.parse_unary()
            left = AndQual(left, right)
        return left

    def parse_unary(self) -> Qualifier:
        token = self.peek()
        if token.kind == TokenKind.NAME and token.value == "not":
            self.advance()
            self.expect(TokenKind.LPAREN)
            inner = self.parse_or()
            self.expect(TokenKind.RPAREN)
            return NotQual(inner)
        if token.kind == TokenKind.LPAREN:
            self.advance()
            inner = self.parse_or()
            self.expect(TokenKind.RPAREN)
            return inner
        return self.parse_condition()

    def parse_condition(self) -> Qualifier:
        """A relative path optionally followed by a comparison."""
        steps: list[Step] = []
        token = self.peek()
        if token.kind == TokenKind.SLASH:
            # The paper writes "/address/country" inside a qualifier; treat a
            # leading '/' as relative to the qualifier's context node.
            self.advance()
        elif token.kind == TokenKind.DSLASH:
            self.advance()
            steps.append(DescendantStep())

        terminal = self._parse_condition_steps(steps)
        path = PathExpr(tuple(steps))
        if terminal is not None:
            return terminal(path)

        token = self.peek()
        if token.kind == TokenKind.OP:
            op = self.advance().value
            value_token = self.peek()
            if value_token.kind == TokenKind.STRING:
                self.advance()
                if op not in ("=", "!="):
                    raise self.error("string comparison supports only '=' and '!='")
                qual: Qualifier = TextCompareQual(path, value_token.value)
                if op == "!=":
                    qual = NotQual(qual)
                return qual
            if value_token.kind == TokenKind.NUMBER:
                self.advance()
                return ValCompareQual(path, op, float(value_token.value))
            raise self.error("expected a string or number after comparison operator")
        if path.is_empty():
            raise self.error("expected a path condition")
        return PathExistsQual(path)

    def _parse_condition_steps(self, steps: list[Step]):
        """Parse the steps of a qualifier path.

        Returns ``None`` when the path ends normally, or a callable building
        the terminal comparison qualifier when the path ends in ``text()`` or
        ``val()``.
        """
        expect_step = True
        while True:
            token = self.peek()
            if expect_step:
                if token.kind == TokenKind.NAME and token.value not in _KEYWORDS:
                    if self.peek(1).kind == TokenKind.LPAREN and token.value in ("text", "val"):
                        return self._parse_terminal_function(token.value)
                    self.advance()
                    steps.append(ChildStep(LabelTest(token.value)))
                elif token.kind == TokenKind.STAR:
                    self.advance()
                    steps.append(ChildStep(WildcardTest()))
                elif token.kind == TokenKind.DOT:
                    self.advance()
                    steps.append(SelfStep())
                else:
                    # An empty step is only valid right after '//' (e.g. the
                    # condition "//annotation" parsed the '//' before calling
                    # us) or when the condition is a bare comparison on self.
                    return None
                expect_step = False
                # step-level qualifiers inside qualifier paths (nested)
                while self.peek().kind == TokenKind.LBRACKET:
                    self.advance()
                    nested = self.parse_or()
                    self.expect(TokenKind.RBRACKET)
                    steps.append(QualifiedStep(nested))
                continue
            if token.kind == TokenKind.SLASH:
                self.advance()
                expect_step = True
                continue
            if token.kind == TokenKind.DSLASH:
                self.advance()
                steps.append(DescendantStep())
                expect_step = True
                continue
            return None

    def _parse_terminal_function(self, name: str):
        """Parse ``text()`` / ``val()`` and the comparison that must follow."""
        self.advance()  # function name
        self.expect(TokenKind.LPAREN)
        self.expect(TokenKind.RPAREN)
        op_token = self.expect(TokenKind.OP)
        op = op_token.value
        value_token = self.peek()
        if name == "text":
            if value_token.kind != TokenKind.STRING:
                raise self.error("text() must be compared to a string literal")
            if op not in ("=", "!="):
                raise self.error("text() supports only '=' and '!='")
            self.advance()

            def build_text(path: PathExpr) -> Qualifier:
                qual: Qualifier = TextCompareQual(path, value_token.value)
                return NotQual(qual) if op == "!=" else qual

            return build_text
        if value_token.kind != TokenKind.NUMBER:
            raise self.error("val() must be compared to a numeric literal")
        self.advance()

        def build_val(path: PathExpr) -> Qualifier:
            return ValCompareQual(path, op, float(value_token.value))

        return build_val


def parse_xpath(query: str) -> PathExpr:
    """Parse a query string of the fragment ``X`` into a :class:`PathExpr`."""
    if not query or not query.strip():
        raise XPathSyntaxError("empty query", 0, query)
    return _Parser(query).parse()
