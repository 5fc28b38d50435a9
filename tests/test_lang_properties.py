"""Property-based tests over the Mini-C front end.

Hypothesis generates random but well-formed programs exercising the
widened subset (function-pointer dispatch, multi-dimensional arrays) and
checks the whole front end holds two invariants:

* any generated program compiles and runs without crashing, and the
  optimised and unoptimised builds agree on its observable behaviour;
* the lexer reports token positions that point at the token's own text,
  so every downstream diagnostic location is trustworthy;
* the list scheduler packs every block of a generated program, single
  and enlarged, into a legal greedy-complete schedule on every issue
  model.
"""

from hypothesis import given, settings, strategies as st

from repro.interp import run_program
from repro.lang import compile_source
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenType
from repro.machine.config import ISSUE_MODELS, MEMORY_CONFIGS
from repro.machine.simulator import prepare_workload
from repro.sched import check_schedule, schedule_program

# ----------------------------------------------------------------------
# Random well-formed programs
# ----------------------------------------------------------------------
_BIN_OPS = ["+", "-", "*", "&", "|", "^"]

_PRELUDE = """
int grid[3][3] = {{1, 2, 3}, {4, 5}, {6}};
int add(int x, int y) { return x + y; }
int sub(int x, int y) { return x - y; }
int xo(int x, int y) { return x ^ y; }
int (*ops[3])(int, int) = {add, sub, xo};
"""


@st.composite
def _expr(draw, depth=0):
    """An expression over locals a/b/c, literals and the global matrix."""
    if depth >= 2 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["a", "b", "c", "lit", "grid"]))
        if leaf == "lit":
            return str(draw(st.integers(min_value=-99, max_value=99)))
        if leaf == "grid":
            row = draw(st.integers(min_value=0, max_value=2))
            col = draw(st.integers(min_value=0, max_value=2))
            return f"grid[{row}][{col}]"
        return leaf
    op = draw(st.sampled_from(_BIN_OPS))
    left = draw(_expr(depth=depth + 1))
    right = draw(_expr(depth=depth + 1))
    return f"({left} {op} {right})"


@st.composite
def _stmt(draw, depth=0):
    """A statement; loops are bounded and use a per-depth counter."""
    kinds = ["assign", "store", "dispatch", "if"]
    if depth < 2:
        kinds.append("loop")
    kind = draw(st.sampled_from(kinds))
    if kind == "assign":
        name = draw(st.sampled_from(["a", "b", "c"]))
        return f"{name} = {draw(_expr())};"
    if kind == "store":
        row = draw(st.integers(min_value=0, max_value=2))
        col = draw(st.integers(min_value=0, max_value=2))
        return f"grid[{row}][{col}] = {draw(_expr())};"
    if kind == "dispatch":
        index = draw(st.integers(min_value=0, max_value=2))
        return f"c = ops[{index}]({draw(_expr())}, {draw(_expr())});"
    if kind == "if":
        body = draw(_stmt(depth=depth + 1))
        return f"if ({draw(_expr())}) {{ {body} }}"
    bound = draw(st.integers(min_value=1, max_value=4))
    body = draw(_stmt(depth=depth + 1))
    return (f"for (k{depth} = 0; k{depth} < {bound}; k{depth}++)"
            f" {{ {body} }}")


@st.composite
def mini_c_program(draw):
    inits = [draw(st.integers(min_value=-50, max_value=50)) for _ in range(3)]
    statements = draw(st.lists(_stmt(), min_size=1, max_size=5))
    body = "\n    ".join(statements)
    return (
        _PRELUDE
        + "int main() {\n"
        + f"    int a = {inits[0]};\n"
        + f"    int b = {inits[1]};\n"
        + f"    int c = {inits[2]};\n"
        + "    int k0;\n    int k1;\n"
        + f"    {body}\n"
        + "    return (a ^ b ^ c ^ grid[1][1]) & 127;\n"
        + "}\n"
    )


@settings(max_examples=40, deadline=None)
@given(mini_c_program())
def test_generated_programs_compile_and_run(source):
    optimized = run_program(compile_source(source, optimize=True),
                            inputs={0: b""})
    plain = run_program(compile_source(source, optimize=False),
                        inputs={0: b""})
    assert 0 <= optimized.exit_code <= 127
    assert optimized.exit_code == plain.exit_code
    assert optimized.output == plain.output


@settings(max_examples=25, deadline=None)
@given(mini_c_program(), st.sampled_from(sorted(ISSUE_MODELS)),
       st.sampled_from(["A", "C", "G"]))
def test_generated_programs_schedule_greedily(source, issue_index, letter):
    workload = prepare_workload("generated", compile_source(source),
                                {0: b""}, {0: b""})
    issue, memory = ISSUE_MODELS[issue_index], MEMORY_CONFIGS[letter]
    for program in (workload.single, workload.enlarged):
        schedules = schedule_program(program, issue, memory)
        for block in program:
            check_schedule(block, schedules[block.label], issue, memory)


# ----------------------------------------------------------------------
# Lexer position round-trip
# ----------------------------------------------------------------------
#: Sample lexemes whose source text the token stream must point back at.
_LEXEMES = [
    "int", "char", "while", "sizeof", "struct",
    "name", "x0", "_tmp", "veryLongIdentifier",
    "0", "7", "123", "65535",
    "'a'", "'\\n'", '"hi"', '"a b"', '""',
    "+", "-", "*", "/", "%", "++", "--", "<<", ">>", "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "->", "(", ")", "[", "]",
    "{", "}", ";", ",", ".",
]


def _token_text(token, lexeme):
    """What the source must contain at the token's position."""
    if token.type is TokenType.NUMBER:
        return str(token.value)
    if token.type in (TokenType.CHAR, TokenType.STRING):
        return lexeme  # value is decoded; the source text is the literal
    return str(token.value)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_LEXEMES), min_size=1, max_size=30),
    st.lists(st.sampled_from([" ", "  ", "\n", "\t", " \n "]), min_size=30,
             max_size=30),
)
def test_lexer_positions_point_at_token_text(parts, separators):
    source = "".join(
        part + sep for part, sep in zip(parts, separators)
    )
    tokens = tokenize(source)
    assert tokens[-1].type is TokenType.EOF
    assert len(tokens) - 1 == len(parts)
    lines = source.split("\n")
    for token, lexeme in zip(tokens, parts):
        assert token.line >= 1 and token.column >= 1
        line_text = lines[token.line - 1]
        expected = _token_text(token, lexeme)
        found = line_text[token.column - 1:token.column - 1 + len(expected)]
        assert found == expected, (
            f"token {token.type} at {token.line}:{token.column}: "
            f"expected {expected!r}, source has {found!r}"
        )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_LEXEMES), min_size=0, max_size=20))
def test_lexer_positions_strictly_increase(parts):
    source = " ".join(parts)
    tokens = tokenize(source)
    positions = [(token.line, token.column) for token in tokens]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)
