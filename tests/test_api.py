"""The package surface: exported names resolve, every exported function
and class has a docstring of its own, no module or test file carries an
import it never uses (a deleted helper must not leave one behind), no
module-level function or class is dead: each is exported or named
somewhere else in the package, no function defined inside a function is
dead: the enclosing function names it outside the inner definition, no
function of the package takes a parameter its body never reads, and no
slot of a class is filled without being read.

Run as a script, ``python tests/test_api.py [DIR]`` prints the code lines
(non-blank lines outside docstrings and comments) of each module of the
package, or of the ``*.py`` files in DIR, and their total.
"""

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

if __name__ == "__main__":  # the package of this checkout, without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rolemine

PACKAGE = Path(rolemine.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_every_exported_name_resolves():
    assert len(rolemine.__all__) == len(set(rolemine.__all__))
    for name in rolemine.__all__:
        assert hasattr(rolemine, name), name


def _undocumented(sources: list[str], names: set[str]) -> set[str]:
    """The names in `names` that no module-level function or class of the
    sources defines with a docstring of its own."""
    documented = {
        node.name
        for source in sources
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and ast.get_docstring(node) is not None
    }
    return names - documented


def test_every_exported_definition_has_a_docstring():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert _undocumented(sources, set(rolemine.__all__)) == set()


def test_undocumented_definition_is_found():
    # A dataclass gets a generated __doc__, so only the source can tell.
    source = (
        'def told():\n    """Says what it does."""\n\n'
        "def quiet():\n    return 1\n\n"
        "@dataclass\nclass Plain:\n    size: int\n\n"
        'class Told:\n    """A class."""\n\n'
        "    def method(self):\n        return 2\n"
    )
    names = {"told", "quiet", "Plain", "Told", "method", "missing"}
    assert _undocumented([source], names) == {"quiet", "Plain", "method", "missing"}


def _imported_and_used(source: str) -> tuple[set[str], set[str]]:
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    imported, used = _imported_and_used(path.read_text(encoding="utf-8"))
    assert imported - used == set()


def test_unused_import_is_found():
    imported, used = _imported_and_used(
        "from .model import Role, mask_of\nimport os.path\nx = mask_of(())\n"
    )
    assert imported - used == {"Role", "os"}


def _unreferenced_definitions(sources: list[str]) -> set[str]:
    """Module-level functions and classes that no other top-level statement
    of any source names, as a variable, an attribute or an import."""
    defined, named = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            here = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    here.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    here.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    here.add(sub.asname or sub.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
                here.discard(node.name)
            named |= here
    return defined - named


def test_every_definition_is_exported_or_used():
    sources = [p.read_text(encoding="utf-8") for p in SOURCES]
    assert _unreferenced_definitions(sources) - set(rolemine.__all__) == set()


def test_unreferenced_definition_is_found():
    first = "def used():\n    return 1\n\ndef dead():\n    return dead()\n"
    second = "from .first import used\n\nclass Holder:\n    size = used()\n"
    assert _unreferenced_definitions([first, second]) == {"dead", "Holder"}


def _names(tree: ast.AST) -> Counter:
    return Counter(sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name))


def _unreferenced_nested_definitions(source: str) -> set[str]:
    """``outer.inner`` for each function defined inside a function that
    the enclosing function never names outside the inner definition."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, funcs):
            named = _names(node)
            for inner in ast.walk(node):
                if inner is not node and isinstance(inner, funcs):
                    if named[inner.name] == _names(inner)[inner.name]:
                        dead.add(f"{node.name}.{inner.name}")
    return dead


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_nested_definition_is_used(path):
    assert _unreferenced_nested_definitions(path.read_text(encoding="utf-8")) == set()


def test_unreferenced_nested_definition_is_found():
    source = (
        "def outer(xs):\n"
        "    def used(x):\n        return x\n"
        "    def push(x):\n        return push(x)\n"
        "    def wrap():\n"
        "        def lost():\n            return 0\n"
        "        return used\n"
        "    return [used(x) for x in xs], wrap\n\n"
        "class K:\n"
        "    def m(self):\n"
        "        def stale():\n            return 1\n"
        "        return self\n"
    )
    assert _unreferenced_nested_definitions(source) == {
        "outer.push", "outer.lost", "wrap.lost", "m.stale",
    }


def _dead_parameters(source: str) -> set[str]:
    """``function.parameter`` for each parameter, ``self`` and ``cls``
    aside, that the function's body (nested functions included) never
    reads."""
    dead = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            params |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
            read = {
                sub.id
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            dead |= {f"{node.name}.{p}" for p in params - read - {"self", "cls"}}
    return dead


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _dead_parameters(path.read_text(encoding="utf-8")) == set()


def test_dead_parameter_is_found():
    source = (
        "def f(a, b, /, c, *rest, d, **extra):\n    return a + d\n\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        def inner():\n            return x\n"
        "        return inner\n\n"
        "    @classmethod\n"
        "    def make(cls, y):\n        y = 1\n        return cls\n"
    )
    assert _dead_parameters(source) == {"f.b", "f.c", "f.rest", "f.extra", "make.y"}


def _unread_slots(sources: list[str]) -> set[str]:
    """``Class.slot`` for each name in a class's ``__slots__`` that no
    source reads as an attribute; a store alone does not count."""
    slots, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                slots |= {
                    (node.name, name)
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    and [ast.unparse(t) for t in stmt.targets] == ["__slots__"]
                    for name in ast.literal_eval(stmt.value)
                }
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {f"{cls}.{name}" for cls, name in slots if name not in read}


def test_every_slot_is_read():
    sources = [p.read_text(encoding="utf-8") for p in SOURCES]
    assert _unread_slots(sources) == set()


def test_unread_slot_is_found():
    first = (
        "class Index:\n"
        "    __slots__ = ('columns', 'counts', 'freq')\n\n"
        "    def __init__(self):\n"
        "        self.columns = []\n"
        "        self.counts = self.freq = []\n"
    )
    second = "def width(index):\n    return len(index.columns)\n"
    assert _unread_slots([first, second]) == {"Index.counts", "Index.freq"}


def code_lines(source: str) -> int:
    """Non-blank lines outside docstrings and comments: the lines a token
    other than a comment spans, less the module, class and function
    docstrings, counting no blank line inside a multi-line string."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines -= set(range(doc.lineno, doc.end_lineno + 1))
    text = source.splitlines()
    return sum(1 for n in lines if text[n - 1].strip())


def test_code_lines_counts_code_alone():
    source = (
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # a trailing comment\n"  # 1
        "def f(a,\n"  # 2
        "      b):\n"  # 3
        "    '''Docstring.'''\n"
        "    # another comment\n"
        '    s = """text\n'  # 4
        "\n"
        'more"""\n'  # 5
        "    return s\n"  # 6
        "class K:\n"  # 7
        '    """Class\n    docstring."""\n'
        '    label = "not a docstring"\n'  # 8
    )
    assert code_lines(source) == 8


if __name__ == "__main__":
    paths = sorted(Path(sys.argv[1]).glob("*.py")) if sys.argv[1:] else SOURCES
    counts = {p.name: code_lines(p.read_text(encoding="utf-8")) for p in paths}
    for name, count in counts.items():
        print(f"{name:24} {count:5}")
    print(f"{'total':24} {sum(counts.values()):5}")
