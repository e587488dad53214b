#!/usr/bin/env python3
"""Dead public surface: the reference count.

Prints every `pub fn` under `crates/*/src` that no other file (workspace,
`tests/`, `examples/`, `fleetbench/src`) and no non-test line of its own
file mentions, comments and `use` / `pub use` lines not counting.

A method (a `self` receiver) counts as used only where it is called
(`.name(`, `.name::<`) or named by path (`::name`), so a field, an
interned key or a string literal of the same name does not hide it; one
that shares its name with a live method still hides. A free function is
matched by bare name. What it prints is certain. An associated function
(no receiver, inside `impl Type`) is matched by its path: `Type::name`
anywhere, plus `Self::name` inside the type's own impls in its file, so
a dead `Type::new` no longer hides behind every live `new`. Files a `lib.rs` declares under `#[cfg(test)]`
are test code (the compiler's dead-code lint covers them) and are not
inventoried; they still count as callers.

    scripts/dead_surface.py                                   # the inventory
    scripts/dead_surface.py --check scripts/dead_surface.allow  # the ratchet

`--check FILE` reads one `path: name  # reason` entry per line (`name` is
`Type::name` for an associated function) and fails when the inventory
prints a `pub fn` the file does not list (new dead surface) or the file
lists one the inventory no longer prints (delete the entry with the
function). Run from the repository root.
"""
import glob
import os
import re
import sys


def test_only_files():
    """Module files that a `lib.rs` declares as `#[cfg(test)] mod name;`."""
    skip = set()
    for lib in glob.glob('crates/*/src/lib.rs'):
        src = os.path.dirname(lib)
        for name in re.findall(r'#\[cfg\(test\)\]\s*(?:pub(?:\([^)]*\))? )?mod (\w+);', open(lib).read()):
            skip.update({f'{src}/{name}.rs', f'{src}/{name}/mod.rs'})
    return skip


def impl_blocks(body):
    """`(start, end, type)` of every column-0 `impl` block in `body`."""
    blocks = []
    for m in re.finditer(r'(?m)^impl\b([^{]*)\{', body):
        header = re.sub(r'^\s*<[^{]*?>', '', m.group(1))
        target = header.split(' for ')[-1]
        ty = re.match(r'\s*(?:\w+::)*(\w+)', target)
        close = re.compile(r'(?m)^\}').search(body, m.end())
        if ty and close:
            blocks.append((m.start(), close.end(), ty.group(1)))
    return blocks


def has_receiver(body, at):
    """Whether the `fn` whose name ends at `at` takes `self`."""
    params = body[body.index('(', at) + 1:]
    return re.match(r"\s*(&\s*('\w+\s+)?)?(mut\s+)?self\b", params) is not None


def inventory():
    files = [f for p in ('crates/*/src/**/*.rs', 'src/**/*.rs', 'tests/*.rs', 'examples/*.rs',
                         'fleetbench/src/*.rs') for f in glob.glob(p, recursive=True)]
    strip = lambda s: re.sub(r'(?m)^\s*(pub )?use [^;]*;', '', re.sub(r'//.*', '', s))
    text = {f: strip(open(f).read()) for f in files}
    skip = test_only_files()
    found = []
    for f in sorted(glob.glob('crates/*/src/**/*.rs', recursive=True)):
        if f in skip:
            continue
        at = text[f].find('#[cfg(test)]\nmod ')
        body, tests = (text[f], '') if at < 0 else (text[f][:at], text[f][at:])
        blocks = impl_blocks(body)
        for m in re.finditer(r'(?m)^\s*pub fn (\w+)', body):
            name = m.group(1)
            owner = next((ty for s, e, ty in blocks if s < m.start() < e), None)
            if owner is not None and has_receiver(body, m.end()):
                w = re.compile(r'\.' + name + r'\s*(?:\(|::<)|::' + name + r'\b')
                live = w.search(body) is not None or any(w.search(text[g]) for g in files if g != f)
                label, in_tests = name, len(w.findall(tests))
            elif owner is None:
                w = re.compile(r'\b' + name + r'\b')
                live = len(w.findall(body)) > 1 or any(w.search(text[g]) for g in files if g != f)
                label, in_tests = name, len(w.findall(tests))
            else:
                path = re.compile(r'\b' + owner + r'::' + name + r'\b')
                own = re.compile(r'\bSelf::' + name + r'\b')
                by_self = sum(len(own.findall(body[s:e])) for s, e, ty in blocks if ty == owner)
                live = (by_self > 0 or path.search(body) is not None
                        or any(path.search(text[g]) for g in files if g != f))
                label = f'{owner}::{name}'
                in_tests = len(path.findall(tests)) + len(own.findall(tests))
            if not live:
                found.append((f, label, in_tests))
    return found


def main(argv):
    found = inventory()
    for f, name, in_tests in found:
        print(f'{f}: {name} (mentions in its own tests: {in_tests})')
    if len(argv) == 3 and argv[1] == '--check':
        lines = (line.split('#')[0].strip() for line in open(argv[2]))
        allowed = {line for line in lines if line}
        printed = {f'{f}: {name}' for f, name, _ in found}
        for entry in sorted(printed - allowed):
            print(f'FAIL new dead public surface, not in {argv[2]}: {entry}', file=sys.stderr)
        for entry in sorted(allowed - printed):
            print(f'FAIL {argv[2]} lists what is no longer dead or no longer there: {entry}',
                  file=sys.stderr)
        return 0 if printed == allowed else 1
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
