#!/usr/bin/env python3
"""Dead public surface: the reference count.

Prints every `pub fn` under `crates/*/src` that no other file (workspace,
`tests/`, `examples/`, `fleetbench/src`) and no non-test line of its own
file mentions, comments and `use` / `pub use` lines not counting. It
matches by name, so a method that shares its name with a live one hides;
what it prints is certain.

    scripts/dead_surface.py                                   # the inventory
    scripts/dead_surface.py --check scripts/dead_surface.allow  # the ratchet

`--check FILE` reads one `path: name  # reason` entry per line and fails
when the inventory prints a `pub fn` the file does not list (new dead
surface) or the file lists one the inventory no longer prints (delete
the entry with the function). Run from the repository root.
"""
import glob
import re
import sys


def inventory():
    files = [f for p in ('crates/*/src/**/*.rs', 'src/**/*.rs', 'tests/*.rs', 'examples/*.rs',
                         'fleetbench/src/*.rs') for f in glob.glob(p, recursive=True)]
    strip = lambda s: re.sub(r'(?m)^\s*(pub )?use [^;]*;', '', re.sub(r'//.*', '', s))
    text = {f: strip(open(f).read()) for f in files}
    found = []
    for f in sorted(glob.glob('crates/*/src/**/*.rs', recursive=True)):
        at = text[f].find('#[cfg(test)]\nmod ')
        body, tests = (text[f], '') if at < 0 else (text[f][:at], text[f][at:])
        for name in re.findall(r'(?m)^\s*pub fn (\w+)', body):
            w = re.compile(r'\b' + name + r'\b')
            if len(w.findall(body)) == 1 and not any(w.search(text[g]) for g in files if g != f):
                found.append((f, name, len(w.findall(tests))))
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
