#!/bin/sh
# Lists, sorted, what of lib/**/*.mli only tests reach. Run from the
# repository root, or pass the root as the first argument.
#
# With no second argument (or `vals`): each `val` that nothing outside
# its own module refers to in lib/, bin/, examples/ or bench/. A
# reference to `val name` of module M (file lib/<lib>/<m>.mli) is
#   - `M.name`, also as the tail of a longer path (`Net.M.name`);
#   - `X.name` where some file aliases `module X = ...M`;
#   - a bare `name` in a file that opens M (`open M`, `let open M in`)
#     or uses a local open `M.( ... )`.
# The test over-counts (a record field, a local or another module's name
# spelt the same counts as a caller) but never misses a caller written in
# one of these forms. Operators (`val ( < )`) are not listed.
#
# With `options`: each optional argument `?arg` of a `val` that no user
# of its module passes, as `~arg` or `?arg`. The users are the files of
# lib/, bin/, examples/ and bench/ outside M's own module that name M;
# any `~arg` or `?arg` in one of them counts as passing it, so this too
# over-counts callers and can only hide an unused option, never list a
# used one.
#
# With `variants`: each constructor of a variant type (extensible ones
# included) that no user of its module, as above, mentions: any word
# spelt like the constructor counts, so this is the `options` rule for
# constructors, with the same over-count.
set -eu
cd "${1:-.}"
mode=${2:-vals}
files=$(find lib bin examples bench -name '*.ml' -o -name '*.mli' | LC_ALL=C sort)
id="[A-Z][A-Za-z0-9_']*"
capitalize() {
  echo "$(printf %s "$1" | cut -c1 | tr a-z A-Z)$(printf %s "$1" | cut -c2-)"
}
# "name arg" for each `?arg:` in a `val` signature of the given .mli; a
# signature ends at the next item or doc comment.
optional_args() {
  awk '
    /^ *val / { name = $2; sub(/:.*/, "", name); in_val = 1 }
    /^(type|module|exception|external|end|include|class|\(\*)/ { in_val = 0 }
    in_val {
      line = $0
      while (match(line, /\?[a-z_][A-Za-z0-9_]*:/)) {
        print name, substr(line, RSTART + 1, RLENGTH - 2)
        line = substr(line, RSTART + RLENGTH)
      }
    }' "$1"
}
# The constructors of the variant types in the given .mli: a capitalised
# name after a `|`, or right after the `=` of a `type` line (a type path
# such as `= Foo.t` is not one). Comments are skipped; a type ends at the
# next item.
constructors() {
  awk '
    {
      line = ""
      for (i = 1; i <= length($0); i++) {
        two = substr($0, i, 2)
        if (two == "(*") { depth++; i++ }
        else if (depth > 0 && two == "*)") { depth--; i++ }
        else if (depth == 0) line = line substr($0, i, 1)
      }
    }
    line ~ /^ *(val|module|exception|external|end|include|class|open) / {
      in_type = 0
    }
    line ~ /^ *(type|and) / {
      in_type = 1
      if (match(line, /= *[A-Z][A-Za-z0-9_]*[^A-Za-z0-9_.]/) ||
          match(line, /= *[A-Z][A-Za-z0-9_]*$/)) {
        c = substr(line, RSTART, RLENGTH)
        gsub(/[^A-Za-z0-9_]/, "", c)
        print c
      }
    }
    in_type {
      while (match(line, /\| *[A-Z][A-Za-z0-9_]*/)) {
        c = substr(line, RSTART, RLENGTH)
        sub(/^\| */, "", c)
        print c
        line = substr(line, RSTART + RLENGTH)
      }
    }' "$1"
}
for mli in $(find lib -name '*.mli' | LC_ALL=C sort); do
  base=${mli%.mli}
  M=$(capitalize "$(basename "$base")")
  L=$(capitalize "$(basename "$(dirname "$base")")")
  # Only files that name the module can refer to it.
  users=$(echo "$files" | grep -v -x -e "$base.ml" -e "$mli" |
    xargs grep -lw "$M" || true)
  if [ "$mode" = variants ]; then
    for c in $(constructors "$mli"); do
      if [ -n "$users" ] && grep -qw "$c" $users; then continue; fi
      echo "$L.$M.$c"
    done
    continue
  fi
  if [ "$mode" = options ]; then
    optional_args "$mli" | while read -r name arg; do
      if [ -n "$users" ] && grep -qE "[~?]$arg\b" $users; then continue; fi
      echo "$L.$M.$name ?$arg"
    done
    continue
  fi
  aliases=""
  openers=""
  if [ -n "$users" ]; then
    aliases=$(grep -ohE "module +$id *= *($id\.)*$M\b" $users |
      sed 's/module *\([^ =]*\).*/\1/' | LC_ALL=C sort -u | tr '\n' '|')
    openers=$(grep -lE "open!? +($id\.)*$M\b|\b$M\.\(" $users || true)
  fi
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli"); do
    if [ -n "$users" ] && grep -qE "\b(${aliases}$M)\.$name\b" $users; then
      continue
    fi
    if [ -n "$openers" ] && grep -qw "$name" $openers; then continue; fi
    echo "$L.$M.$name"
  done
done | LC_ALL=C sort
