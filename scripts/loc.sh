#!/bin/sh
# Non-test Go lines per top-level package (bench/ excluded: it is the
# frozen benchmark, not the program), and the delta against a git ref —
# the one way builder and reviewer check a "net-negative LOC" criterion.
#
#   scripts/loc.sh            working tree only
#   scripts/loc.sh HEAD~1     working tree against that commit
#
# The working tree side counts tracked and not-yet-added files alike
# (ignored files never), so it can be run before `git add`. A line is a
# line: comments and blanks count, which is why ROADMAP criteria discount
# comment-only and formatting deletions by hand.
set -eu
cd "$(git rev-parse --show-toplevel)"
ref=${1:-}
if [ -n "$ref" ] && ! git rev-parse --verify --quiet "$ref^{commit}" >/dev/null; then
	echo "loc.sh: unknown ref $ref" >&2
	exit 2
fi

# count [ref] prints "<path> <lines>" for every .go file of the tree.
count() {
	if [ -n "${1:-}" ]; then
		git grep -c '' "$1" -- '*.go' | sed "s|^$1:||"
	else
		git grep --untracked -c '' -- '*.go'
	fi | sed 's/:\([0-9]*\)$/ \1/'
}

{
	count | sed 's/^/now /'
	if [ -n "$ref" ]; then
		count "$ref" | sed 's/^/ref /'
	fi
} | awk -v ref="$ref" '
	$2 ~ /_test\.go$/ || $2 ~ /^bench\// { next }
	{
		n = split($2, p, "/")
		pkg = n == 1 ? "." : (p[1] == "internal" && n > 2 ? p[1] "/" p[2] : p[1])
		seen[pkg] = 1
		lines[$1, pkg] += $3
		total[$1] += $3
	}
	END {
		fmt = ref == "" ? "%-20s %7d\n" : "%-20s %7d %7d %+7d\n"
		if (ref == "") printf "%-20s %7s\n", "package", "lines"
		else printf "%-20s %7s %7s %7s\n", "package", "lines", ref, "delta"
		m = 0
		for (pkg in seen) names[++m] = pkg
		for (i = 2; i <= m; i++)
			for (j = i; j > 1 && names[j] < names[j-1]; j--) {
				t = names[j]; names[j] = names[j-1]; names[j-1] = t
			}
		for (i = 1; i <= m; i++) {
			pkg = names[i]
			printf fmt, pkg, lines["now", pkg], lines["ref", pkg], lines["now", pkg] - lines["ref", pkg]
		}
		printf fmt, "total", total["now"], total["ref"], total["now"] - total["ref"]
	}
'
