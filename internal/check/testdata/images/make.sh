#!/bin/sh
# make.sh regenerates the golden pool images TestRecoverGoldenImages
# reads (internal/check/golden_test.go). Run it from the repository
# root:
#
#	sh internal/check/testdata/images/make.sh
#
# twotier.img.gz: written by onllcrash built from commit 725bffc, the
#   last commit whose logs had the two-tier layout (inline slots and an
#   overflow ring), taken out of git with git archive.
# onetier.img.gz: written by onllcrash built from the working tree,
#   whose logs are one region of tagged cache lines.
#
# Both runs are `onllcrash -phase run -procs 3 -ops 200 -deltasnap`:
# three goroutines put 200 keys each into a durable map with compaction
# on, and the durable image is written as after a power failure. The
# goroutines interleave freely, so the records differ from run to run,
# but every image recovers 600 operations, 200 per process.
set -e
twotier=725bffc
dir=internal/check/testdata/images
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$twotier" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/onllcrash-twotier" ./cmd/onllcrash)
go build -o "$tmp/onllcrash" ./cmd/onllcrash
"$tmp/onllcrash-twotier" -file "$tmp/twotier.img" -phase run -procs 3 -ops 200 -deltasnap
"$tmp/onllcrash" -file "$tmp/onetier.img" -phase run -procs 3 -ops 200 -deltasnap
gzip -9n <"$tmp/twotier.img" >"$dir/twotier.img.gz"
gzip -9n <"$tmp/onetier.img" >"$dir/onetier.img.gz"
