// Command onllvet is the repo's static-invariant gate: it runs the
// stock `go vet` passes and then the ONLL analyzer suite
// (internal/analysis: fencepath, atomicmix, hotpath, linepad) over the
// named packages, exiting non-zero on any finding.
//
//	go run ./cmd/onllvet ./...
//
// Flags:
//
//	-novet        skip the stock `go vet` pass (CI runs it separately)
//	-cache DIR    persist per-package analysis facts/diagnostics keyed
//	              by content hash (default: user cache dir; CI restores
//	              it between runs)
//	-nocache      disable the fact cache
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/all"
)

func main() {
	novet := flag.Bool("novet", false, "skip the stock `go vet` pass")
	nocache := flag.Bool("nocache", false, "disable the analysis fact cache")
	cacheDir := flag.String("cache", "", "analysis fact cache directory (default: user cache dir)")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if !*novet {
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Stdout, vet.Stderr = os.Stdout, os.Stderr
		if err := vet.Run(); err != nil {
			failed = true
		}
	}

	dir := *cacheDir
	if dir == "" && !*nocache {
		if base, err := os.UserCacheDir(); err == nil {
			dir = filepath.Join(base, "onllvet")
		}
	}
	if *nocache {
		dir = ""
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	prog, err := analysis.LoadModule(wd, patterns...)
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.Run(prog, analysis.Options{Analyzers: all.Analyzers, CacheDir: dir})
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		pos := d.Position
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
		fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 || failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "onllvet:", err)
	os.Exit(1)
}
