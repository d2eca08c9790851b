// Command cbwslint runs the repo's custom analyzer suite (see
// internal/lint: hotpathalloc, determinism, checkguard, batchalias,
// guardedby, golifecycle, wirecompat) over the named packages. The
// module packages they import are analyzed too, for their facts only:
// findings in them are not reported, so a package gets the same
// verdict alone as under ./....
//
// Usage:
//
//	cbwslint [-tags taglist] [-analyzers a,b] [-list] packages...
//	cbwslint -write-compat [-compat-bump note] ./api/v1
//
// Run it on both build variants, because the cbwscheck-tagged files
// only load under -tags cbwscheck:
//
//	cbwslint ./...
//	cbwslint -tags cbwscheck ./...
//
// Findings print as "file:line:col: message (cbws/analyzer)" lines.
// -write-compat regenerates the wirecompat manifest (compat.json) for
// exactly one package; when the rewrite is breaking relative to the
// committed manifest it refuses unless -compat-bump supplies the
// CompatVersion note.
//
// Exit status follows the repo convention: 0 clean, 1 findings or a
// load/analysis failure, 2 usage error. A finding is silenced in place
// with
//
//	//lint:ignore cbws/<analyzer> <reason>
//
// on (or immediately above) the flagged line — the reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cbws/internal/cli"
	"cbws/internal/lint"
	"cbws/internal/lint/analysis"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit) abstracted
// so tests can drive every exit path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbwslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tags := fs.String("tags", "", "build tags to load packages with (e.g. cbwscheck)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	writeCompat := fs.Bool("write-compat", false, "regenerate the wirecompat manifest for one package and exit")
	compatBump := fs.String("compat-bump", "", "CompatVersion note for a breaking -write-compat rewrite")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: cbwslint [-tags taglist] [-analyzers a,b] [-list] packages...")
		fmt.Fprintln(stderr, "       cbwslint -write-compat [-compat-bump note] package")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "cbws/%s: %s\n", a.Name, a.Doc)
		}
		return cli.ExitOK
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return cli.ExitUsage
	}

	analyzers := lint.Analyzers()
	if *names != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*names, ",") {
			a, ok := lint.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "cbwslint: unknown analyzer %q (see -list)\n", name)
				return cli.ExitUsage
			}
			analyzers = append(analyzers, a)
		}
	}
	pkgs, err := analysis.Load(".", *tags, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "cbwslint: %v\n", err)
		return cli.ExitFail
	}
	if *writeCompat {
		var named []*analysis.Package
		for _, p := range pkgs {
			if !p.FactsOnly {
				named = append(named, p)
			}
		}
		return runWriteCompat(named, *compatBump, stdout, stderr)
	}
	module := ""
	for _, p := range pkgs {
		if p.Module != "" {
			module = p.Module
			break
		}
	}
	diags, err := analysis.Run(analyzers, pkgs, module)
	if err != nil {
		fmt.Fprintf(stderr, "cbwslint: %v\n", err)
		return cli.ExitFail
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "cbwslint: %d findings\n", len(diags))
		return cli.ExitFail
	}
	return cli.ExitOK
}

// runWriteCompat regenerates compat.json for exactly one package.
// Rewrites that are breaking relative to the committed manifest bump
// CompatVersion and require a -compat-bump note; additive rewrites
// keep the version.
func runWriteCompat(pkgs []*analysis.Package, bumpNote string, stdout, stderr io.Writer) int {
	if len(pkgs) != 1 {
		fmt.Fprintf(stderr, "cbwslint: -write-compat needs exactly one package, got %d\n", len(pkgs))
		return cli.ExitUsage
	}
	pkg := pkgs[0]
	cur := lint.BuildWireManifest(pkg.Files, pkg.Types, pkg.TypesInfo)
	cur.CompatVersion, cur.Note = 1, "initial freeze"

	path := filepath.Join(pkg.Dir, lint.WireCompatManifestName)
	if data, err := os.ReadFile(path); err == nil {
		var old lint.WireManifest
		if err := json.Unmarshal(data, &old); err != nil {
			fmt.Fprintf(stderr, "cbwslint: unreadable %s: %v\n", path, err)
			return cli.ExitFail
		}
		cur.CompatVersion, cur.Note = old.CompatVersion, old.Note
		probe := *cur // content with old version/note, for the diff
		breaking := false
		for _, it := range lint.DiffWireManifests(&old, &probe) {
			if it.Breaking {
				breaking = true
				fmt.Fprintf(stdout, "breaking: %s\n", it.Msg)
			}
		}
		if breaking {
			if bumpNote == "" {
				fmt.Fprintf(stderr, "cbwslint: breaking wire changes need -compat-bump \"<note>\"\n")
				return cli.ExitFail
			}
			cur.CompatVersion, cur.Note = old.CompatVersion+1, bumpNote
		} else if bumpNote != "" {
			cur.CompatVersion, cur.Note = old.CompatVersion+1, bumpNote
		}
	} else if bumpNote != "" {
		cur.Note = bumpNote
	}

	out, err := lint.EncodeWireManifest(cur)
	if err != nil {
		fmt.Fprintf(stderr, "cbwslint: %v\n", err)
		return cli.ExitFail
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintf(stderr, "cbwslint: %v\n", err)
		return cli.ExitFail
	}
	fmt.Fprintf(stdout, "cbwslint: wrote %s (compat_version %d)\n", path, cur.CompatVersion)
	return cli.ExitOK
}
