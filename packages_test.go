package cdas_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// entryPoints are the binaries every internal package must serve: the
// served stack (server and CLI) and the paper-reproduction
// entry points.
var entryPoints = []string{
	"./cmd/cdas-server",
	"./cmd/cdasctl",
	"./cmd/cdas-experiments",
	"./cmd/itag",
	"./cmd/tsa",
}

// unreachedAllowed are internal packages no entry point imports yet,
// each kept until its ROADMAP item decides it.
var unreachedAllowed = []string{
	"cdas/internal/amtapi",   // item 16: exactly once, as the payee sees it
	"cdas/internal/crowdops", // item 6: one execution model for three kinds
}

// TestEveryInternalPackageIsReached fails when an internal package with
// non-test code is imported by no entry point: such code is either
// adopted by a binary or deleted.
func TestEveryInternalPackageIsReached(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	list := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command(goTool, append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	reached := list(append([]string{"-deps"}, entryPoints...)...)
	// Packages with test files only (no GoFiles) build into no binary.
	all := list("-e", "-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", "./internal/...")
	var unreached []string
	for _, pkg := range all {
		if !slices.Contains(reached, pkg) {
			unreached = append(unreached, pkg)
		}
	}
	if !slices.Equal(unreached, unreachedAllowed) {
		t.Errorf("internal packages reached by no entry point = %v, want exactly %v\n"+
			"(wire a new package into a binary or delete it; drop an allowlist entry once its package is reached or gone)",
			unreached, unreachedAllowed)
	}
}
