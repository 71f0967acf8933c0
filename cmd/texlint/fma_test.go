package main

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fusedOp matches an arm64 fused multiply-add or multiply-subtract in the
// compiler's -S listing, in double (D) or single (S) precision, and captures
// the source position the listing gives it.
var fusedOp = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+F(N?)M(ADD|SUB)[DS]\s`)

// TestDeterminismScopeHasNoFusedMultiplyAdd cross-compiles every package of
// determinismScope for arm64 and fails on any fused multiply-add in its
// assembly. The Go spec lets a compiler fuse x*y + z into one instruction
// that rounds once; amd64 never does, arm64 does, and a fused product moves
// rows that the result cache promises are the same on every CPU. Round each
// such product with an explicit conversion, float64(x*y) + z, as
// memory.Bus.Fetch does.
func TestDeterminismScopeHasNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the determinism scope for arm64")
	}
	pkgs := make([]string, 0, len(determinismScope))
	for p := range determinismScope {
		pkgs = append(pkgs, p)
	}
	slices.Sort(pkgs)
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-S"}, pkgs...)...)
	cmd.Dir = repoRoot(t)
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cross-compiling %v for arm64: %v\n%s", pkgs, err, out)
	}
	if !strings.Contains(string(out), "STEXT") {
		t.Fatalf("the build printed no assembly listing:\n%s", out)
	}
	var sites []string
	seen := make(map[string]bool)
	for _, m := range fusedOp.FindAllStringSubmatch(string(out), -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			sites = append(sites, m[1])
		}
	}
	if len(sites) > 0 {
		t.Errorf("%d source lines compile to fused multiply-adds on arm64; round each product that feeds an add or a subtract, float64(x*y) + z:\n%s",
			len(sites), strings.Join(sites, "\n"))
	}
}
