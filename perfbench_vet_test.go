package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestPerfbenchTypeChecks vets the benchmark harness in perfbench/. It is
// its own module, so `go test ./...` never compiles it, yet it calls dozens
// of this module's exported symbols (dimemas.DeltaState, workload.Generate,
// experiments.Suite.Workers and others): renaming or reshaping one breaks
// the benchmark without failing any other test. The vet runs with the
// running toolchain and with the module proxy off, so it needs no download.
func TestPerfbenchTypeChecks(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		t.Skipf("no go command next to the running toolchain: %v", err)
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "perfbench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local", "GOWORK=off", "GOFLAGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in perfbench/: %v\n%s", err, out)
	}
}
