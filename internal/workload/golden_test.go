package workload

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

// goldenInstances are the instances pinned by testdata/generate.golden: the
// twelve of Table 3, then every application interpolated to 16, 48 and 200
// processes.
func goldenInstances(t *testing.T) []Instance {
	t.Helper()
	insts := Table3()
	for _, n := range []int{16, 48, 200} {
		for _, app := range Apps() {
			inst, err := InstanceFor(app, n)
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, inst)
		}
	}
	return insts
}

// TestGenerateGolden pins every generated trace at DefaultConfig to the
// sha256 of its serialized text, so a change to the generator or to the
// calibration's bisection that moves a single byte of any trace fails here.
// On a mismatch the test logs the whole file as it would be now; replace
// testdata/generate.golden with it only when a change is meant to move the
// traces.
func TestGenerateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("generated traces are pinned on amd64; other architectures may fuse multiply-adds in the calibration replays")
	}
	want, err := os.ReadFile("testdata/generate.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	got.WriteString("# sha256 of trace.Write output of workload.Generate at DefaultConfig()\n")
	cfg := DefaultConfig()
	for _, inst := range goldenInstances(t) {
		tr, err := Generate(inst, cfg)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		h := sha256.New()
		if err := trace.Write(h, tr); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %x\n", inst.Name, h.Sum(nil))
	}
	if got.String() != string(want) {
		t.Fatalf("generated traces differ from testdata/generate.golden; now:\n%s", got.String())
	}
}
