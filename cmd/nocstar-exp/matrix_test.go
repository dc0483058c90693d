package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// assertReportIdenticalAcrossJ builds the nocstar-exp binary, runs the
// same invocation once per sweep parallelism in js, and fails unless
// every run writes a byte-identical -report JSON.
func assertReportIdenticalAcrossJ(t *testing.T, js []int, args ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the nocstar-exp binary")
	}
	bin := filepath.Join(t.TempDir(), "nocstar-exp")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	var golden []byte
	for _, j := range js {
		report := filepath.Join(t.TempDir(), "report.json")
		cmd := exec.Command(bin, append([]string{
			"-j", strconv.Itoa(j),
			"-quiet",
			"-report", report,
		}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("j=%d: %v\n%s", j, err, out)
		}
		got, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = got
			continue
		}
		if !bytes.Equal(golden, got) {
			t.Fatalf("j=%d report diverges from j=%d (%d vs %d bytes)",
				j, js[0], len(got), len(golden))
		}
	}
	if len(golden) == 0 {
		t.Fatal("empty report")
	}
}

// TestReportParallelismMatrix is the end-to-end determinism gate for
// sweep parallelism: the same invocation at every -j must write a
// byte-identical -report JSON. fig12 mixes private, distributed,
// monolithic and NOCSTAR configs and divides by the memoized private
// baseline, so concurrent runs and cross-experiment dedup both engage.
func TestReportParallelismMatrix(t *testing.T) {
	assertReportIdenticalAcrossJ(t, []int{1, 2, 4},
		"-instr", "2000", "-workloads", "gups", "fig12")
}

// TestReportPlacementMatrix extends the byte-identity gate to the fabric
// layer: the placement experiment — every topology crossed with every
// placement strategy on the distributed organization — must write the
// identical -report JSON at every -j.
func TestReportPlacementMatrix(t *testing.T) {
	assertReportIdenticalAcrossJ(t, []int{1, 4},
		"-instr", "1500", "-cores", "16", "-workloads", "gups", "placement")
}
