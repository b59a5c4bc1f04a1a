package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "fig2", "optimize-gears"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad flag", []string{"-nope"}, "flag provided but not defined"},
		{"positional args", []string{"fig2"}, "unexpected arguments"},
		{"unknown experiment", []string{"-experiment", "nope"}, "unknown id"},
		{"bad iterations", []string{"-iterations", "0"}, "iterations must be positive"},
		{"unwritable out", []string{"-experiment", "table1", "-out", "/nonexistent-dir/x/report.txt"}, "no such file"},
	}
	for _, tc := range cases {
		var out, errOut strings.Builder
		err := run(tc.args, &out, &errOut)
		if err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-experiment", "table1", "-iterations", "2", "-quiet"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "uniform-6") {
		t.Fatalf("report missing gear table:\n%s", out.String())
	}
	if errOut.Len() != 0 {
		t.Fatalf("-quiet still wrote progress: %s", errOut.String())
	}
}

func TestRunWritesOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	var out, errOut strings.Builder
	if err := run([]string{"-experiment", "table1", "-iterations", "2", "-quiet", "-out", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("-out set but report went to stdout: %s", out.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "uniform-6") {
		t.Fatalf("report file missing gear table:\n%s", b)
	}
}

// TestReportGolden pins the whole five-iteration report byte for byte at
// several worker counts, so a refactor of any pipeline the experiments drive
// must leave every table and figure unchanged, and the report must not
// depend on how many cells run at once. Regenerate testdata/report.golden
// with
//
//	go run ./cmd/pwrsim -experiment all -iterations 5 -quiet -out cmd/pwrsim/testdata/report.golden
//
// only when a change is meant to move the numbers.
func TestReportGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden report is pinned on amd64; other architectures may fuse multiply-adds")
	}
	want, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []string{"1", "2", "8"} {
		t.Run("parallel="+parallel, func(t *testing.T) {
			var out, errOut strings.Builder
			if err := run([]string{"-experiment", "all", "-iterations", "5", "-quiet", "-parallel", parallel}, &out, &errOut); err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("report differs from testdata/report.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("report differs from testdata/report.golden: %d lines, want %d", len(gl), len(wl))
			}
		})
	}
}

// TestScalingMatchesFullReport pins that an instance name means one
// instance: the scaling study run alone generates its Table 3 rows
// (CG-32, SPECFEM3D-32, …) itself, and must print them exactly as the full
// report does, where those names were generated by the Table 3 experiments
// first.
func TestScalingMatchesFullReport(t *testing.T) {
	report := func(id string) string {
		var out, errOut strings.Builder
		if err := run([]string{"-experiment", id, "-iterations", "5", "-quiet"}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	scaling, all := report("scaling"), report("all")
	sections := strings.Split(scaling, "## ")[1:]
	if len(sections) == 0 {
		t.Fatalf("scaling report has no sections:\n%s", scaling)
	}
	for _, sec := range sections {
		if !strings.Contains(all, "## "+sec) {
			t.Errorf("scaling section differs from the full report:\n%s", sec)
		}
	}
}
