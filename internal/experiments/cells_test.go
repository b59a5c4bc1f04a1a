package experiments

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestCellsReturnsLowestFailingIndex runs a synthetic experiment whose cells
// 3 and 7 fail and requires every worker count to report cell 3's error,
// after running every cell below it.
func TestCellsReturnsLowestFailingIndex(t *testing.T) {
	const n = 12
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 20; rep++ {
			var ran [n]atomic.Bool
			s := &Suite{Workers: workers}
			err := s.cells(n, func(i int) error {
				ran[i].Store(true)
				if i == 3 || i == 7 {
					return fmt.Errorf("cell %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "cell 3 failed" {
				t.Fatalf("workers %d: got error %v, want cell 3's", workers, err)
			}
			for i := 0; i < 3; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers %d: cell %d below the first failure did not run", workers, i)
				}
			}
			if workers == 1 && ran[4].Load() {
				t.Fatal("serial pool ran past the first failure")
			}
		}
	}
}

// TestCellsRunsEveryCellOnce checks that a successful pool runs each index
// exactly once, including when there are more workers than cells.
func TestCellsRunsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			runs := make([]atomic.Int32, n)
			s := &Suite{Workers: workers}
			if err := s.cells(n, func(i int) error { runs[i].Add(1); return nil }); err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("workers %d, n %d: cell %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestRegistryParallelMatchesSerial runs every registered experiment on a
// fresh suite at Workers = 8, so concurrent trace generation and every
// converted loop run under the race detector, and requires the report to
// equal a serial run's byte for byte.
func TestRegistryParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry twice")
	}
	par := QuickSuite()
	par.Workers = 8
	ser := QuickSuite()
	ser.Workers = 1
	var got, want bytes.Buffer
	for _, e := range All() {
		if err := e.Run(par, &got); err != nil {
			t.Fatalf("%s at Workers = 8: %v", e.ID, err)
		}
	}
	ser.cache = par.cache // the serial arm replays the same generated traces
	for _, e := range All() {
		if err := e.Run(ser, &want); err != nil {
			t.Fatalf("%s serially: %v", e.ID, err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("report at Workers = 8 differs from the serial report")
	}
}
