package trace

import (
	"bufio"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/stagerr"
)

// TestReadLineLongerThanScannerDefault is the regression test for the
// latent bufio.Scanner 64 KiB token limit: before Read configured an
// explicit buffer, any line past 64 KiB aborted the whole parse with
// "bufio.Scanner: token too long".
func TestReadLineLongerThanScannerDefault(t *testing.T) {
	long := "% " + strings.Repeat("x", 1<<20)
	in := "#PWRTRACE v1 app=a ranks=1\n" + long + "\nc 0 1.5\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("1 MiB comment line failed to parse: %v", err)
	}
	if got := tr.NumRecords(); got != 1 {
		t.Fatalf("records = %d, want 1", got)
	}
}

// TestReadLineOverMaxLineBytes proves a line past the explicit bound fails
// with a parse-stage error naming the offending line, not the cryptic
// bufio sentinel.
func TestReadLineOverMaxLineBytes(t *testing.T) {
	var sb strings.Builder
	sb.Grow(MaxLineBytes + 64)
	sb.WriteString("#PWRTRACE v1 app=a ranks=1\n% ")
	sb.WriteString(strings.Repeat("x", MaxLineBytes+1))
	_, err := Read(strings.NewReader(sb.String()))
	if err == nil {
		t.Fatal("over-long line parsed without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 2") || !strings.Contains(msg, "exceeds max line length") {
		t.Fatalf("error does not name the offending line: %v", err)
	}
	if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
		t.Fatalf("stage = %v/%v, want parse", st, ok)
	}
}

// TestScanErrMapsTooLong pins the reference reader's scanner-failure
// translation, the error text Parse's own line limit must reproduce.
func TestScanErrMapsTooLong(t *testing.T) {
	err := scanErr(bufio.ErrTooLong, 41)
	if !strings.Contains(err.Error(), "line 42") {
		t.Fatalf("scanErr(ErrTooLong, 41) = %v, want mention of line 42", err)
	}
	if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
		t.Fatalf("stage = %v/%v, want parse", st, ok)
	}
}

// FuzzRead asserts the parser never panics and every failure is a
// parse-stage error.
func FuzzRead(f *testing.F) {
	f.Add("#PWRTRACE v1 app=a ranks=2\nc 0 1.5\ns 0 1 1024 7\nr 1 0 1024 7\ni 0\ni 1\n")
	f.Add("")
	f.Add("#PWRTRACE v1 app=a ranks=1\nc 0")
	f.Add("#PWRTRACE v1 app=a ranks=0\n")
	f.Add("#PWRTRACE v1 app=a ranks=1\nc 0 nope\n")
	f.Add("#PWRTRACE v1 app=a ranks=1\ng 0 allreduce x\n")
	f.Add("#PWRTRACE v1 app=a ranks=1\nz 0\n")
	f.Add("#PWRTRACE v1 app=x ranks=4194304\nc 0 1\n")
	f.Add("#PWRTRACE v1 app=x ranks=50000000\nc 0 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Read(strings.NewReader(in))
		if err != nil {
			if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
				t.Fatalf("non-parse-stage parse failure: %v", err)
			}
			return
		}
		if tr.NumRanks() <= 0 {
			t.Fatalf("parsed trace with %d ranks", tr.NumRanks())
		}
	})
}

// TestReadRejectsHugeRankCount is the regression test for a header that
// demands unbounded memory: Read sized its per-rank state from the declared
// count before seeing a record, so one short line could cost gigabytes.
// Past MaxRanks it must fail at parse, fast and without allocating for the
// declared ranks; at the cap it still parses.
func TestReadRejectsHugeRankCount(t *testing.T) {
	in := "#PWRTRACE v1 app=x ranks=50000000\nc 0 1\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := Read(strings.NewReader(in))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("50M-rank header parsed without error")
	}
	if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
		t.Fatalf("stage = %v/%v, want parse (err: %v)", st, ok, err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("rejection took %v, want under 100ms", elapsed)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("rejection allocated %d bytes, want under 1 MiB", alloc)
	}

	if _, err := Read(strings.NewReader(fmt.Sprintf("#PWRTRACE v1 app=x ranks=%d\nc 0 1\n", MaxRanks+1))); err == nil {
		t.Errorf("ranks=%d parsed, want rejection above MaxRanks", MaxRanks+1)
	}
	tr, err := Read(strings.NewReader(fmt.Sprintf("#PWRTRACE v1 app=x ranks=%d\nc 0 1\n", MaxRanks)))
	if err != nil {
		t.Fatalf("ranks=MaxRanks rejected: %v", err)
	}
	if tr.NumRanks() != MaxRanks {
		t.Fatalf("ranks = %d, want %d", tr.NumRanks(), MaxRanks)
	}
}
