package paraver

import (
	"bufio"
	"strings"
	"testing"

	"repro/internal/stagerr"
)

// TestReadMalformedInputs drives the importer through truncated records,
// non-numeric fields and mid-record EOF: every case must come back as a
// parse-stage error — never a panic, never success.
func TestReadMalformedInputs(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty input", ""},
		{"not a paraver header", "#NotParaver whatever\n"},
		{"non-numeric task count", "#Paraver (x):100:1(2):1:zero(1:1)\n"},
		{"zero task count", "#Paraver (x):100:1(2):1:0(1:1)\n"},
		{"task count above trace.MaxRanks", "#Paraver (x):100:1(2):1:50000000(1:1)\n1:1:1:1:1:0:100:1\n"},
		{"truncated header", "#Paraver (x):100\n"},
		{"truncated state record", sampleHeader + "1:1:1:1:1:0:100\n"},
		{"non-numeric task", sampleHeader + "1:1:1:x:1:0:100:1\n"},
		{"non-numeric begin", sampleHeader + "1:1:1:1:1:q:100:1\n"},
		{"state ends before it begins", sampleHeader + "1:1:1:1:1:200:100:1\n"},
		{"task out of range", sampleHeader + "1:1:1:9:1:0:100:1\n"},
		{"truncated comm record", sampleHeader + "3:1:1:1:1:0:0:1:1:2\n"},
		{"non-numeric comm size", sampleHeader + "3:1:1:1:1:0:0:1:1:2:1:0:0:big:7\n"},
		{"self communication", sampleHeader + "3:1:1:1:1:0:0:1:1:1:1:0:0:64:7\n"},
		{"odd event fields", sampleHeader + "2:1:1:1:1:0:90000001\n"},
		{"non-numeric event value", sampleHeader + "2:1:1:1:1:0:90000001:x\n"},
		{"eof mid-record", sampleHeader + "1:1:1:1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("malformed input parsed without error")
			}
			if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
				t.Fatalf("stage = %v/%v, want parse (err: %v)", st, ok, err)
			}
		})
	}
}

// TestReadLineLongerThanScannerDefault is the regression test for the
// latent bufio.Scanner 64 KiB token limit: real .prv files carry whole
// communicator definitions on one line, which the default scanner buffer
// rejected wholesale.
func TestReadLineLongerThanScannerDefault(t *testing.T) {
	long := "# " + strings.Repeat("x", 1<<20)
	in := sampleHeader + long + "\n" + "1:1:1:1:1:0:1000000000:1\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("1 MiB comment line failed to parse: %v", err)
	}
	if tr.NumRanks() != 2 {
		t.Fatalf("ranks = %d, want 2", tr.NumRanks())
	}
}

// TestScanErrMapsTooLong pins the translation of the scanner's token-limit
// sentinel into a line-numbered parse-stage error.
func TestScanErrMapsTooLong(t *testing.T) {
	err := scanErr(bufio.ErrTooLong, 7)
	if !strings.Contains(err.Error(), "line 8") || !strings.Contains(err.Error(), "exceeds max line length") {
		t.Fatalf("scanErr(ErrTooLong, 7) = %v, want mention of line 8", err)
	}
	if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
		t.Fatalf("stage = %v/%v, want parse", st, ok)
	}
}

// FuzzRead asserts the importer never panics: arbitrary bytes either parse
// into a well-formed trace or fail with a parse-stage error.
func FuzzRead(f *testing.F) {
	f.Add(sampleHeader + "1:1:1:1:1:0:1000000000:1\n")
	f.Add(sampleHeader + "3:1:1:1:1:0:0:1:1:2:1:0:0:64:7\n")
	f.Add(sampleHeader + "2:1:1:1:1:500:90000001:1\n")
	f.Add(sampleHeader + "1:1:1:1:1:0:100:q\n")
	f.Add(sampleHeader + "9:whatever\n# comment\nc communicator\n")
	f.Add("")
	f.Add("#Paraver (x):100\n")
	f.Add("#Paraver (x):100:1(2):1:50000000(1:1)\n1:1:1:1:1:0:100:1\n")
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
