package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/stagerr"
)

// sameTrace reports the first difference between two parsed traces, with
// floats compared bit for bit, or "" when they are identical. It also
// compares their serialized text.
func sameTrace(got, want *Trace) string {
	if got.App != want.App || got.NumRanks() != want.NumRanks() {
		return fmt.Sprintf("header: got app %q ranks %d, want app %q ranks %d", got.App, got.NumRanks(), want.App, want.NumRanks())
	}
	for r := range want.Ranks {
		g, w := got.Ranks[r], want.Ranks[r]
		if len(g) != len(w) {
			return fmt.Sprintf("rank %d: %d records, want %d", r, len(g), len(w))
		}
		for i := range w {
			a, b := g[i], w[i]
			if a.Kind != b.Kind || a.Peer != b.Peer || a.Bytes != b.Bytes || a.Tag != b.Tag || a.Coll != b.Coll ||
				math.Float64bits(a.Duration) != math.Float64bits(b.Duration) || math.Float64bits(a.Beta) != math.Float64bits(b.Beta) {
				return fmt.Sprintf("rank %d record %d: got %+v, want %+v", r, i, a, b)
			}
		}
	}
	var gb, wb bytes.Buffer
	if err := Write(&gb, got); err != nil {
		return "write: " + err.Error()
	}
	if err := Write(&wb, want); err != nil {
		return "write: " + err.Error()
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		return "serialized text differs"
	}
	return ""
}

// matchesReference fails t unless Read and the reference reader agree on in:
// the same records, or the same error text and stage.
func matchesReference(t *testing.T, in string) {
	t.Helper()
	got, gotErr := Read(strings.NewReader(in))
	want, wantErr := readReference(strings.NewReader(in))
	switch {
	case wantErr != nil:
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("input %q: error %v, reference %v", in, gotErr, wantErr)
		}
		gs, _ := stagerr.StageOf(gotErr)
		ws, _ := stagerr.StageOf(wantErr)
		if gs != ws {
			t.Fatalf("input %q: stage %v, reference %v", in, gs, ws)
		}
	case gotErr != nil:
		t.Fatalf("input %q: error %v, reference parsed it", in, gotErr)
	default:
		if d := sameTrace(got, want); d != "" {
			t.Fatalf("input %q: %s", in, d)
		}
	}
}

// FuzzReadMatchesReference holds the byte-level scanner to the language of
// the bufio.Scanner reader it replaced (io_reference_test.go).
func FuzzReadMatchesReference(f *testing.F) {
	for _, s := range []string{
		"#PWRTRACE v1 app=a ranks=2\nc 0 1.5\ns 0 1 1024 7\nr 1 0 1024 7\ni 0\ni 1\n",
		"#PWRTRACE v1 app=a ranks=2\r\nc 0 1.5\r\ns 0 1 8 0\r\nr 1 0 8 0\r\n",
		"#PWRTRACE v1 app=a ranks=2\nc\u00a00\u00a01.5\ns\u00850\u00851 8 0\nr 1 0 8 0\n",
		"#PWRTRACE v1 app=a ranks=2\nc\t0\t1.5\t0.3\n\ts 0 1 8 0\n",
		"#PWRTRACE v1 app=a ranks=6\nc +5 1\ns -0 1 8 0\nr 1 0 +8 -3\n",
		"#PWRTRACE v1 app=a ranks=2\ns 0 1 9223372036854775808 0\n",
		"#PWRTRACE v1 app=a ranks=2\ns 0 99999999999999999999 8 0\n",
		"#PWRTRACE v1 app=a ranks=1\nc 0 0x1p-3 inf\nc 0 -Inf NaN\n",
		"#PWRTRACE v1 app=a ranks=1\ni 0 extra\ni 0 a b c d e f\n",
		"#PWRTRACE v1 app=a ranks=1\n   % indented comment\n\t%tab\n",
		"#PWRTRACE v1 app=a ranks=1\nc 0 1\n\n   ",
		"#PWRTRACE v1 app=a ranks=1\nc 0 1\n \u00a0% comment\n ",
		"#PWRTRACE v1 app=a ranks=3\ni 2\nc 1 1\ni 0\nc 2 2\ni 1\n",
		"#PWRTRACE v1 app=a ranks=1\nc\n",
		"#PWRTRACE v1 app=a ranks=1\ng 0 allreduce 8 9\n",
		"#PWRTRACE v1 app=a ranks=1\nc 0 1_0\n",
		"#PWRTRACE v1 app=a ranks=1\r\r\n",
		"#PWRTRACE v1 app=a ranks=1",
		"#PWRTRACE v1 app=x ranks=65536\nc 65535 1\n",
		"#PWRTRACE v1 app=x ranks=65537\nc 0 1\n",
		"#PWRTRACE v1 app=x ranks=50000000\nc 0 1\n",
		"\n",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(matchesReference)
}

// TestParseLineLimitMatchesReference pins the MaxLineBytes boundary against
// the reference on both sides, with and without a newline and a CR.
func TestParseLineLimitMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several 16 MiB lines")
	}
	const head = "#PWRTRACE v1 app=a ranks=1\n"
	for _, n := range []int{MaxLineBytes - 2, MaxLineBytes - 1, MaxLineBytes} {
		body := "%" + strings.Repeat("x", n-1)
		for _, tail := range []string{"", "\n", "\r\n", "\nc 0 1\n"} {
			matchesReference(t, head+body+tail)
		}
	}
	matchesReference(t, "#PWRTRACE v1 app=a ranks=1 %"+strings.Repeat("x", MaxLineBytes)+"\n")
}

// TestParseAddDoesNotAlias proves each rank's slice is capped at its length:
// appending to rank 0 of a parsed trace must not overwrite rank 1, which
// follows it in the shared backing array.
func TestParseAddDoesNotAlias(t *testing.T) {
	tr, err := Parse("#PWRTRACE v1 app=a ranks=2\nc 0 1\nc 1 2\nc 1 3\n")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Record(nil), tr.Ranks[1]...)
	tr.Add(0, Compute(9), Compute(10))
	if len(tr.Ranks[1]) != 2 || tr.Ranks[1][0] != want[0] || tr.Ranks[1][1] != want[1] {
		t.Fatalf("rank 1 = %+v after Add to rank 0, want %+v", tr.Ranks[1], want)
	}
	if len(tr.Ranks[0]) != 3 {
		t.Fatalf("rank 0 has %d records, want 3", len(tr.Ranks[0]))
	}
}
