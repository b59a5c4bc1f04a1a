package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// maxBody is the daemon's default body limit.
var maxBody = Config{}.withDefaults().MaxBodyBytes

// failingReader yields its prefix, then fails with err: a client that
// hangs up mid-body.
type failingReader struct {
	prefix *strings.Reader
	err    error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.prefix.Len() > 0 {
		return f.prefix.Read(p)
	}
	return 0, f.err
}

// decodeRequest builds a request whose body is body with the declared
// length n (-1: unknown, as a chunked upload arrives).
func decodeRequest(body io.Reader, n int64) *http.Request {
	r := httptest.NewRequest("POST", "/v1/replay", body)
	r.ContentLength = n
	return r
}

// answer serves one /v1/replay request through the daemon's full handler
// chain and returns its status and error envelope.
func answer(t *testing.T, s *Server, r *http.Request) (int, ErrorBody) {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	resp := w.Result()
	return resp.StatusCode, envelope(t, resp)
}

// TestDecodeAnswersPinned pins the daemon's answer to the bodies a
// buffered decoder could get wrong: oversize and failing bodies, declared
// with a length and chunked, and a JSON type error in the inline text.
func TestDecodeAnswersPinned(t *testing.T) {
	s := New(Config{MaxBodyBytes: 1 << 10})
	big := `{"trace": {"text": "` + strings.Repeat("x", 2<<10) + `"}}`
	head := `{"trace": {"text": "0 comp 1\n`
	cases := []struct {
		name   string
		body   func() io.Reader
		n      int64
		status int
		stage  string
		msg    string
	}{
		{"oversize with length", func() io.Reader { return strings.NewReader(big) }, int64(len(big)),
			400, "parse", "body: http: request body too large"},
		{"oversize chunked", func() io.Reader { return strings.NewReader(big) }, -1,
			400, "parse", "body: http: request body too large"},
		{"reader fails with length", func() io.Reader {
			return &failingReader{strings.NewReader(head), errors.New("connection reset")}
		}, int64(len(head) + 100), 400, "parse", "body: connection reset"},
		{"reader fails chunked", func() io.Reader {
			return &failingReader{strings.NewReader(head), errors.New("connection reset")}
		}, -1, 400, "parse", "body: connection reset"},
		{"text is a number", func() io.Reader { return strings.NewReader(`{"trace": {"text": 5}}`) }, 22,
			400, "parse", "body: json: cannot unmarshal number into Go struct field TraceRef.trace.text of type string"},
		{"text is null", func() io.Reader { return strings.NewReader(`{"trace": {"text": null}}`) }, 25,
			400, "validate", "trace: exactly one of text or app is required"},
		{"unterminated text", func() io.Reader { return strings.NewReader(`{"trace": {"text": "abc`) }, 23,
			400, "parse", "body: unexpected EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, eb := answer(t, s, decodeRequest(tc.body(), tc.n))
			if status != tc.status || eb.Stage != tc.stage || eb.Error != tc.msg {
				t.Errorf("answer = %d %s %q, want %d %s %q", status, eb.Stage, eb.Error, tc.status, tc.stage, tc.msg)
			}
		})
	}
}

// TestDecodeFieldsPinned pins what the request decoder makes of the JSON
// corners around an inline trace text, for a body declared with its length
// and for the same body chunked: encoding/json's trailing-data, duplicate
// key, case-folding, escape and UTF-8 rules.
func TestDecodeFieldsPinned(t *testing.T) {
	cases := []struct {
		name string
		body string
		want TraceRef
	}{
		{"trailing bytes", `{"trace": {"text": "a\nb"}} trailing`, TraceRef{Text: "a\nb"}},
		{"trailing value", `{"trace": {"text": "a"}}{"trace": {"text": "b"}}`, TraceRef{Text: "a"}},
		{"duplicate text", `{"trace": {"text": "a", "text": "b"}}`, TraceRef{Text: "b"}},
		{"duplicate trace", `{"trace": {"text": "a"}, "trace": {"app": "IS-32"}}`, TraceRef{Text: "a", App: "IS-32"}},
		{"Text spelling", `{"trace": {"Text": "a"}}`, TraceRef{Text: "a"}},
		{"Text after text", `{"trace": {"text": "a", "Text": "b"}}`, TraceRef{Text: "b"}},
		{"TRACE spelling", `{"TRACE": {"text": "a"}}`, TraceRef{Text: "a"}},
		{"escaped key", `{"trace": {"t\u0065xt": "a"}}`, TraceRef{Text: "a"}},
		{"escaped key after text", `{"trace": {"text": "a", "t\u0065xt": "b"}}`, TraceRef{Text: "b"}},
		{"line separator escape", `{"trace": {"text": "a\u2028b"}}`, TraceRef{Text: "a\u2028b"}},
		{"surrogate pair", `{"trace": {"text": "\ud83d\ude00"}}`, TraceRef{Text: "\U0001F600"}},
		{"lone surrogate", `{"trace": {"text": "\ud83d"}}`, TraceRef{Text: "\uFFFD"}},
		{"invalid UTF-8", "{\"trace\": {\"text\": \"a\xffb\"}}", TraceRef{Text: "a\uFFFDb"}},
		{"two-character escapes", `{"trace": {"text": "\"\\\/\b\f\n\r\t"}}`, TraceRef{Text: "\"\\/\b\f\n\r\t"}},
		{"raw multibyte", `{"trace": {"text": "é€😀"}}`, TraceRef{Text: "\u00e9\u20ac\U0001F600"}},
		{"null text", `{"trace": {"text": null}}`, TraceRef{}},
		{"text with app", `{"trace": {"app": "IS-32", "text": "a", "quick": true}}`, TraceRef{Text: "a", App: "IS-32", Quick: true}},
	}
	for _, tc := range cases {
		for _, n := range []int64{int64(len(tc.body)), -1} {
			var req ReplayRequest
			if err := decode(decodeRequest(strings.NewReader(tc.body), n), &req, maxBody); err != nil {
				t.Errorf("%s (length %d): %v", tc.name, n, err)
				continue
			}
			if want := (ReplayRequest{Trace: tc.want}); !reflect.DeepEqual(req, want) {
				t.Errorf("%s (length %d): decoded %+v, want %+v", tc.name, n, req, want)
			}
		}
	}
}

// TestDecodeErrorsPinned pins the error text of bodies the decoder
// rejects, declared with their length and chunked.
func TestDecodeErrorsPinned(t *testing.T) {
	cases := []struct{ name, body, want string }{
		{"text is a number", `{"trace": {"text": 5}}`,
			"body: json: cannot unmarshal number into Go struct field TraceRef.trace.text of type string"},
		{"text is an object", `{"trace": {"text": {}}}`,
			"body: json: cannot unmarshal object into Go struct field TraceRef.trace.text of type string"},
		{"unknown field beside text", `{"trace": {"text": "a", "bogus": 1}}`, `body: json: unknown field "bogus"`},
		{"unknown top-level field", `{"trace": {"text": "a"}, "bogus": 1}`, `body: json: unknown field "bogus"`},
		{"invalid escape", `{"trace": {"text": "a\qb"}}`, `body: invalid character 'q' in string escape code`},
		{"control byte", "{\"trace\": {\"text\": \"a\tb\"}}", `body: invalid character '\t' in string literal`},
		{"missing colon", `{"trace" {"text": "a"}}`, `body: invalid character '{' after object key`},
		{"empty body", ``, `body: EOF`},
	}
	for _, tc := range cases {
		for _, n := range []int64{int64(len(tc.body)), -1} {
			var req ReplayRequest
			err := decode(decodeRequest(strings.NewReader(tc.body), n), &req, maxBody)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s (length %d): error %v, want %q", tc.name, n, err, tc.want)
			}
		}
	}
}

// TestDecodeShortBodyCostsItsBytes declares a 64 MiB body and sends a few
// bytes: the decoder must answer as encoding/json does on those bytes
// without setting the declared length aside first.
func TestDecodeShortBodyCostsItsBytes(t *testing.T) {
	const declared = 64 << 20
	body := `{"trace": {"text": "0 comp 1\n`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req ReplayRequest
	err := decode(decodeRequest(strings.NewReader(body), declared), &req, declared)
	runtime.ReadMemStats(&after)
	if want := "body: unexpected EOF"; err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > declared/8 {
		t.Errorf("decoding a %d-byte body allocated %d bytes", len(body), grew)
	}
}

// inlineText renders the trace text of a load generator's inline-trace
// traffic: a 3-iteration WRF-128 trace with every compute burst scaled by
// a seeded factor within ±2%.
func inlineText(tb testing.TB, seed int64) string {
	tb.Helper()
	inst, err := workload.FindInstance("WRF-128")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Iterations = 3
	cfg.SkipPECalibration = true
	base, err := workload.Generate(inst, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tr := base.ScaleCompute(func(int, trace.Record) float64 { return 1 + 0.02*(2*rng.Float64()-1) })
	var sb strings.Builder
	if err := trace.Write(&sb, tr); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// inlineBodies sends text the two ways ingest-inline does: as a /v1/replay
// body and as a /v1/analyze/batch body of items gear assignments.
func inlineBodies(tb testing.TB, text string, items int) (replay, batch []byte) {
	tb.Helper()
	ref := TraceRef{Text: text}
	its := make([]AnalyzeBatchItem, items)
	for i := range its {
		its[i] = AnalyzeBatchItem{Algorithm: "MAX", GearSet: GearSetSpec{Kind: "uniform", N: 4 + i%5}}
		if i%2 == 1 {
			its[i] = AnalyzeBatchItem{Algorithm: "AVG", GearSet: GearSetSpec{Kind: "exponential", N: 4 + i%5, Overclock: true}}
		}
	}
	var err error
	if replay, err = json.Marshal(ReplayRequest{Trace: ref}); err != nil {
		tb.Fatal(err)
	}
	if batch, err = json.Marshal(AnalyzeBatchRequest{Trace: ref, Items: its}); err != nil {
		tb.Fatal(err)
	}
	return replay, batch
}

// TestSpliceTakesInlineBodies checks that the splice applies to the inline
// traffic it exists for, and yields the text encoding/json decodes.
func TestSpliceTakesInlineBodies(t *testing.T) {
	replay, batch := inlineBodies(t, inlineText(t, 1), 128)
	for _, body := range [][]byte{replay, batch} {
		_, text, ok := spliceInlineText(body)
		if !ok {
			t.Fatalf("splice declined a load-generator body (%d bytes)", len(body))
		}
		var ref struct{ Trace TraceRef }
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatal(err)
		}
		if text != ref.Trace.Text {
			t.Fatal("spliced text differs from encoding/json's")
		}
	}
}

// TestSpliceInlineTextDeclines pins which bodies the splice leaves to
// encoding/json, and that it cuts exactly the text literal otherwise.
func TestSpliceInlineTextDeclines(t *testing.T) {
	cases := []struct {
		body string
		cut  string // "" when the splice declines
	}{
		{`{"trace": {"text": "a\nb"}, "beta": 0.5}`, `{"trace": {"text": ""}, "beta": 0.5}`},
		{` {"x": [{"trace": {"text": 1}}, "}"], "trace" : { "app" : "x" , "text" : "a" } } tail`,
			` {"x": [{"trace": {"text": 1}}, "}"], "trace" : { "app" : "x" , "text" : "" } } tail`},
		{`{"trace": {"text": "a"}} {"trace": {"Text": "b"}}`, `{"trace": {"text": ""}} {"trace": {"Text": "b"}}`},
		{`{"trace": {"text": "a", "text": "b"}}`, ""},
		{`{"trace": {"text": "a"}, "trace": {"app": "b"}}`, ""},
		{`{"trace": {"Text": "a"}}`, ""},
		{`{"TRACE": {"text": "a"}}`, ""},
		{`{"trace": {"t\u0065xt": "a"}}`, ""},
		{"{\"trace\": {\"text\": \"a\", \"t\u00e9xt\": 1}}", ""},
		{`{"trace": {"text": "a\u2028b"}}`, ""},
		{`{"trace": {"text": "a\qb"}}`, ""},
		{"{\"trace\": {\"text\": \"a\tb\"}}", ""},
		{"{\"trace\": {\"text\": \"a\xffb\"}}", ""},
		{`{"trace": {"text": null}}`, ""},
		{`{"trace": {"text": 5}}`, ""},
		{`{"trace": {"app": "IS-32"}}`, ""},
		{`{"trace": null}`, ""},
		{`{"traces": [{"text": "a"}]}`, ""},
		{`[{"trace": {"text": "a"}}]`, ""},
		{`{"trace": {"text": "a"`, ""},
		{``, ""},
	}
	for _, tc := range cases {
		cut, _, ok := spliceInlineText([]byte(tc.body))
		if ok != (tc.cut != "") || string(cut) != tc.cut {
			t.Errorf("spliceInlineText(%q) = %q, %v; want %q", tc.body, cut, ok, tc.cut)
		}
	}
}

// requestTypes returns a fresh value of every request type decode serves.
func requestTypes() []any {
	return []any{new(ReplayRequest), new(AnalyzeRequest), new(AnalyzeBatchRequest),
		new(GearOptRequest), new(TracegenRequest), new(PowercapRequest), new(RebalanceRequest)}
}

// checkDecodeMatchesStdlib holds decode to encoding/json on one body: for
// every request type, with the body's length declared and chunked, decode
// yields what a strict json.Decoder yields on the same bytes — an equal
// struct, or the same error text.
func checkDecodeMatchesStdlib(t *testing.T, body []byte) {
	t.Helper()
	for _, n := range []int64{int64(len(body)), -1} {
		got, want := requestTypes(), requestTypes()
		for i := range got {
			err := decode(decodeRequest(bytes.NewReader(body), n), got[i], maxBody)
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			wantErr := dec.Decode(want[i])
			switch {
			case wantErr != nil:
				if err == nil || err.Error() != "body: "+wantErr.Error() {
					t.Fatalf("%T (length %d): error %v, want body: %v", got[i], n, err, wantErr)
				}
			case err != nil:
				t.Fatalf("%T (length %d): error %v, encoding/json decodes", got[i], n, err)
			case !reflect.DeepEqual(got[i], want[i]):
				t.Fatalf("%T (length %d): decoded %+v, want %+v", got[i], n, got[i], want[i])
			}
		}
	}
}

// TestDecodeMatchesStdlibOnInlineBodies runs the fuzz target's check on
// ingest-inline's full-size bodies and on every cut of them at a stride,
// which ends the body inside the text, a key or the batch items.
func TestDecodeMatchesStdlibOnInlineBodies(t *testing.T) {
	replay, batch := inlineBodies(t, inlineText(t, 1), 128)
	for _, body := range [][]byte{replay, batch} {
		checkDecodeMatchesStdlib(t, body)
		for n := 0; n < len(body); n += 997 {
			checkDecodeMatchesStdlib(t, body[:n])
		}
	}
}

// FuzzDecodeMatchesStdlib holds decode to encoding/json on every body
// (checkDecodeMatchesStdlib). Its load-generator-shaped seeds carry the
// first lines of the trace text only: the fuzzer minimizes each new input
// for up to -fuzzminimizetime, and seeds of 70–78 KB kept a 10 s run
// minimizing throughout. TestDecodeMatchesStdlibOnInlineBodies checks the
// full-size bodies.
func FuzzDecodeMatchesStdlib(f *testing.F) {
	lines := strings.SplitAfterN(inlineText(f, 1), "\n", 9)
	replay, batch := inlineBodies(f, strings.Join(lines[:8], ""), 2)
	f.Add(replay)
	f.Add(batch)
	for _, s := range []string{
		`{"trace": {"text": "0 comp 1\n0 send 1 2 3\n"}, "beta": 0.4, "fmax": 2.3, "freqs": [2.3, 1.9]}`,
		`{"trace": {"text": "a\nb"}} trailing`,
		`{"trace": {"text": "a", "text": "b"}}`,
		`{"trace": {"text": "a", "Text": "b"}}`,
		`{"TRACE": {"text": "a"}, "gear_set": {"kind": "uniform"}}`,
		`{"trace": {"text": "a\u2028b"}}`,
		`{"trace": {"text": "\ud83d\ude00"}}`,
		"{\"trace\": {\"text\": \"a\xffb\"}}",
		`{"trace": {"text": null}}`,
		`{"trace": {"text": 5}}`,
		`{"trace": {"text": "a", "bogus": 1}}`,
		`{"trace": {"text": "a"}, "items": [{"algorithm": "MAX", "gear_set": {"kind": "uniform", "n": 4}}]}`,
		`{"traces": [{"text": "a"}, {"app": "IS-32"}]}`,
		`{"trace": {"text": "a"`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodeMatchesStdlib)
}
