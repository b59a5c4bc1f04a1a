package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"unicode/utf8"

	"repro/internal/faults"
	"repro/internal/stagerr"
)

// inlineTracer is a request type whose top-level "trace" member decodes
// into a TraceRef, the only place a request carries inline trace text.
type inlineTracer interface{ inlineTrace() *TraceRef }

func (q *ReplayRequest) inlineTrace() *TraceRef       { return &q.Trace }
func (q *AnalyzeRequest) inlineTrace() *TraceRef      { return &q.Trace }
func (q *AnalyzeBatchRequest) inlineTrace() *TraceRef { return &q.Trace }
func (q *TracegenRequest) inlineTrace() *TraceRef     { return &q.Trace }
func (q *PowercapRequest) inlineTrace() *TraceRef     { return &q.Trace }
func (q *RebalanceRequest) inlineTrace() *TraceRef    { return &q.Trace }

// decode strictly parses a JSON request body of at most limit bytes into v.
// It doubles as the handler-I/O fault-injection point: a chaos run can make
// any request fail right at the front door, before a slot-holding work
// goroutine exists.
//
// When v carries a TraceRef, a body with a declared length within limit is
// read into one buffer. When the body's inline trace text is a plain string
// literal (spliceInlineText), the literal is unquoted in one pass and only
// the rest of the body goes through encoding/json, which otherwise steps
// its scanner over every byte of the text and then unquotes it again.
// Every other body goes to encoding/json as it is: from the buffer when it
// has no inline text or the splice declines it; streamed from r.Body when
// it is chunked or oversize, or v has no TraceRef (gearopt). So every
// answer, error text included, is encoding/json's.
func decode(r *http.Request, v any, limit int64) error {
	if err := faults.Check(faults.HandlerIO); err != nil {
		return stagerr.Wrap(stagerr.Serve, err)
	}
	var err error
	if it, ok := v.(inlineTracer); ok && r.ContentLength >= 0 && r.ContentLength <= limit {
		err = decodeBuffered(r.Body, r.ContentLength, it)
	} else {
		err = decodeStrict(r.Body, v)
	}
	if err != nil {
		return stagerr.Errorf(stagerr.Parse, "body: %w", err)
	}
	return nil
}

// decodeStrict is the daemon's JSON decoding rule: the first value of the
// stream, unknown fields rejected.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// maxPresize caps the buffer decodeBuffered sets aside before the body
// arrives; past it, memory grows only with the bytes a client sends, not
// with the length it declares.
const maxPresize = 128 << 10

// decodeBuffered reads a body of declared length n and decodes it into v,
// splicing out the inline trace text when it can.
func decodeBuffered(body io.Reader, n int64, v inlineTracer) error {
	var buf bytes.Buffer
	buf.Grow(int(min(n, maxPresize)) + bytes.MinRead) // room for the read that sees EOF
	if _, err := buf.ReadFrom(body); err != nil {
		// The decoder sees what a streaming read would have: the bytes
		// that arrived, then the error.
		return decodeStrict(io.MultiReader(bytes.NewReader(buf.Bytes()), errReader{err}), v)
	}
	b := buf.Bytes()
	cut, text, ok := spliceInlineText(b)
	if !ok {
		return decodeStrict(bytes.NewReader(b), v)
	}
	if err := decodeStrict(bytes.NewReader(cut), v); err != nil {
		// The original body fails too; let encoding/json word the error.
		reflect.ValueOf(v).Elem().SetZero()
		return decodeStrict(bytes.NewReader(b), v)
	}
	v.inlineTrace().Text = text
	return nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// spliceInlineText finds the value of the "text" member of body's
// top-level "trace" object, a JSON string literal, and unquotes it in one
// pass. It returns body with that literal cut down to "" and the unquoted
// text. Decoding cut with encoding/json and then setting the trace's text
// gives what decoding body would, provided cut decodes; when it does not,
// body does not either.
//
// ok is false — decode body as it is — when the first value of body is
// not an object whose "trace" member is an object with a "text" string,
// or when the splice could disagree with encoding/json, which matches keys
// case-insensitively, keeps the last of duplicate keys, and replaces
// invalid UTF-8 with U+FFFD:
//   - a key that folds to "trace" (top level) or "text" (in the trace
//     object) is not that lowercase spelling, holds an escape or a
//     non-ASCII byte, or appears twice;
//   - the text literal holds a control byte, a \u escape, any escape
//     other than the two-character ones, or invalid UTF-8.
func spliceInlineText(body []byte) (cut []byte, text string, ok bool) {
	start, end, ok := findInlineText(body)
	if !ok {
		return nil, "", false
	}
	text, ok = unquotePlain(body[start+1 : end-1])
	if !ok {
		return nil, "", false
	}
	cut = make([]byte, 0, len(body)-(end-start)+2)
	cut = append(cut, body[:start]...)
	cut = append(cut, `""`...)
	cut = append(cut, body[end:]...)
	return cut, text, true
}

// findInlineText walks the members of body's top-level object and of its
// "trace" object and returns the bounds [start, end) of the "text" string
// literal, quotes included. It reads no further than the top-level
// object's closing brace and leaves whatever follows to the decoder of the
// cut body, as it does every value it skips by its brackets and string
// quotes alone.
func findInlineText(b []byte) (start, end int, ok bool) {
	start = -1
	sawTrace := false
	_, ok = members(b, 0, func(key []byte, i int) (int, bool) {
		switch keyClass(key, "trace") {
		case keyOther:
			return skipValue(b, i)
		case keyAmbiguous:
			return 0, false
		}
		if sawTrace {
			return 0, false
		}
		sawTrace = true
		if i >= len(b) || b[i] != '{' {
			return skipValue(b, i)
		}
		return members(b, i, func(key []byte, i int) (int, bool) {
			switch keyClass(key, "text") {
			case keyOther:
				return skipValue(b, i)
			case keyAmbiguous:
				return 0, false
			}
			if start >= 0 || i >= len(b) || b[i] != '"' {
				return 0, false
			}
			j, ok := skipString(b, i)
			start, end = i, j
			return j, ok
		})
	})
	return start, end, ok && start >= 0
}

// members walks the object that opens at b[i] == '{', calling member with
// each key (quotes stripped) and the index of its value; member returns
// the index just past the value. members returns the index just past the
// closing brace.
func members(b []byte, i int, member func(key []byte, i int) (int, bool)) (int, bool) {
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return 0, false
		}
		j, ok := skipString(b, i)
		if !ok {
			return 0, false
		}
		key := b[i+1 : j-1]
		i = skipSpace(b, j)
		if i >= len(b) || b[i] != ':' {
			return 0, false
		}
		if i, ok = member(key, skipSpace(b, i+1)); !ok {
			return 0, false
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return 0, false
		}
		switch b[i] {
		case '}':
			return i + 1, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return 0, false
		}
	}
}

type keyKind int

const (
	keyOther     keyKind = iota // cannot match the field
	keyExact                    // the field's own spelling
	keyAmbiguous                // might match it under encoding/json's folding
)

// keyClass classifies a raw key (quotes stripped, escapes not decoded)
// against a lowercase ASCII field name. A key holding an escape or a
// non-ASCII byte might decode or fold onto the name (encoding/json folds
// the Kelvin sign onto k and the long s onto s), so it counts as
// ambiguous.
func keyClass(key []byte, name string) keyKind {
	if string(key) == name {
		return keyExact
	}
	for _, c := range key {
		if c == '\\' || c >= utf8.RuneSelf {
			return keyAmbiguous
		}
	}
	if strings.EqualFold(string(key), name) {
		return keyAmbiguous
	}
	return keyOther
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string literal that opens at
// b[i] == '"': the first quote after it not escaped by an odd run of
// backslashes.
func skipString(b []byte, i int) (int, bool) {
	for j := i + 1; ; {
		k := bytes.IndexByte(b[j:], '"')
		if k < 0 {
			return 0, false
		}
		j += k
		esc := j - 1
		for esc > i && b[esc] == '\\' {
			esc--
		}
		if (j-esc)%2 == 1 {
			return j + 1, true
		}
		j++
	}
}

// skipValue returns the index just past the value that starts at b[i]:
// a string, a bracketed object or array, or a bare literal or number.
func skipValue(b []byte, i int) (int, bool) {
	if i >= len(b) {
		return 0, false
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for ; i < len(b); i++ {
			switch b[i] {
			case '"':
				j, ok := skipString(b, i)
				if !ok {
					return 0, false
				}
				i = j - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, true
				}
			}
		}
		return 0, false
	}
	for ; i < len(b); i++ {
		switch b[i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return i, true
		}
	}
	return i, true
}

// verbatim marks the bytes a string literal holds as themselves: ASCII
// from the space up, except the backslash.
var verbatim = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '\\'
	}
	return t
}()

// unescape maps the second byte of each two-character JSON escape to the
// byte it stands for; zero marks every other byte.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unquotePlain unquotes the body of a string literal (quotes stripped) in
// one pass. It declines — ok false — a body holding a control byte, a \u
// escape, an escape that is not valid JSON, or invalid UTF-8, where
// encoding/json either fails or decodes differently than a byte copy.
func unquotePlain(s []byte) (string, bool) {
	var sb strings.Builder
	sb.Grow(len(s))
	run := 0 // start of the pending run of verbatim bytes
	for i := 0; i < len(s); {
		if verbatim[s[i]] {
			i++
			continue
		}
		switch c := s[i]; {
		case c == '\\':
			if i+1 >= len(s) || unescape[s[i+1]] == 0 {
				return "", false
			}
			sb.Write(s[run:i])
			sb.WriteByte(unescape[s[i+1]])
			i += 2
			run = i
		case c < ' ':
			return "", false
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			i += size
		}
	}
	sb.Write(s[run:])
	return sb.String(), true
}
