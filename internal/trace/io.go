package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/faults"
	"repro/internal/stagerr"
)

// Text trace format, one record per line, in the spirit of Dimemas
// tracefiles:
//
//	#PWRTRACE v1 app=<name> ranks=<n>
//	c <rank> <seconds> [beta]     computation burst
//	s <rank> <peer> <bytes> <tag> send
//	r <rank> <peer> <bytes> <tag> recv
//	g <rank> <collective> <bytes> collective
//	i <rank>                      iteration marker
//
// Lines starting with '%' are comments. Records of a rank appear in program
// order; ranks may interleave arbitrarily.

const formatHeader = "#PWRTRACE v1"

// MaxLineBytes bounds one line of trace text: a line of this many bytes or
// more, not counting its newline, is a parse error that names the line. It
// sits far above any record; only a pathological comment comes near it.
const MaxLineBytes = 16 << 20

// MaxRanks bounds the rank count a trace header may declare. Parse allocates
// per-rank state from the header before it sees a record, so an unbounded
// count lets one short line demand gigabytes; the cap sits far above every
// generated instance and is checked before anything is allocated.
const MaxRanks = 1 << 16

// Write serializes the trace in the text format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s app=%s ranks=%d\n", formatHeader, escapeApp(t.App), len(t.Ranks)); err != nil {
		return err
	}
	for r, recs := range t.Ranks {
		for _, rec := range recs {
			var err error
			switch rec.Kind {
			case KindCompute:
				if rec.Beta >= 0 {
					_, err = fmt.Fprintf(bw, "c %d %.9g %.9g\n", r, rec.Duration, rec.Beta)
				} else {
					_, err = fmt.Fprintf(bw, "c %d %.9g\n", r, rec.Duration)
				}
			case KindSend:
				_, err = fmt.Fprintf(bw, "s %d %d %d %d\n", r, rec.Peer, rec.Bytes, rec.Tag)
			case KindRecv:
				_, err = fmt.Fprintf(bw, "r %d %d %d %d\n", r, rec.Peer, rec.Bytes, rec.Tag)
			case KindColl:
				_, err = fmt.Fprintf(bw, "g %d %s %d\n", r, rec.Coll, rec.Bytes)
			case KindIterMark:
				_, err = fmt.Fprintf(bw, "i %d\n", r)
			default:
				return stagerr.Errorf(stagerr.Parse, "trace: cannot serialize record kind %d", rec.Kind)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Parse parses a trace in the text format. It is the package's one
// reader; Read is Parse over a stream.
//
// The accepted grammar:
//   - Lines end at '\n'; one '\r' before it is dropped, so CRLF text parses
//     like LF text. A last line without a newline is still a line.
//   - Line 1 is the header: it starts with "#PWRTRACE v1" and carries a
//     "ranks=<n>" field with 0 < n ≤ MaxRanks (and optionally "app=<name>").
//   - Every later line is blank, a comment (its first non-space character
//     is '%'), or one record as listed at the top of this file. Fields are
//     separated by whitespace as strings.Fields defines it, Unicode spaces
//     included. Integers take an optional sign; floats are anything
//     strconv.ParseFloat accepts (hex, inf, nan); an "i" record ignores
//     fields past the rank.
//   - A line of MaxLineBytes bytes or more (not counting its '\n') is an
//     error naming the line.
//
// Failures are parse-stage errors (internal/stagerr) carrying the offending
// line number. Fields are sliced out of text without copying and the records
// share one exactly sized backing array; each rank's slice is capped at its
// length, so a later Add to one rank never writes into the next.
func Parse(text string) (*Trace, error) {
	if err := faults.Check(faults.TraceParse); err != nil {
		return nil, stagerr.Wrap(stagerr.Parse, err)
	}
	if text == "" {
		return nil, stagerr.New(stagerr.Parse, "trace: empty input")
	}
	header, rest := nextLine(text)
	if len(header) >= MaxLineBytes {
		return nil, lineTooLong(1)
	}
	header = strings.TrimSuffix(header, "\r")
	if !strings.HasPrefix(header, formatHeader) {
		return nil, stagerr.Errorf(stagerr.Parse, "trace: bad header %q", header)
	}
	app, nranks, err := parseHeader(header)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Parse, err)
	}

	nrec := 0
	for s := rest; s != ""; {
		var raw string
		raw, s = nextLine(s)
		if isRecordLine(raw) {
			nrec++
		}
	}
	recs := make([]Record, 0, nrec)
	owner := make([]int32, 0, nrec)
	count := make([]int32, nranks)
	sorted := true
	var f [5]string
	for line := 2; rest != ""; line++ {
		var raw string
		raw, rest = nextLine(rest)
		if len(raw) >= MaxLineBytes {
			return nil, lineTooLong(line)
		}
		if !isRecordLine(raw) {
			continue
		}
		var fields []string
		if n, ok := splitASCII(raw, &f); ok && n <= len(f) {
			fields = f[:n]
		} else {
			fields = strings.Fields(raw)
		}
		rec, rank, err := parseRecord(fields, nranks)
		if err != nil {
			return nil, stagerr.Errorf(stagerr.Parse, "trace: line %d: %w", line, err)
		}
		if len(owner) > 0 && int32(rank) < owner[len(owner)-1] {
			sorted = false
		}
		recs = append(recs, rec)
		owner = append(owner, int32(rank))
		count[rank]++
	}
	if !sorted {
		// Ranks interleave: a stable counting sort by rank.
		next := make([]int32, nranks)
		var sum int32
		for r, c := range count {
			next[r] = sum
			sum += c
		}
		grouped := make([]Record, len(recs))
		for i, rec := range recs {
			grouped[next[owner[i]]] = rec
			next[owner[i]]++
		}
		recs = grouped
	}
	t := New(strings.Clone(app), nranks)
	off := 0
	for r, c := range count {
		if c > 0 {
			end := off + int(c)
			t.Ranks[r] = recs[off:end:end]
			off = end
		}
	}
	return t, nil
}

// Read parses a trace in the text format from r: it reads r to the end and
// calls Parse, whose godoc states the grammar.
func Read(r io.Reader) (*Trace, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, stagerr.Wrap(stagerr.Parse, err)
	}
	return Parse(sb.String())
}

// lineTooLong is the error for a line of MaxLineBytes bytes or more.
func lineTooLong(line int) error {
	return stagerr.Errorf(stagerr.Parse, "trace: line %d exceeds max line length (%d bytes)", line, MaxLineBytes)
}

// nextLine splits s at its first '\n', dropping the newline.
func nextLine(s string) (line, rest string) {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// byteClass sorts bytes for the record scanner: the six ASCII bytes
// unicode.IsSpace accepts, every other ASCII byte, and the bytes of
// multi-byte UTF-8 sequences, which may encode Unicode whitespace.
var byteClass = func() (c [256]uint8) {
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = classUnicode
	}
	for _, b := range "\t\n\v\f\r " {
		c[b] = classSpace
	}
	return c
}()

const (
	classField uint8 = iota
	classSpace
	classUnicode
)

// isRecordLine reports whether raw holds a record rather than being blank
// or a '%' comment once strings.TrimSpace has trimmed it.
func isRecordLine(raw string) bool {
	for i := 0; i < len(raw); i++ {
		switch byteClass[raw[i]] {
		case classSpace:
			continue
		case classUnicode:
			t := strings.TrimSpace(raw[i:])
			return t != "" && t[0] != '%'
		}
		return raw[i] != '%'
	}
	return false
}

// splitASCII is strings.Fields for a line of ASCII bytes: it stores the
// first len(f) fields of raw in f and returns the number of fields. ok is
// false when raw holds a non-ASCII byte; the caller then splits with
// strings.Fields, as it does when there are more fields than f holds.
func splitASCII(raw string, f *[5]string) (n int, ok bool) {
	for i := 0; i < len(raw); {
		if byteClass[raw[i]] == classSpace {
			i++
			continue
		}
		start := i
		for i < len(raw) && byteClass[raw[i]] == classField {
			i++
		}
		if i < len(raw) && byteClass[raw[i]] == classUnicode {
			return 0, false
		}
		if n < len(f) {
			f[n] = raw[start:i]
		}
		n++
	}
	return n, true
}

func escapeApp(app string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\t' {
			return '_'
		}
		return r
	}, app)
}

func parseHeader(h string) (app string, nranks int, err error) {
	for _, f := range strings.Fields(h) {
		if v, ok := strings.CutPrefix(f, "app="); ok {
			app = v
		}
		if v, ok := strings.CutPrefix(f, "ranks="); ok {
			nranks, err = strconv.Atoi(v)
			if err != nil {
				return "", 0, fmt.Errorf("trace: bad ranks field %q: %w", v, err)
			}
		}
	}
	if nranks <= 0 {
		return "", 0, fmt.Errorf("trace: header missing positive ranks count: %q", h)
	}
	if nranks > MaxRanks {
		return "", 0, fmt.Errorf("trace: header declares %d ranks, above the limit %d", nranks, MaxRanks)
	}
	return app, nranks, nil
}

func parseRecord(fields []string, nranks int) (Record, int, error) {
	if len(fields) < 2 {
		return Record{}, 0, fmt.Errorf("short record [%s]", strings.Join(fields, " "))
	}
	rank, err := strconv.Atoi(fields[1])
	if err != nil || rank < 0 || rank >= nranks {
		return Record{}, 0, fmt.Errorf("bad rank %q", fields[1])
	}
	switch fields[0] {
	case "c":
		if len(fields) != 3 && len(fields) != 4 {
			return Record{}, 0, fmt.Errorf("compute record needs 3 or 4 fields, got %d", len(fields))
		}
		d, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return Record{}, 0, fmt.Errorf("bad duration %q: %w", fields[2], err)
		}
		beta := -1.0
		if len(fields) == 4 {
			beta, err = strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return Record{}, 0, fmt.Errorf("bad beta %q: %w", fields[3], err)
			}
		}
		return Record{Kind: KindCompute, Duration: d, Beta: beta}, rank, nil
	case "s", "r":
		if len(fields) != 5 {
			return Record{}, 0, fmt.Errorf("p2p record needs 5 fields, got %d", len(fields))
		}
		peer, err := strconv.Atoi(fields[2])
		if err != nil {
			return Record{}, 0, fmt.Errorf("bad peer %q: %w", fields[2], err)
		}
		bytes, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return Record{}, 0, fmt.Errorf("bad size %q: %w", fields[3], err)
		}
		tag, err := strconv.Atoi(fields[4])
		if err != nil {
			return Record{}, 0, fmt.Errorf("bad tag %q: %w", fields[4], err)
		}
		k := KindSend
		if fields[0] == "r" {
			k = KindRecv
		}
		return Record{Kind: k, Peer: peer, Bytes: bytes, Tag: tag}, rank, nil
	case "g":
		if len(fields) != 4 {
			return Record{}, 0, fmt.Errorf("collective record needs 4 fields, got %d", len(fields))
		}
		coll, err := ParseCollective(fields[2])
		if err != nil {
			return Record{}, 0, err
		}
		bytes, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return Record{}, 0, fmt.Errorf("bad size %q: %w", fields[3], err)
		}
		return Record{Kind: KindColl, Coll: coll, Bytes: bytes}, rank, nil
	case "i":
		return Record{Kind: KindIterMark}, rank, nil
	default:
		return Record{}, 0, fmt.Errorf("unknown record type %q", fields[0])
	}
}
