package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

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

// MaxLineBytes bounds one line of trace text. bufio.Scanner's default
// 64 KiB token limit is far too small for wide traces (a single comment or
// a pathological record can exceed it); we raise it explicitly and, when a
// line still exceeds it, report which line instead of surfacing the
// cryptic "bufio.Scanner: token too long".
const MaxLineBytes = 16 << 20

// MaxRanks bounds the rank count a trace header may declare. Read allocates
// per-rank state from the header before it sees a record, so an unbounded
// count lets one short line demand gigabytes; the cap sits far above every
// generated instance and is checked before anything is allocated.
const MaxRanks = 1 << 16

// scanErr converts a scanner failure into a parse-stage error. line is the
// last fully scanned line; the failure is on the next one.
func scanErr(err error, line int) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return stagerr.Errorf(stagerr.Parse, "trace: line %d exceeds max line length (%d bytes)", line+1, MaxLineBytes)
	}
	return stagerr.Wrap(stagerr.Parse, err)
}

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

// Read parses a trace in the text format. Failures are parse-stage errors
// (internal/stagerr) carrying the offending line number.
func Read(r io.Reader) (*Trace, error) {
	if err := faults.Check(faults.TraceParse); err != nil {
		return nil, stagerr.Wrap(stagerr.Parse, err)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, scanErr(err, 0)
		}
		return nil, stagerr.New(stagerr.Parse, "trace: empty input")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, formatHeader) {
		return nil, stagerr.Errorf(stagerr.Parse, "trace: bad header %q", header)
	}
	app, nranks, err := parseHeader(header)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Parse, err)
	}
	t := New(app, nranks)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		rec, rank, err := parseRecord(fields, nranks)
		if err != nil {
			return nil, stagerr.Errorf(stagerr.Parse, "trace: line %d: %w", line, err)
		}
		t.Ranks[rank] = append(t.Ranks[rank], rec)
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr(err, line)
	}
	return t, nil
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
		return Record{}, 0, fmt.Errorf("short record %v", fields)
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
