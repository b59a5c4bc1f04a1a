package trace

// The reader below is the line-at-a-time implementation that Parse replaced:
// bufio.Scanner, strings.TrimSpace and strings.Fields on every line, with a
// per-record append. It is kept verbatim (modulo renames) as the golden
// reference for the accepted language: Parse must accept exactly what it
// accepts, build bit-identical records, and fail with the same error text.

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

// scanErr converts a scanner failure into a parse-stage error. line is the
// last fully scanned line; the failure is on the next one.
func scanErr(err error, line int) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return stagerr.Errorf(stagerr.Parse, "trace: line %d exceeds max line length (%d bytes)", line+1, MaxLineBytes)
	}
	return stagerr.Wrap(stagerr.Parse, err)
}

// readReference is the bufio.Scanner reader Parse replaced, kept verbatim
// (modulo renames) as the oracle for FuzzReadMatchesReference.
func readReference(r io.Reader) (*Trace, error) {
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
	app, nranks, err := refParseHeader(header)
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
		rec, rank, err := refParseRecord(fields, nranks)
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

func refParseHeader(h string) (app string, nranks int, err error) {
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

func refParseRecord(fields []string, nranks int) (Record, int, error) {
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
