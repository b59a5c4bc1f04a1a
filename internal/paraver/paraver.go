// Package paraver converts between Paraver trace files (.prv) — the format
// the paper's methodology starts from — and this repository's trace model.
//
// The importer understands the subset of the Paraver format that carries
// the information the pipeline needs, mirroring what the prv2dim translator
// extracts for Dimemas:
//
//	1:cpu:appl:task:thread:begin:end:state      state records (ns); state 1 = Running → compute burst
//	2:cpu:appl:task:thread:time:type:value...   event records; type 90000001 → iteration marker
//	3:...send...:...recv...:size:tag            communication records → send/recv pairs
//
// The exporter writes our traces back out as .prv (with locally
// reconstructed timestamps) so they can be opened in the real Paraver for
// visual inspection, like the paper's Figure 1.
package paraver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stagerr"
	"repro/internal/trace"
)

// IterationEventType is the Paraver event type this package uses for
// iteration boundaries.
const IterationEventType = 90000001

// nsPerSecond converts Paraver nanosecond timestamps to seconds.
const nsPerSecond = 1e9

// ErrBadHeader reports a malformed .prv header.
var ErrBadHeader = errors.New("paraver: malformed header")

// MaxLineBytes bounds one line of a .prv stream. Real Paraver traces pack
// whole communicator definitions on single lines, so the bound is generous;
// a line exceeding it is reported by number instead of surfacing
// bufio.Scanner's cryptic "token too long".
const MaxLineBytes = 64 << 20

// scanErr converts a scanner failure into a parse-stage error. line is the
// last fully scanned line; the failure is on the next one.
func scanErr(err error, line int) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return stagerr.Errorf(stagerr.Parse, "paraver: line %d exceeds max line length (%d bytes)", line+1, MaxLineBytes)
	}
	return stagerr.Wrap(stagerr.Parse, err)
}

// stateRunning is the Paraver state value meaning "useful computation".
const stateRunning = 1

// item is one timestamped occurrence on a rank's timeline while importing.
type item struct {
	time float64 // seconds
	seq  int     // tie-breaker preserving file order
	rec  trace.Record
}

// Read parses a .prv stream into a trace. Tasks map to ranks (task 1 →
// rank 0). Only Running states, communication records and iteration events
// are imported; everything else Paraver records (other states, other
// events) is irrelevant to the replay model and skipped.
func Read(r io.Reader) (*trace.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, scanErr(err, 0)
		}
		return nil, stagerr.Errorf(stagerr.Parse, "%w: empty input", ErrBadHeader)
	}
	header := sc.Text()
	ntasks, err := parseHeader(header)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Parse, err)
	}

	items := make([][]item, ntasks)
	seq := 0
	push := func(task int, t float64, rec trace.Record) error {
		if task < 1 || task > ntasks {
			return stagerr.Errorf(stagerr.Parse, "paraver: task %d out of range 1..%d", task, ntasks)
		}
		items[task-1] = append(items[task-1], item{time: t, seq: seq, rec: rec})
		seq++
		return nil
	}

	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "c") {
			continue // comments and communicator definitions
		}
		f := strings.Split(text, ":")
		var err error
		switch f[0] {
		case "1":
			err = parseState(f, push)
		case "2":
			err = parseEvent(f, push)
		case "3":
			err = parseComm(f, push)
		default:
			// Unknown record type: tolerate, like Paraver tools do.
			continue
		}
		if err != nil {
			return nil, stagerr.Errorf(stagerr.Parse, "paraver: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr(err, line)
	}

	out := trace.New("paraver-import", ntasks)
	for rank := range items {
		rs := items[rank]
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].time != rs[j].time {
				return rs[i].time < rs[j].time
			}
			return rs[i].seq < rs[j].seq
		})
		for _, it := range rs {
			out.Add(rank, it.rec)
		}
	}
	return out, nil
}

// parseHeader extracts the total task count from a .prv header of the form
//
//	#Paraver (date):ftime:nNodes(cpus):nAppl:task_count(...)...
func parseHeader(h string) (int, error) {
	if !strings.HasPrefix(h, "#Paraver") {
		return 0, fmt.Errorf("%w: %q", ErrBadHeader, h)
	}
	// Strip the parenthesized date so the remaining fields split on ':'.
	rest := h
	if i := strings.Index(h, ")"); i >= 0 {
		rest = h[i+1:]
	}
	rest = strings.TrimPrefix(rest, ":")
	fields := strings.Split(rest, ":")
	// fields: ftime, nNodes(cpus), nAppl, appl1 "ntasks(...)", ...
	if len(fields) < 4 {
		return 0, fmt.Errorf("%w: %d header fields", ErrBadHeader, len(fields))
	}
	appl := fields[3]
	ntStr := appl
	if i := strings.Index(appl, "("); i >= 0 {
		ntStr = appl[:i]
	}
	ntasks, err := strconv.Atoi(strings.TrimSpace(ntStr))
	if err != nil || ntasks <= 0 {
		return 0, fmt.Errorf("%w: bad task count %q", ErrBadHeader, appl)
	}
	if ntasks > trace.MaxRanks {
		return 0, fmt.Errorf("%w: %d tasks, above the limit %d", ErrBadHeader, ntasks, trace.MaxRanks)
	}
	return ntasks, nil
}

func parseState(f []string, push func(int, float64, trace.Record) error) error {
	if len(f) != 8 {
		return fmt.Errorf("state record needs 8 fields, got %d", len(f))
	}
	task, err := strconv.Atoi(f[3])
	if err != nil {
		return fmt.Errorf("bad task %q", f[3])
	}
	begin, err := strconv.ParseFloat(f[5], 64)
	if err != nil {
		return fmt.Errorf("bad begin %q", f[5])
	}
	end, err := strconv.ParseFloat(f[6], 64)
	if err != nil {
		return fmt.Errorf("bad end %q", f[6])
	}
	state, err := strconv.Atoi(f[7])
	if err != nil {
		return fmt.Errorf("bad state %q", f[7])
	}
	if state != stateRunning {
		return nil // waiting/blocked/etc. emerge from the replay model
	}
	if end < begin {
		return fmt.Errorf("state ends (%v) before it begins (%v)", end, begin)
	}
	return push(task, begin/nsPerSecond, trace.Compute((end-begin)/nsPerSecond))
}

func parseEvent(f []string, push func(int, float64, trace.Record) error) error {
	if len(f) < 8 || len(f)%2 != 0 {
		return fmt.Errorf("event record needs 6+2k fields, got %d", len(f))
	}
	task, err := strconv.Atoi(f[3])
	if err != nil {
		return fmt.Errorf("bad task %q", f[3])
	}
	t, err := strconv.ParseFloat(f[5], 64)
	if err != nil {
		return fmt.Errorf("bad time %q", f[5])
	}
	for i := 6; i+1 < len(f); i += 2 {
		typ, err := strconv.Atoi(f[i])
		if err != nil {
			return fmt.Errorf("bad event type %q", f[i])
		}
		val, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad event value %q", f[i+1])
		}
		if typ == IterationEventType && val > 0 {
			if err := push(task, t, trace.IterMark()); err != nil {
				return err
			}
		}
	}
	return nil
}

func parseComm(f []string, push func(int, float64, trace.Record) error) error {
	if len(f) != 15 {
		return fmt.Errorf("comm record needs 15 fields, got %d", len(f))
	}
	sTask, err := strconv.Atoi(f[3])
	if err != nil {
		return fmt.Errorf("bad send task %q", f[3])
	}
	lsend, err := strconv.ParseFloat(f[5], 64)
	if err != nil {
		return fmt.Errorf("bad logical send %q", f[5])
	}
	rTask, err := strconv.Atoi(f[9])
	if err != nil {
		return fmt.Errorf("bad recv task %q", f[9])
	}
	lrecv, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return fmt.Errorf("bad logical recv %q", f[11])
	}
	size, err := strconv.ParseInt(f[13], 10, 64)
	if err != nil || size < 0 {
		return fmt.Errorf("bad size %q", f[13])
	}
	tag, err := strconv.Atoi(f[14])
	if err != nil {
		return fmt.Errorf("bad tag %q", f[14])
	}
	if sTask == rTask {
		return fmt.Errorf("self communication on task %d", sTask)
	}
	if err := push(sTask, lsend/nsPerSecond, trace.Send(rTask-1, size, tag)); err != nil {
		return err
	}
	return push(rTask, lrecv/nsPerSecond, trace.Recv(sTask-1, size, tag))
}
