package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/trace"
)

// sameRecords reports the first record that differs between two traces, or
// "" when they hold the same records.
func sameRecords(got, want *trace.Trace) string {
	if len(got.Ranks) != len(want.Ranks) {
		return fmt.Sprintf("%d ranks, want %d", len(got.Ranks), len(want.Ranks))
	}
	for r, recs := range got.Ranks {
		w := want.Ranks[r]
		if len(recs) != len(w) {
			return fmt.Sprintf("rank %d has %d records, want %d", r, len(recs), len(w))
		}
		for i := range recs {
			if recs[i] != w[i] {
				return fmt.Sprintf("rank %d record %d = %+v, want %+v", r, i, recs[i], w[i])
			}
		}
	}
	return ""
}

// sameEmission is sameRecords for two templates that must also list the
// same scaled-record slots.
func sameEmission(got, want *template) string {
	if diff := sameRecords(got.tr, want.tr); diff != "" {
		return diff
	}
	if !slices.Equal(got.slots, want.slots) {
		return "scaled-record slots differ"
	}
	return ""
}

// stepSequenceSHA256 is the sha256 of the bisection steps Generate takes on
// the twelve Table 3 instances at DefaultConfig: for each instance in order
// its name and a newline, then each step's scale and parallel efficiency as
// little-endian float64 bits. It was recorded from the generator that
// emitted a fresh trace at every step, before the steps rescaled a
// template.
const (
	stepSequenceSHA256 = "3e2f37d0704e2c0f661bd68f6b1a7961d13baa9a8b3850b606dbed7d30452508"
	stepSequenceLen    = 113
)

// TestCalibrationStepsMatchFreshEmission runs Generate's bisection on every
// Table 3 instance and checks, at each step, that the template rescaled in
// place holds exactly the records of a fresh emission at that scale and
// passes a fresh Match, and that the steps (scales and replayed parallel
// efficiencies) are the bits the fresh-build bisection took.
func TestCalibrationStepsMatchFreshEmission(t *testing.T) {
	cfg := DefaultConfig()
	h := sha256.New()
	var buf [8]byte
	word := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	total := 0
	for _, inst := range Table3() {
		p, err := newPlan(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tpl := p.template(cfg.Iterations, scaledBy(1))
		h.Write([]byte(inst.Name + "\n"))
		_, err = calibrate(inst, func(s float64) (float64, error) {
			pe, err := tpl.pe(s, cfg)
			if err != nil {
				return 0, err
			}
			if diff := sameEmission(tpl, p.template(cfg.Iterations, scaledBy(s))); diff != "" {
				t.Fatalf("%s at scale %v: template differs from a fresh emission: %s", inst.Name, s, diff)
			}
			if _, err := tpl.tr.Match(); err != nil {
				t.Fatalf("%s at scale %v: rescaled template fails Match: %v", inst.Name, s, err)
			}
			word(s)
			word(pe)
			total++
			return pe, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
	}
	if total != stepSequenceLen {
		t.Errorf("bisection took %d steps over Table 3, want %d", total, stepSequenceLen)
	}
	if runtime.GOARCH != "amd64" {
		return // the replayed efficiencies are pinned on amd64 only
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != stepSequenceSHA256 {
		t.Errorf("bisection step sequence sha256 = %s, want %s", got, stepSequenceSHA256)
	}
}

// TestGenerateReturnsUnindexedCopy checks that the calibrated trace is not
// the template the bisection replayed: its records equal the template's at
// the final scale, but it shares no backing array with it, so a later edit
// of either cannot reach the other, and its first replay validates it.
func TestGenerateReturnsUnindexedCopy(t *testing.T) {
	inst, err := FindInstance("CG-32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	p, err := newPlan(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tpl := p.template(cfg.Iterations, scaledBy(1))
	scale, err := calibrate(inst, func(s float64) (float64, error) { return tpl.pe(s, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	tpl.rescale(scale)
	out := tpl.clone()
	if diff := sameRecords(out, tpl.tr); diff != "" {
		t.Fatal(diff)
	}
	gen, err := Generate(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameRecords(gen, tpl.tr); diff != "" {
		t.Fatalf("Generate differs from the calibrated template: %s", diff)
	}
	out.Ranks[0][0].Duration = -1
	if tpl.tr.Ranks[0][0].Duration == -1 {
		t.Fatal("clone shares records with the template")
	}
	if _, err := Measure(out, cfg.Platform, cfg.FMax); err == nil {
		t.Fatal("a corrupted clone replayed: it inherited a cached index")
	}
}

// FuzzCalibrationTemplate draws an application, a process count, an
// iteration count and a sequence of communication scales, rescales one
// template through the sequence in that order, and checks after every step
// that it equals a fresh emission at that scale and passes Match. Scales
// are raw float64 bits, so negative, huge, infinite and NaN scales are
// drawn too: scaleBytes clamps them, and both paths must agree.
func FuzzCalibrationTemplate(f *testing.F) {
	f.Add(uint8(0), uint8(30), uint8(2), []byte{})
	f.Add(uint8(1), uint8(7), uint8(3), binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.37)))
	f.Add(uint8(4), uint8(30), uint8(1), binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(64)), math.Float64bits(0)))
	f.Fuzz(func(t *testing.T, app, nprocs, iters uint8, scales []byte) {
		apps := Apps()
		inst, err := InstanceFor(apps[int(app)%len(apps)], 2+int(nprocs)%47)
		if err != nil {
			t.Skip(err) // a load shape this count cannot calibrate
		}
		cfg := DefaultConfig()
		cfg.Iterations = 1 + int(iters)%4
		p, err := newPlan(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tpl := p.template(cfg.Iterations, scaledBy(1))
		if len(scales) > 8*16 {
			scales = scales[:8*16]
		}
		for ; len(scales) >= 8; scales = scales[8:] {
			s := math.Float64frombits(binary.LittleEndian.Uint64(scales))
			tpl.rescale(s)
			if diff := sameEmission(tpl, p.template(cfg.Iterations, scaledBy(s))); diff != "" {
				t.Fatalf("%s, %d iterations, scale %v: %s", inst.Name, cfg.Iterations, s, diff)
			}
			if _, err := tpl.tr.Match(); err != nil {
				t.Fatalf("%s, %d iterations, scale %v: %v", inst.Name, cfg.Iterations, s, err)
			}
		}
		for _, sl := range tpl.slots {
			if k := tpl.tr.Ranks[sl.rank][sl.pos].Kind; k == trace.KindCompute || k == trace.KindIterMark {
				t.Fatalf("slot %+v points at a %v record", sl, k)
			}
		}
	})
}
