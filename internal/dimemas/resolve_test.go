package dimemas

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/stagerr"
	"repro/internal/timemodel"
)

func ptr(v float64) *float64 { return &v }

// wantValidate asserts err is a validate-stage error mentioning frag.
func wantValidate(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("got nil error, want one mentioning %q", frag)
	}
	if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Validate {
		t.Errorf("stage = %v/%v, want validate (err: %v)", st, ok, err)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Errorf("error %q does not mention %q", err, frag)
	}
}

// TestModelOptions pins the one statement of the time-model defaults: a
// nil β is the paper's 0.5, an explicit β (0 included) is kept when it lies
// in [0, 1], a zero FMax is dvfs.FMax, and everything else is a
// validate-stage error.
func TestModelOptions(t *testing.T) {
	ok := []struct {
		name         string
		beta         *float64
		fmax         float64
		wantB, wantF float64
	}{
		{"nil beta takes the default", nil, 0, timemodel.DefaultBeta, dvfs.FMax},
		{"explicit zero beta is kept", ptr(0), 0, 0, dvfs.FMax},
		{"explicit half", ptr(0.5), 0, 0.5, dvfs.FMax},
		{"explicit one", ptr(1), 2.6, 1, 2.6},
	}
	for _, tc := range ok {
		o, err := ModelOptions(tc.beta, tc.fmax)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if want := (Options{Beta: tc.wantB, FMax: tc.wantF}); !reflect.DeepEqual(o, want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, o, want)
		}
	}

	bad := []struct {
		name string
		beta *float64
		fmax float64
		frag string
	}{
		{"beta above one", ptr(1.5), 0, "dimemas: beta 1.5 outside [0, 1]"},
		{"NaN beta", ptr(math.NaN()), 0, "dimemas: beta NaN outside [0, 1]"},
		{"negative beta", ptr(-0.1), 0, "dimemas: beta -0.1 outside [0, 1]"},
		{"negative fmax", nil, -1, "dimemas: FMax must be positive and finite, got -1"},
		{"NaN fmax", nil, math.NaN(), "got NaN"},
		{"infinite fmax", nil, math.Inf(1), "got +Inf"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ModelOptions(tc.beta, tc.fmax)
			wantValidate(t, err, tc.frag)
		})
	}
}

// TestResolveMachine pins the one statement of the platform/machine
// defaults: a zero platform is DefaultPlatform, a nil machine is the flat
// machine, a zero Base inherits the platform, and the result is validated
// against the rank count.
func TestResolveMachine(t *testing.T) {
	m, err := ResolveMachine(Platform{}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := FlatMachine(DefaultPlatform()); !reflect.DeepEqual(m, want) {
		t.Errorf("zero platform, nil machine: got %+v, want %+v", m, want)
	}

	p := DefaultPlatform()
	p.Latency = 3e-6
	if m, err = ResolveMachine(p, nil, 4); err != nil || !reflect.DeepEqual(m, FlatMachine(p)) {
		t.Errorf("nil machine: got %+v, %v; want the flat machine on %+v", m, err, p)
	}

	topo := &Topology{
		Placement: BlockPlacement(4, 2),
		Intra:     Link{Latency: 5e-7, Bandwidth: 6e9},
		Inter:     Link{Latency: 9e-6, Bandwidth: 2e8},
	}
	for _, tc := range []struct {
		name     string
		platform Platform
		want     Platform
	}{
		{"zero base inherits the platform", p, p},
		{"zero base and zero platform", Platform{}, DefaultPlatform()},
	} {
		m, err := ResolveMachine(tc.platform, &Machine{Topo: topo}, 4)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if m.Base != tc.want || m.Topo != topo {
			t.Errorf("%s: got base %+v topo %p, want base %+v topo %p", tc.name, m.Base, m.Topo, tc.want, topo)
		}
	}

	own := DefaultPlatform()
	own.Bandwidth = 1e9
	if m, err = ResolveMachine(p, &Machine{Base: own}, 4); err != nil || m.Base != own {
		t.Errorf("explicit base: got %+v, %v; want base %+v kept", m.Base, err, own)
	}

	_, err = ResolveMachine(p, &Machine{Topo: topo}, 3)
	wantValidate(t, err, "dimemas: placement has 4 entries for 3 ranks")
	bad := p
	bad.Bandwidth = -1
	_, err = ResolveMachine(bad, nil, 4)
	wantValidate(t, err, "dimemas: bandwidth must be positive")
}
