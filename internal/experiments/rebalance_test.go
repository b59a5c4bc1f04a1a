package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestRebalanceSweep is the experiment-level check of the acceptance
// criteria: on both study instances, in every drift scenario, the
// threshold-triggered policy beats both never- and always-rebalance on
// total energy while losing at most 1% of time to the faster of the two,
// and the capped variant's per-iteration peak never exceeds its budget.
func TestRebalanceSweep(t *testing.T) {
	for _, app := range []string{"WRF-128", "SPECFEM3D-96"} {
		rows, err := sharedSuite.RebalanceSweep(app, DefaultRebalanceScenarios())
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("%s: %d scenarios, want 3", app, len(rows))
		}
		for _, r := range rows {
			if r.ThreshEnergy >= r.NeverEnergy {
				t.Errorf("%s/%s: threshold energy %.4f not below never %.4f", app, r.Scenario, r.ThreshEnergy, r.NeverEnergy)
			}
			if r.ThreshEnergy >= r.AlwaysEnergy {
				t.Errorf("%s/%s: threshold energy %.4f not below always %.4f", app, r.Scenario, r.ThreshEnergy, r.AlwaysEnergy)
			}
			best := r.NeverTime
			if r.AlwaysTime < best {
				best = r.AlwaysTime
			}
			if r.ThreshTime > 1.01*best {
				t.Errorf("%s/%s: threshold time %.4f loses more than 1%% to the best policy %.4f", app, r.Scenario, r.ThreshTime, best)
			}
			if r.CapPeak > r.Cap {
				t.Errorf("%s/%s: capped-variant peak %.1f exceeds the budget %.1f", app, r.Scenario, r.CapPeak, r.Cap)
			}
			if r.ThreshReassigns < 1 || r.ThreshReassigns >= r.AlwaysReassigns {
				t.Errorf("%s/%s: threshold re-solved %d times vs always's %d — hysteresis not amortizing",
					app, r.Scenario, r.ThreshReassigns, r.AlwaysReassigns)
			}

			// Predictive acceptance: anticipation must pay on forecastable
			// drift (ramp's trend, step's regime change) on energy×time,
			// and the skill guard must keep the policy from losing more
			// than 1% on the martingale (walk), where the best it can do is
			// degrade to the threshold trigger.
			threshExT := r.ThreshEnergy * r.ThreshTime
			predExT := r.PredEnergy * r.PredTime
			switch r.Scenario {
			case "walk":
				if predExT > 1.01*threshExT {
					t.Errorf("%s/%s: predictive energy×time %.4f loses more than 1%% to threshold %.4f",
						app, r.Scenario, predExT, threshExT)
				}
				if r.PredFallbacks < rebalanceIterations/2 {
					t.Errorf("%s/%s: forecaster fell back only %d of %d iterations — guard should reject the martingale",
						app, r.Scenario, r.PredFallbacks, rebalanceIterations)
				}
			default: // ramp, step
				if predExT >= threshExT {
					t.Errorf("%s/%s: predictive energy×time %.4f not below threshold %.4f",
						app, r.Scenario, predExT, threshExT)
				}
			}
			if r.Scenario == "ramp" && r.PredFallbacks > rebalanceIterations/2 {
				t.Errorf("%s/%s: forecaster fell back %d of %d iterations — the trend should earn trust",
					app, r.Scenario, r.PredFallbacks, rebalanceIterations)
			}
			if r.PredCapPeak > r.Cap {
				t.Errorf("%s/%s: predictive-capped peak %.1f exceeds the budget %.1f", app, r.Scenario, r.PredCapPeak, r.Cap)
			}
		}
		var buf bytes.Buffer
		if err := RebalanceTable(app, rows).Write(&buf); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"E thresh", "E pred", "solves a/t/p", "E pcap", "peak/cap (W)"} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("table missing %q:\n%s", want, buf.String())
			}
		}
	}
}
