package conform

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/dps-overlay/dps/internal/chaos"
)

// The chaos suite on the cycle engine: every scenario preset replayed
// through the conformance runner with the sim engine alone, judged by the
// structural invariant checker. These tests are the PR-gate half of the
// self-stabilization claim (§4.3); the nightly half is TestChaosNightlySuite.

// chaosTestOptions sizes the suite for unit-test latency while keeping
// multi-level trees and every fault kind meaningful.
func chaosTestOptions() Options {
	opts := DefaultOptions()
	opts.Nodes = 60
	opts.Engines = []string{EngineSim}
	return opts
}

// simRuns runs the options and returns the sim run of every scenario.
func simRuns(t *testing.T, opts Options) []EngineRun {
	t.Helper()
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]EngineRun, 0, len(res.Scenarios))
	for _, sc := range res.Scenarios {
		if len(sc.Runs) != 1 || sc.Runs[0].Engine != EngineSim {
			t.Fatalf("%s: want exactly the sim run, have %d runs", sc.Scenario, len(sc.Runs))
		}
		runs = append(runs, sc.Runs[0])
	}
	return runs
}

// replayJSON marshals runs with the wall-clock cost cleared — the only
// field of a sim run that is not a pure function of (options, scenario).
func replayJSON(t *testing.T, runs []EngineRun) string {
	t.Helper()
	for i := range runs {
		runs[i].ElapsedMS = 0
	}
	raw, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestChaosPresetsEndClean is the acceptance gate of the chaos suite:
// every shipped scenario preset must end invariant-clean after its
// convergence window, inside its declared repair bound.
func TestChaosPresetsEndClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is long; skipped with -short")
	}
	runs := simRuns(t, chaosTestOptions())
	if len(runs) != len(chaos.PresetNames()) {
		t.Fatalf("ran %d scenarios, want %d", len(runs), len(chaos.PresetNames()))
	}
	for _, r := range runs {
		if !r.FinalClean {
			t.Errorf("%s: final sweep dirty: %d violations %v; sample %+v",
				r.Scenario, r.FinalCheck.Total, r.FinalCheck.ByInvariant, r.FinalCheck.Sample)
		}
		if !r.WithinBound {
			t.Errorf("%s: repair bound %d exceeded (ttr max %d, %d unrepaired)",
				r.Scenario, r.MaxTTR, r.TTR.Max, len(r.Unrepaired))
		}
		if len(r.Applied) == 0 {
			t.Errorf("%s: no faults applied", r.Scenario)
		}
		if r.TTR.Samples == 0 {
			t.Errorf("%s: no repairs closed — time-to-repair unmeasured", r.Scenario)
		}
		if r.DeliveryRatio < 0.5 {
			t.Errorf("%s: delivery ratio %.3f collapsed", r.Scenario, r.DeliveryRatio)
		}
		if r.FalseDeliveries != 0 {
			t.Errorf("%s: %d false deliveries", r.Scenario, r.FalseDeliveries)
		}
		for _, inv := range chaos.Invariants() {
			if n := r.FinalCheck.ByInvariant[inv]; n != 0 {
				t.Errorf("%s: invariant %s dirty in final sweep (%d violations)", r.Scenario, inv, n)
			}
		}
	}
}

// TestChaosCorruptionPresetsMeasurePerFaultTTR pins the corruption-specific
// report surface: both corruption presets must declare a repair bound and
// report a per-fault-kind TTR distribution for the ops they script.
func TestChaosCorruptionPresetsMeasurePerFaultTTR(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is long; skipped with -short")
	}
	opts := chaosTestOptions()
	opts.Scenarios = []string{"corruption", "byzantine-state"}
	for _, r := range simRuns(t, opts) {
		if r.MaxTTR == 0 {
			t.Errorf("%s: corruption preset without a declared repair bound", r.Scenario)
		}
		if len(r.TTRByKind) == 0 {
			t.Errorf("%s: no per-fault-kind TTR distribution", r.Scenario)
			continue
		}
		sawCorrupt := false
		for kind, st := range r.TTRByKind {
			if st.Samples == 0 {
				t.Errorf("%s: fault kind %s has an empty distribution", r.Scenario, kind)
			}
			if st.P99 < st.Median || st.Max < st.P99 {
				t.Errorf("%s: %s quantiles not monotone: %+v", r.Scenario, kind, st)
			}
			if strings.HasPrefix(kind, "corrupt-") {
				sawCorrupt = true
			}
		}
		if !sawCorrupt {
			t.Errorf("%s: no corrupt-* fault kind in TTR breakdown (have %v)",
				r.Scenario, r.TTRByKind)
		}
	}
}

// TestChaosReplayEquivalence pins the determinism contract: a scenario's
// whole sim run — fault log, every sweep, repairs, delivery — is
// bit-identical at any worker count.
func TestChaosReplayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is long; skipped with -short")
	}
	opts := chaosTestOptions()
	// One fail-stop scenario plus one corruption scenario: the Corrupt
	// action draws victims and ops from the injector's stream, so it must
	// replay bit-identically at any worker count like every other kind.
	opts.Scenarios = []string{"dependability", "corruption"}
	run := func(workers int) string {
		o := opts
		o.Workers = workers
		return replayJSON(t, simRuns(t, o))
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); got != base {
			t.Errorf("workers=%d: chaos report differs from sequential run", w)
		}
	}
}

func TestChaosUnknownScenario(t *testing.T) {
	opts := chaosTestOptions()
	opts.Scenarios = []string{"no-such-scenario"}
	if _, err := Run(opts); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestCoverChurnWaveEndsClean drives the covering layer through the
// churn-wave chaos preset — joins and graceful leaves racing repairs —
// the regime where unsubscribe must un-cover and re-propagate correctly
// (including the raced-leave exits in the join machinery). The scenario
// must end invariant-clean within its repair bound, with delivery intact.
func TestCoverChurnWaveEndsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario is long; skipped with -short")
	}
	opts := chaosTestOptions()
	opts.Scenarios = []string{"churn-wave"}
	opts.Cover = true
	for _, r := range simRuns(t, opts) {
		if !r.FinalClean {
			t.Errorf("%s (covered): final sweep dirty: %d violations %v; sample %+v",
				r.Scenario, r.FinalCheck.Total, r.FinalCheck.ByInvariant, r.FinalCheck.Sample)
		}
		if !r.WithinBound {
			t.Errorf("%s (covered): repair bound %d exceeded (ttr max %d, %d unrepaired)",
				r.Scenario, r.MaxTTR, r.TTR.Max, len(r.Unrepaired))
		}
		if r.DeliveryRatio < 0.5 {
			t.Errorf("%s (covered): delivery ratio %.3f collapsed", r.Scenario, r.DeliveryRatio)
		}
	}
}
